package obs

// The query flight recorder: a fixed-size in-process ring of completed
// request traces with slow/error-biased retention. Two pre-allocated
// rings back it: `recent` receives every request (normal traffic
// overwrites normal traffic), and `kept` additionally receives notable
// requests — over-SLO or status ≥ 500 — so a flood of fast, healthy
// requests can never evict the trace an operator actually needs. Record
// is allocation-free: slots are pre-allocated at construction and a
// sample is two struct copies under one mutex, so the cache-hit /search
// path can record without bending its zero-alloc budget (guarded by
// TestCachedRenderedZeroAllocs).

import (
	"sync"
	"time"
)

// FlightSample is one completed request as handed to Record. String
// fields must already exist (Record copies headers, not bytes); Spans
// ownership transfers to the recorder — callers must not mutate the
// slice afterwards. The hit path passes a nil Spans slice (no per-hit
// span materialisation).
type FlightSample struct {
	TraceID   string
	RequestID string
	Method    string
	Path      string
	Status    int
	Start     time.Time
	Dur       time.Duration
	Dialect   string
	Outcome   string // "hit" | "cold" for /search, "" otherwise
	Query     string // /search input
	SQL       string // top-ranked resolved statement (cold /search)
	Backend   string // execution backend identity
	Error     string
	Spans     []Span
}

// flightSlot is one pre-allocated ring slot.
type flightSlot struct {
	seq  uint64
	slow bool
	s    FlightSample
}

// FlightStats is the recorder's health summary, surfaced on /healthz.
type FlightStats struct {
	// Size is the total slot capacity (recent ring + notable ring).
	Size int `json:"size"`
	// Retained counts the distinct traces currently readable.
	Retained int `json:"retained"`
	// Notable counts retained over-SLO / 5xx traces.
	Notable int `json:"notable"`
	// Recorded counts every request ever recorded.
	Recorded uint64 `json:"recorded"`
	// Dropped counts notable traces overwritten by newer notable ones —
	// normal traffic never evicts a notable trace.
	Dropped        uint64  `json:"dropped"`
	SlowestTraceID string  `json:"slowest_trace_id,omitempty"`
	SlowestUs      float64 `json:"slowest_us,omitempty"`
}

// FlightEntry is the JSON shape of one retained trace, served by
// GET /debug/requests.
type FlightEntry struct {
	Seq       uint64       `json:"seq"`
	TraceID   string       `json:"trace_id"`
	RequestID string       `json:"request_id,omitempty"`
	Time      string       `json:"time"`
	Method    string       `json:"method"`
	Path      string       `json:"path"`
	Status    int          `json:"status"`
	DurUs     float64      `json:"dur_us"`
	Slow      bool         `json:"slow,omitempty"`
	Dialect   string       `json:"dialect,omitempty"`
	Cache     string       `json:"cache,omitempty"`
	Query     string       `json:"query,omitempty"`
	SQL       string       `json:"sql,omitempty"`
	Backend   string       `json:"backend,omitempty"`
	Error     string       `json:"error,omitempty"`
	Spans     []FlightSpan `json:"spans,omitempty"`
}

// FlightSpan is one pipeline/backend span of a retained trace.
type FlightSpan struct {
	Name  string  `json:"name"`
	DurUs float64 `json:"dur_us"`
}

// FlightRecorder retains completed request traces with slow/error bias.
// Safe for concurrent use; a nil *FlightRecorder is a valid no-op.
type FlightRecorder struct {
	slowHit  time.Duration // over-SLO threshold for cache-hit /search
	slowCold time.Duration // over-SLO threshold for everything else

	mu         sync.Mutex
	seq        uint64
	recorded   uint64
	dropped    uint64
	recent     []flightSlot // every request, newest overwrites oldest
	kept       []flightSlot // notable requests only
	ri, rn     int          // recent ring: next write index, live count
	ki, kn     int          // kept ring: next write index, live count
	slowestID  string
	slowestDur time.Duration
}

// NewFlightRecorder builds a recorder with size total slots (default
// 256; two thirds for the all-requests ring, one third reserved for
// notable traces) and the given over-SLO thresholds (0 disables the
// slow classification for that outcome).
func NewFlightRecorder(size int, slowHit, slowCold time.Duration) *FlightRecorder {
	if size <= 0 {
		size = 256
	}
	keep := size / 3
	if keep < 1 {
		keep = 1
	}
	recent := size - keep
	if recent < 1 {
		recent = 1
	}
	return &FlightRecorder{
		slowHit:  slowHit,
		slowCold: slowCold,
		recent:   make([]flightSlot, recent),
		kept:     make([]flightSlot, keep),
	}
}

// Record retains one completed request and returns the SLO threshold it
// exceeded — 0 when it was within its SLO — so a caller that logs the
// slow request reports the threshold the retention decision used.
// Allocation-free: both ring writes are struct copies into pre-allocated
// slots.
func (f *FlightRecorder) Record(s FlightSample) (exceeded time.Duration) {
	if f == nil {
		return 0
	}
	slo := f.slowCold
	if s.Outcome == "hit" {
		slo = f.slowHit
	}
	if slo > 0 && s.Dur > slo {
		exceeded = slo
	}
	notable := exceeded > 0 || s.Status >= 500
	f.mu.Lock()
	f.seq++
	f.recorded++
	slot := flightSlot{seq: f.seq, slow: exceeded > 0, s: s}
	f.recent[f.ri] = slot
	f.ri = (f.ri + 1) % len(f.recent)
	if f.rn < len(f.recent) {
		f.rn++
	}
	if notable {
		if f.kn == len(f.kept) {
			f.dropped++
		}
		f.kept[f.ki] = slot
		f.ki = (f.ki + 1) % len(f.kept)
		if f.kn < len(f.kept) {
			f.kn++
		}
	}
	if s.Dur > f.slowestDur {
		f.slowestDur = s.Dur
		f.slowestID = s.TraceID
	}
	f.mu.Unlock()
	return exceeded
}

// Stats summarizes the recorder for /healthz.
func (f *FlightRecorder) Stats() FlightStats {
	if f == nil {
		return FlightStats{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FlightStats{
		Size:           len(f.recent) + len(f.kept),
		Recorded:       f.recorded,
		Dropped:        f.dropped,
		SlowestTraceID: f.slowestID,
	}
	if f.slowestDur > 0 {
		st.SlowestUs = float64(f.slowestDur) / float64(time.Microsecond)
	}
	seen := make(map[uint64]bool, f.rn+f.kn)
	for i := 0; i < f.rn; i++ {
		seen[f.recent[i].seq] = true
	}
	st.Notable = f.kn
	st.Retained = len(seen)
	for i := 0; i < f.kn; i++ {
		if !seen[f.kept[i].seq] {
			st.Retained++
		}
	}
	return st
}

// entryOf converts a retained slot to its JSON shape.
func entryOf(slot flightSlot) FlightEntry {
	e := FlightEntry{
		Seq:       slot.seq,
		TraceID:   slot.s.TraceID,
		RequestID: slot.s.RequestID,
		Time:      slot.s.Start.UTC().Format(time.RFC3339Nano),
		Method:    slot.s.Method,
		Path:      slot.s.Path,
		Status:    slot.s.Status,
		DurUs:     float64(slot.s.Dur) / float64(time.Microsecond),
		Slow:      slot.slow,
		Dialect:   slot.s.Dialect,
		Cache:     slot.s.Outcome,
		Query:     slot.s.Query,
		SQL:       slot.s.SQL,
		Backend:   slot.s.Backend,
		Error:     slot.s.Error,
	}
	if len(slot.s.Spans) > 0 {
		e.Spans = make([]FlightSpan, len(slot.s.Spans))
		for i, sp := range slot.s.Spans {
			e.Spans[i] = FlightSpan{Name: sp.Name, DurUs: float64(sp.Dur) / float64(time.Microsecond)}
		}
	}
	return e
}

// snapshotLocked copies the live slots of both rings, deduplicated by
// sequence number (a notable trace sits in both until recent churns past
// it). Caller holds f.mu.
func (f *FlightRecorder) snapshotLocked() []flightSlot {
	out := make([]flightSlot, 0, f.rn+f.kn)
	seen := make(map[uint64]bool, f.rn+f.kn)
	for i := 0; i < f.rn; i++ {
		out = append(out, f.recent[i])
		seen[f.recent[i].seq] = true
	}
	for i := 0; i < f.kn; i++ {
		if !seen[f.kept[i].seq] {
			out = append(out, f.kept[i])
		}
	}
	return out
}

// List returns up to limit retained traces, newest first (limit <= 0
// returns everything).
func (f *FlightRecorder) List(limit int) []FlightEntry {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	slots := f.snapshotLocked()
	f.mu.Unlock()
	// Newest first by sequence (insertion sort keeps this dependency-free
	// and the rings are small).
	for i := 1; i < len(slots); i++ {
		for j := i; j > 0 && slots[j].seq > slots[j-1].seq; j-- {
			slots[j], slots[j-1] = slots[j-1], slots[j]
		}
	}
	if limit > 0 && len(slots) > limit {
		slots = slots[:limit]
	}
	out := make([]FlightEntry, len(slots))
	for i, slot := range slots {
		out[i] = entryOf(slot)
	}
	return out
}

// Get returns the retained trace whose trace id or request id equals id.
func (f *FlightRecorder) Get(id string) (FlightEntry, bool) {
	if f == nil || id == "" {
		return FlightEntry{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var best *flightSlot
	for _, ring := range [][]flightSlot{f.recent[:f.rn], f.kept[:f.kn]} {
		for i := range ring {
			slot := &ring[i]
			if slot.s.TraceID == id || slot.s.RequestID == id {
				if best == nil || slot.seq > best.seq {
					best = slot
				}
			}
		}
	}
	if best == nil {
		return FlightEntry{}, false
	}
	return entryOf(*best), true
}

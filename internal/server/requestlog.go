package server

// The structured request log and request-id plumbing. Every request is
// assigned an id and a W3C trace context in ServeHTTP; handlers annotate
// the in-flight requestInfo (dialect, cache outcome, query, resolved SQL)
// through the request context, the core pipeline appends spans to the
// embedded trace, and after the handler returns ServeHTTP freezes the
// accumulated record once (an obs.FlightSample). The flight recorder and
// the slow-query log read it, and when Config.AccessLog is set it is
// also written as one JSON line — the machine-readable replacement for
// ad-hoc per-handler log lines.

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"soda/internal/obs"
)

// requestIDs mints request ids: a per-boot random prefix plus a
// monotonic counter ("3f9ac2d1-000042"), unique within a fleet without
// coordination and sortable within one process.
type requestIDs struct {
	prefix string
	n      atomic.Uint64
}

func (g *requestIDs) init() {
	var b [4]byte
	_, _ = rand.Read(b[:])
	g.prefix = hex.EncodeToString(b[:])
}

func (g *requestIDs) next() string {
	var buf [32]byte // 8-digit prefix, '-', up to 20 digits
	b := append(append(buf[:0], g.prefix...), '-')
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], g.n.Add(1), 10)
	for i := len(d); i < 6; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// requestInfo is one request's record, allocated once per request. It
// is the ResponseWriter the handler writes to (the embedded
// statusWriter), and it holds the context the handler reads (ctx), the
// span collector the pipeline appends to and the backing arrays of the
// X-Request-Id and Content-Length header values, so none of these is an
// allocation of its own. Handlers annotate it through nil-safe setters,
// so they never guard; a mutex covers the annotations because the search
// render callback may run concurrently with nothing else but future
// readers shouldn't have to prove that.
type requestInfo struct {
	statusWriter
	ctx   requestContext
	id    string
	start time.Time
	tr    obs.Trace // span collector (pipeline steps, backend calls)

	reqIDHdr, lenHdr [1]string // header values: X-Request-Id, Content-Length

	mu      sync.Mutex
	dialect string
	outcome string // "hit" | "cold" | "canceled" for /search
	query   string // /search input
	sqlText string // top-ranked resolved statement, or /sql body
}

// requestContext is the context a request's handler sees: the inbound
// one, answering the server's key with the request record and obs's
// active-trace key with the W3C trace context bound to the record's span
// collector, with no context.WithValue node per request.
type requestContext struct {
	obs.ActiveContext
	info *requestInfo
}

func (c *requestContext) Value(key any) any {
	if key == (reqInfoKey{}) {
		return c.info
	}
	return c.ActiveContext.Value(key)
}

type reqInfoKey struct{}

// requestInfoFrom returns the request's log record, or nil for a request
// that did not pass through ServeHTTP (direct handler calls in tests).
func requestInfoFrom(r *http.Request) *requestInfo {
	info, _ := r.Context().Value(reqInfoKey{}).(*requestInfo)
	return info
}

func (i *requestInfo) setDialect(d string) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.dialect = d
	i.mu.Unlock()
}

func (i *requestInfo) setOutcome(o string) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.outcome = o
	i.mu.Unlock()
}

func (i *requestInfo) setQuery(q string) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.query = q
	i.mu.Unlock()
}

func (i *requestInfo) setSQL(sql string) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.sqlText = sql
	i.mu.Unlock()
}

// statusWriter captures the response status and body size for the
// request log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// requestLogLine is one structured request-log record. Durations are in
// microseconds — the resolution /healthz summaries already use. TraceID
// is the W3C trace id (propagated or minted), the join key across the
// fleet's request logs and /debug/requests. Steps holds the request's
// trace spans ("lookup_us", "rank_us", "backend:exec_us", …) — the
// request-scoped view of the soda_pipeline_step_seconds histograms,
// present on cold /search only.
type requestLogLine struct {
	Time      string             `json:"time"`
	RequestID string             `json:"request_id"`
	TraceID   string             `json:"trace_id,omitempty"`
	Method    string             `json:"method"`
	Path      string             `json:"path"`
	Status    int                `json:"status"`
	Bytes     int                `json:"bytes"`
	DurUs     float64            `json:"dur_us"`
	Dialect   string             `json:"dialect,omitempty"`
	Cache     string             `json:"cache,omitempty"`
	Steps     map[string]float64 `json:"steps,omitempty"`
}

// accessLogger serializes request-log lines onto one writer.
type accessLogger struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *accessLogger) write(sample *obs.FlightSample, bytes int) {
	data, err := json.Marshal(requestLogLine{
		Time:      sample.Start.UTC().Format(time.RFC3339Nano),
		RequestID: sample.RequestID,
		TraceID:   sample.TraceID,
		Method:    sample.Method,
		Path:      sample.Path,
		Status:    sample.Status,
		Bytes:     bytes,
		DurUs:     float64(sample.Dur) / float64(time.Microsecond),
		Dialect:   sample.Dialect,
		Cache:     sample.Outcome,
		Steps:     stepsUs(sample.Spans),
	})
	if err != nil {
		return // a float is always marshalable; defensive only
	}
	data = append(data, '\n')
	l.mu.Lock()
	_, _ = l.w.Write(data)
	l.mu.Unlock()
}

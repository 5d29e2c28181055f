package main

import (
	"encoding/json"
	"slices"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule;
// 0 for no samples. xs is sorted in place.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q * float64(len(xs)))
	return float64(xs[min(i, len(xs)-1)])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the three cut points of sorted xs as Python's
// statistics.quantiles(xs, n=4) computes them, which is what the driver
// uses; xs has at least two values.
func quartiles(xs []float64) [3]float64 {
	var out [3]float64
	m := len(xs)
	for i := 1; i <= 3; i++ {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		out[i-1] = (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return out
}

// Span names. A write's span follows its rung's search span, and a core
// step's follows core.search in pipeline order.
const (
	spClient = iota
	spHandle
	spHandleWrite
	spFacade
	spFacadeWrite
	spCore
	spCoreWrite
	spCoreStep // + index into coreSteps
)

var spanNames = [...]string{"client.request", "server.handle", "server.handle_write", "soda.search", "soda.search_write",
	"core.search", "core.search_write", "core.lookup", "core.rank", "core.tables", "core.filters", "core.sqlgen", "core.snippet"}

// spanParents names, per span, the span of the rung above that encloses
// it when the same request is replayed there.
var spanParents = [...]string{"", "client.request", "client.request", "server.handle", "server.handle_write",
	"soda.search", "soda.search_write", "core.search", "core.search", "core.search", "core.search", "core.search", "core.search"}

// span is one timed call into a layer. Spans of one request share req.
// It holds no pointers, so the collector never scans the spans a long
// replay piles up.
type span struct {
	name       uint8
	req        int64
	start, end int64 // ns since the traced run began
}

func (s span) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Name   string `json:"name"`
		Parent string `json:"parent,omitempty"`
		Req    int64  `json:"request"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}{spanNames[s.name], spanParents[s.name], s.req, s.start, s.end})
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run is untraced. One tracer serves
// one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) add(name int, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{uint8(name), req, int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))})
}

// durations returns the length in ns of every span called name whose
// request is below limit.
func (t *tracer) durations(name int, limit int64) []int64 {
	var out []int64
	for _, s := range t.spans {
		if int(s.name) == name && s.req < limit {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

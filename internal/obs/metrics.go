// Package obs is SODA's dependency-free observability kit: a metrics
// registry (counters, gauges, log-linear histograms) with Prometheus
// text-format exposition, a component-tagged logger, and a lightweight
// span tracer. Everything here is stdlib-only and safe for concurrent
// use; hot-path instruments (Counter.Inc, Histogram.Record) are single
// atomic operations with zero allocation.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value dimension on a metric series. Label values are
// escaped at exposition time; names must match Prometheus label-name
// syntax ([a-zA-Z_][a-zA-Z0-9_]*) — the registry does not validate them.
type Label struct {
	Name  string
	Value string
}

// Counter is a monotonically increasing counter. The zero value is ready
// to use; nil receivers are no-ops so optional instrumentation never
// needs nil checks.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1 to the counter. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n to the counter. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits representation
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// metricKind distinguishes exposition rendering. Histograms render as
// Prometheus summaries (pre-computed quantiles) because the log-linear
// bucket layout does not match Prometheus histogram bucket conventions.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// series is one (name, labels) instance of a metric family.
type series struct {
	labels []Label
	key    string // canonical label key for dedup

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // CounterFunc / GaugeFunc read-at-scrape closure
}

// family groups series sharing a metric name, HELP and TYPE.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is get-or-create: asking for the same
// name+labels again returns the existing instrument, so components can be
// re-wired (e.g. tests building several servers over one shared System)
// without double-registration panics.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order for stable exposition
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey canonicalizes labels (sorted by name) into a dedup key.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Name)
		b.WriteByte('\x00')
		b.WriteString(l.Value)
		b.WriteByte('\x00')
	}
	return b.String()
}

// getSeries finds or creates the series for name+labels, enforcing that a
// metric name keeps one kind for its lifetime.
func (r *Registry) getSeries(name, help string, kind metricKind, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
	}
	key := labelKey(labels)
	for _, s := range f.series {
		if s.key == key {
			return s
		}
	}
	s := &series{labels: append([]Label(nil), labels...), key: key}
	f.series = append(f.series, s)
	return s
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := r.getSeries(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.counter == nil {
		s.counter = &Counter{}
		s.fn = nil
	}
	return s.counter
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := r.getSeries(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gauge == nil {
		s.gauge = &Gauge{}
		s.fn = nil
	}
	return s.gauge
}

// Histogram returns the histogram for name+labels, creating it on first
// use. It is exposed as a Prometheus summary: quantile series plus
// <name>_sum (seconds) and <name>_count.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := r.getSeries(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		s.hist = &Histogram{}
	}
	return s.hist
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for surfacing counts already maintained elsewhere (e.g. the
// store's compaction count) without touching the hot path.
// Re-registering the same name+labels replaces the function.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	s := r.getSeries(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.counter = nil
	s.fn = fn
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
// Re-registering the same name+labels replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	s := r.getSeries(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.gauge = nil
	s.fn = fn
}

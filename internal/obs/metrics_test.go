package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestRegistryGetOrCreate: re-registering the same name+labels returns the
// SAME instrument (tests build several servers over one shared System),
// and distinct label sets get distinct series under one family.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("soda_test_total", "help", Label{"op", "exec"})
	b := r.Counter("soda_test_total", "help", Label{"op", "exec"})
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	c := r.Counter("soda_test_total", "help", Label{"op", "prepared"})
	if c == a {
		t.Fatal("distinct labels returned the same counter")
	}
	a.Inc()
	a.Add(2)
	if b.Value() != 3 {
		t.Fatalf("shared counter value = %d, want 3", b.Value())
	}
	h1 := r.Histogram("soda_test_seconds", "help")
	h2 := r.Histogram("soda_test_seconds", "help")
	if h1 != h2 {
		t.Fatal("histogram get-or-create broken")
	}
	g1 := r.Gauge("soda_test_gauge", "help")
	g1.Set(4.5)
	if got := r.Gauge("soda_test_gauge", "help").Value(); got != 4.5 {
		t.Fatalf("gauge value = %v, want 4.5", got)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("soda_conflict", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("soda_conflict", "help")
}

// TestExpositionGolden: the full writer output for a small registry, as a
// golden string. This is the metric-name/format stability contract — if
// this test needs editing, the CHANGES.md stability note applies.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	reqs := r.Counter("soda_search_requests_total", "Search requests by cache outcome.", Label{"outcome", "hit"})
	reqs.Add(41)
	reqs.Inc()
	r.Counter("soda_search_requests_total", "Search requests by cache outcome.", Label{"outcome", "cold"}).Inc()
	r.Gauge("soda_cache_entries", "Servable answer-cache entries.").Set(7)
	h := r.Histogram("soda_pipeline_step_seconds", "Pipeline step latency.", Label{"step", "lookup"})
	h.Record(1 * time.Millisecond)
	h.Record(1 * time.Millisecond)
	r.GaugeFunc("soda_cluster_peer_records_behind", "Feedback records behind peer.", func() float64 { return 3 }, Label{"peer", `a"b\c`})

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	// 1ms lands in bucket upper bound 1015807ns = 0.001015807s.
	want := `# HELP soda_search_requests_total Search requests by cache outcome.
# TYPE soda_search_requests_total counter
soda_search_requests_total{outcome="hit"} 42
soda_search_requests_total{outcome="cold"} 1
# HELP soda_cache_entries Servable answer-cache entries.
# TYPE soda_cache_entries gauge
soda_cache_entries 7
# HELP soda_pipeline_step_seconds Pipeline step latency.
# TYPE soda_pipeline_step_seconds summary
soda_pipeline_step_seconds{step="lookup",quantile="0.5"} 0.001015807
soda_pipeline_step_seconds{step="lookup",quantile="0.9"} 0.001015807
soda_pipeline_step_seconds{step="lookup",quantile="0.99"} 0.001015807
soda_pipeline_step_seconds_sum{step="lookup"} 0.002
soda_pipeline_step_seconds_count{step="lookup"} 2
# HELP soda_cluster_peer_records_behind Feedback records behind peer.
# TYPE soda_cluster_peer_records_behind gauge
soda_cluster_peer_records_behind{peer="a\"b\\c"} 3
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestParseRoundtrip: ParseText must read back exactly what WriteText
// emits, with label-order-independent keys.
func TestParseRoundtrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("soda_backend_exec_total", "Backend statement executions.",
		Label{"backend", "memory"}, Label{"op", "exec"}).Add(5)
	r.Histogram("soda_search_latency_seconds", "Search latency.", Label{"outcome", "hit"}).Record(100 * time.Microsecond)
	r.CounterFunc("soda_cache_hits_total", "Answer cache hits.", func() float64 { return 9 })

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	// SeriesKey sorts labels, so lookups work regardless of writer order.
	if v := got[SeriesKey("soda_backend_exec_total", Label{"op", "exec"}, Label{"backend", "memory"})]; v != 5 {
		t.Fatalf("parsed exec counter = %v, want 5", v)
	}
	if v := got[SeriesKey("soda_cache_hits_total")]; v != 9 {
		t.Fatalf("parsed func counter = %v, want 9", v)
	}
	if v := got[SeriesKey("soda_search_latency_seconds_count", Label{"outcome", "hit"})]; v != 1 {
		t.Fatalf("parsed summary count = %v, want 1", v)
	}
	if v := got[SeriesKey("soda_search_latency_seconds", Label{"outcome", "hit"}, Label{"quantile", "0.99"})]; v <= 0 {
		t.Fatalf("parsed p99 = %v, want > 0", v)
	}
}

func TestLoggerComponentTags(t *testing.T) {
	var lines []string
	l := NewLogger(func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	l.Printf("plain %d", 1)
	l.With("cluster").Printf("peer %s down", "b")
	l.With("store").With("compact").Printf("snapshot failed")
	want := []string{"plain 1", "cluster: peer b down", "store/compact: snapshot failed"}
	if len(lines) != len(want) {
		t.Fatalf("lines = %v", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace()
	tr.Add("lookup", 5*time.Millisecond)
	done := tr.Start("render")
	time.Sleep(time.Millisecond)
	done()
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "lookup" || spans[1].Name != "render" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Dur != 5*time.Millisecond {
		t.Fatalf("explicit span dur = %v", spans[0].Dur)
	}
	if spans[1].Dur <= 0 {
		t.Fatalf("timed span dur = %v", spans[1].Dur)
	}
}

// TestParseFamiliesRoundTrip: ParseText keeps every sample line of a real
// registry scrape — a summary's quantiles, _sum and _count each under
// their own series name — and reads escaped label values back exactly.
func TestParseFamiliesRoundTrip(t *testing.T) {
	r := NewRegistry()
	peer := Label{"peer", "say \"hi\"\nnow\\"}
	r.Counter("soda_requests_total", "Requests served.", peer).Add(4)
	h := r.Histogram("soda_search_seconds", "Search latency.")
	for i := 0; i < 5; i++ {
		h.Record(time.Millisecond)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1+len(summaryQuantiles)+2 {
		t.Fatalf("parsed %d series, want 1 counter plus %d quantiles, _sum and _count: %v",
			len(got), len(summaryQuantiles), got)
	}
	if v, ok := got[SeriesKey("soda_requests_total", peer)]; !ok || v != 4 {
		t.Fatalf("escaped counter %v = %v (present %v), want 4", peer, v, ok)
	}
	if v := got[SeriesKey("soda_search_seconds_count")]; v != 5 {
		t.Fatalf("summary _count = %v, want 5", v)
	}
	if v := got[SeriesKey("soda_search_seconds_sum")]; v != 0.005 {
		t.Fatalf("summary _sum = %v, want 0.005", v)
	}
}

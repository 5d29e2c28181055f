package invidx_test

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"soda/internal/invidx"
	"soda/internal/metagraph"
	"soda/internal/warehouse"
)

// unbakedPhrases returns multi-word phrases that Hits answers by
// intersecting at query time, up to 100 of each kind: the warehouse's
// multi-word metadata labels that are no stored value (Warm's label pass
// asks each of them; most match nothing), and stored values written in
// reverse, which match the same cells but are no stored value
// themselves.
func unbakedPhrases(idx *invidx.Index, meta *metagraph.Graph) []string {
	var out []string
	for _, l := range meta.Labels() {
		if strings.Contains(l, " ") && !idx.ContainsExact(l) && len(out) < 100 {
			out = append(out, l)
		}
	}
	labels := len(out)
	for _, v := range invidx.StoredValues(idx) {
		words := strings.Fields(v)
		if len(words) < 2 {
			continue
		}
		slices.Reverse(words)
		if ph := strings.Join(words, " "); !idx.ContainsExact(ph) {
			out = append(out, ph)
		}
		if len(out) >= labels+100 {
			break
		}
	}
	return out
}

// TestUnbakedHitsAllocs holds the query-time branch of Hits to what it
// allocated before the bake became output-sensitive: no more allocations
// and no more bytes per call. Scratch sized to the whole index (a stamp
// per raw value) would cost every call tens of kilobytes and fail the
// bytes bound.
func TestUnbakedHitsAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the warehouse world")
	}
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	w := warehouse.Build(warehouse.Default())
	phrases := unbakedPhrases(w.Index, w.Meta)
	if len(phrases) < 150 {
		t.Fatalf("only %d unbaked phrases", len(phrases))
	}
	matched := 0
	for _, ph := range phrases {
		if len(w.Index.Hits(ph)) > 0 {
			matched++
		}
	}
	if matched < 100 {
		t.Fatalf("only %d of %d unbaked phrases match", matched, len(phrases))
	}
	call := func() {
		for _, ph := range phrases {
			w.Index.Hits(ph)
		}
	}
	allocs := testing.AllocsPerRun(5, call) / float64(len(phrases))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	call()
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(phrases))
	t.Logf("%d phrases: %.1f allocs and %.0f bytes per call", len(phrases), allocs, bytes)
	// Measured over the same phrases on the bake before it became
	// output-sensitive, where this branch built a grouper of two maps
	// keyed by (column, raw value) strings per call.
	const parentAllocs, parentBytes = 9, 594
	if allocs > parentAllocs {
		t.Errorf("%.1f allocs per call, want at most %d", allocs, parentAllocs)
	}
	if bytes > parentBytes {
		t.Errorf("%.0f bytes per call, want at most %d", bytes, parentBytes)
	}
}

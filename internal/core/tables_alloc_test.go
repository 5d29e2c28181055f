//go:build !race

// The race detector instruments allocations, so these guards only run in
// non-race builds.

package core

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"soda/internal/backend/memory"
	"soda/internal/warehouse"
	"soda/internal/workload"
)

// TestTablesViewAllocs guards what the discovery view (Figure 6) costs on
// the warehouse, where it runs to hundreds of tables. Writing a
// solution's "tables" list copies pre-quoted names and allocates nothing.
// Step 3 keeps the view as table IDs in one slab, so a solution with 100
// or more view tables allocates no more objects than one with at most 5,
// and its view costs one int32 slab: 4 bytes a table before the
// allocator rounds the slab up. A view of names costs 16 bytes a table in
// string headers alone.
func TestTablesViewAllocs(t *testing.T) {
	w := warehouse.Build(warehouse.Default())
	sys := NewSystem(memory.New(w.DB), w.Meta, w.Index, Options{CacheSize: -1})
	sys.Warm()
	// Both solutions have anchors, FROM tables and joins, so each list's
	// slab is allocated for either.
	var big, small *Solution
	for _, q := range workload.New(w.Meta, w.Index, 20120827).Queries(500) {
		a, err := sys.Search(q)
		if err != nil {
			t.Fatalf("Search(%q): %v", q, err)
		}
		for _, sol := range a.Solutions {
			if len(sol.Primaries) == 0 || len(sol.Joins) == 0 {
				continue
			}
			if n := len(sol.tables); n >= 100 && big == nil {
				big = sol
			} else if n <= 5 && small == nil {
				small = sol
			}
		}
	}
	if big == nil || small == nil {
		t.Fatal("the corpus has no solution with >= 100 view tables, or none with <= 5")
	}

	buf := make([]byte, 0, 64<<10)
	if n := testing.AllocsPerRun(100, func() { buf = big.AppendTablesJSON(buf[:0]) }); n != 0 {
		t.Errorf("writing %d view tables allocates %.1f times, want 0", len(big.tables), n)
	}

	var sol Solution
	batch := []*Solution{&sol}
	step := func(src *Solution) func() {
		return func() {
			sol = Solution{Entries: src.Entries}
			sys.tablesStep(batch)
		}
	}
	bigObjs, smallObjs := testing.AllocsPerRun(100, step(big)), testing.AllocsPerRun(100, step(small))
	if bigObjs > smallObjs {
		t.Errorf("Step 3 allocates %.1f objects for %d view tables, %.1f for %d", bigObjs, len(big.tables), smallObjs, len(small.tables))
	}

	// The fewest bytes of 20 single runs: a GC may empty the scratch pool
	// before any one of them.
	run := step(big)
	var m0, m1 runtime.MemStats
	bytes := ^uint64(0)
	for range 20 {
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)
		bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
	}
	lists := slabBytes[string](len(sol.Primaries)+len(sol.SQLTables)) + slabBytes[Join](len(sol.Joins))
	view := int(bytes) - lists
	t.Logf("Step 3: %d bytes, %d of them for %d view tables (%.2f a table)", bytes, view, len(sol.tables), float64(view)/float64(len(sol.tables)))
	if view > slabBytes[int32](len(sol.tables)) {
		t.Errorf("the view of %d tables costs %d bytes (%.2f a table), want one int32 slab (%d bytes)",
			len(sol.tables), view, float64(view)/float64(len(sol.tables)), slabBytes[int32](len(sol.tables)))
	}
}

// slabBytes returns what the allocator hands out for a slice of n T's: n
// elements rounded up to its size class.
func slabBytes[T any](n int) int {
	var zero T
	return cap(slices.Grow([]T(nil), n)) * int(unsafe.Sizeof(zero))
}

package core

import (
	"fmt"
	"slices"
	"testing"

	"soda/internal/backend/memory"
	"soda/internal/warehouse"
)

// TestColdSearchAllocs holds the cold pipeline to an allocation budget: a
// warehouse search with the answer cache off and the default Parallelism
// sizes Step 3's outputs once per search and Steps 2, 4 and 5's once per
// solution, and runs Steps 3-5 on the calling goroutine, so the corpus
// averages at most 120 allocations a search (~66 on 2 vCPUs). Fanning Steps 3-5 out to a worker pool again
// and growing their outputs element by element reads ~150.
func TestColdSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const budget = 120
	w := warehouse.Build(warehouse.Default())
	sys := NewSystem(memory.New(w.DB), w.Meta, w.Index, Options{CacheSize: -1})
	sys.Warm()
	for _, q := range warehouseBenchQueries {
		if _, err := sys.Search(q); err != nil {
			t.Fatalf("Search(%q): %v", q, err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(20*len(warehouseBenchQueries), func() {
		if _, err := sys.Search(warehouseBenchQueries[i%len(warehouseBenchQueries)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("cold warehouse search: %.1f allocs", avg)
	if avg > budget {
		t.Errorf("cold warehouse search allocates %.1f times, budget %d", avg, budget)
	}
}

// TestSolutionSlicesIndependent checks that no appendable slice of a
// solution shares its backing array with another slice: Steps 2-5 carve
// each solution's slices out of slabs, and ensureTable appends to
// SQLTables and Joins after the fact, so an uncapped window would let one
// append overwrite a neighbour's elements, in the same solution or the
// next. The aggregate queries make ensureTable grow the slices.
func TestSolutionSlicesIndependent(t *testing.T) {
	w := warehouse.Build(warehouse.Default())
	worlds := []struct {
		name string
		sys  *System
		qs   []string
	}{
		{"minibank", newSys(t, Options{CacheSize: -1}), append(slices.Clone(determinismQueries),
			"top 10 trading volume customer",
			"count (transactions) group by (currency)")},
		{"warehouse", NewSystem(memory.New(w.DB), w.Meta, w.Index, Options{CacheSize: -1}), warehouseBenchQueries},
	}
	for _, c := range worlds {
		for _, q := range c.qs {
			a, err := c.sys.Search(q)
			if err != nil {
				t.Fatalf("%s: Search(%q): %v", c.name, q, err)
			}
			want := make([]string, len(a.Solutions))
			for i, sol := range a.Solutions {
				want[i] = sliceTrace(sol)
			}
			for i, sol := range a.Solutions {
				clone := &Solution{Entries: slices.Clone(sol.Entries), tables: slices.Clone(sol.tables), catalog: sol.catalog,
					Primaries: slices.Clone(sol.Primaries), SQLTables: slices.Clone(sol.SQLTables), Joins: slices.Clone(sol.Joins)}
				poison(clone)
				poison(sol)
				want[i] = sliceTrace(clone)
				for j, other := range a.Solutions {
					if got := sliceTrace(other); got != want[j] {
						t.Fatalf("%s %q: appending to solution %d left solution %d as\n%s\nwant\n%s", c.name, q, i, j, got, want[j])
					}
				}
			}
		}
	}
}

// poison appends one marker element to each appendable slice of sol.
func poison(sol *Solution) {
	sol.Entries = append(sol.Entries, EntryPoint{Table: "poison", Column: "poison"})
	sol.tables = append(sol.tables, 0)
	sol.Primaries = append(sol.Primaries, "poison")
	sol.SQLTables = append(sol.SQLTables, "poison")
	sol.Joins = append(sol.Joins, Join{LeftTable: "poison", Via: "poison"})
}

// sliceTrace renders the slices TestSolutionSlicesIndependent appends to.
func sliceTrace(sol *Solution) string {
	return fmt.Sprintf("entries=%v tables=%v primaries=%v sqlTables=%v joins=%v",
		sol.Entries, sol.TableNames(), sol.Primaries, sol.SQLTables, sol.Joins)
}

package core

import (
	"testing"

	"soda/internal/backend/memory"
	"soda/internal/queryparse"
	"soda/internal/warehouse"
)

// Cold-path benchmarks per corpus: BenchmarkWarm times the one-time build
// of the derived structures on a fresh System (the cost kept out of the
// queries), BenchmarkLookupStep times Step 1 in isolation over the corpus
// queries, BenchmarkTablesStep times Step 3 over the entry sets the real
// pipeline produces, BenchmarkColdSearch times the whole pipeline with
// the answer cache disabled. All report allocs/op — a cold search should
// allocate O(result), not O(graph) or O(index).

// warehouseBenchQueries mirrors the eval corpus inputs (the eval package
// sits above core, so the strings are pinned here).
var warehouseBenchQueries = []string{
	"private customers family name",
	"Sara given name",
	"Credit Suisse",
	"gold agreement",
	"trade order period > date(2011-09-01)",
	"YEN trade order",
	"select count() private customers Switzerland",
	"sum (investments) group by (currency)",
}

// benchCorpus is one corpus prepared for the step benchmarks: a warm
// cache-disabled sequential System plus the per-query solutions.
type benchCorpus struct {
	sys  *System
	sols []*Solution
	qs   []string
}

func prepCorpus(b *testing.B, sys *System, queries []string) *benchCorpus {
	b.Helper()
	sys.Warm()
	bc := &benchCorpus{sys: sys, qs: queries}
	for _, q := range queries {
		a, err := sys.Search(q)
		if err != nil {
			b.Fatalf("Search(%q): %v", q, err)
		}
		bc.sols = append(bc.sols, a.Solutions...)
	}
	if len(bc.sols) == 0 {
		b.Fatal("no solutions to benchmark")
	}
	return bc
}

func benchCorpora(b *testing.B, run func(b *testing.B, bc *benchCorpus)) {
	b.Run("minibank", func(b *testing.B) {
		sys := NewSystem(memory.New(world.DB), world.Meta, world.Index, Options{CacheSize: -1, Parallelism: 1})
		run(b, prepCorpus(b, sys, determinismQueries))
	})
	b.Run("warehouse", func(b *testing.B) {
		w := warehouse.Build(warehouse.Default())
		sys := NewSystem(memory.New(w.DB), w.Meta, w.Index, Options{CacheSize: -1, Parallelism: 1})
		run(b, prepCorpus(b, sys, warehouseBenchQueries))
	})
}

func BenchmarkLookupStep(b *testing.B) {
	benchCorpora(b, func(b *testing.B, bc *benchCorpus) {
		qs := make([]*queryparse.Query, len(bc.qs))
		for i, q := range bc.qs {
			var err error
			if qs[i], err = queryparse.Parse(q); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bc.sys.lookup(&Analysis{Query: qs[i%len(qs)], ranking: bc.sys.ranking.Load()})
		}
	})
}

func BenchmarkTablesStep(b *testing.B) {
	benchCorpora(b, func(b *testing.B, bc *benchCorpus) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src := bc.sols[i%len(bc.sols)]
			sol := &Solution{Entries: src.Entries}
			bc.sys.tablesStep([]*Solution{sol})
		}
	})
}

func BenchmarkColdSearch(b *testing.B) {
	benchCorpora(b, func(b *testing.B, bc *benchCorpus) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := bc.sys.Search(bc.qs[i%len(bc.qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWarm(b *testing.B) {
	run := func(b *testing.B, newSys func() *System) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			newSys().Warm()
		}
	}
	b.Run("minibank", func(b *testing.B) {
		run(b, func() *System {
			return NewSystem(memory.New(world.DB), world.Meta, world.Index, Options{CacheSize: -1, Parallelism: 1})
		})
	})
	b.Run("warehouse", func(b *testing.B) {
		w := warehouse.Build(warehouse.Default())
		b.ResetTimer()
		run(b, func() *System {
			return NewSystem(memory.New(w.DB), w.Meta, w.Index, Options{CacheSize: -1, Parallelism: 1})
		})
	})
}

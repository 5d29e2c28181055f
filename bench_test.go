package soda

// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the domain-specific measurements (precision,
// recall, complexity, row counts) as custom metrics next to ns/op, so one
// bench run reproduces the numbers EXPERIMENTS.md discusses.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"soda/internal/backend/memory"
	"soda/internal/baseline"
	"soda/internal/bench"
	"soda/internal/core"
	"soda/internal/eval"
	"soda/internal/invidx"
	"soda/internal/warehouse"
	"soda/internal/workload"
)

var (
	envOnce sync.Once
	env     *bench.Env
)

func sharedEnv() *bench.Env {
	envOnce.Do(func() {
		env = bench.NewEnv()
		env.WHSys.Warm()
		env.MBSys.Warm()
	})
	return env
}

// BenchmarkTable1SchemaGraph regenerates the schema-graph complexity
// numbers: it measures full warehouse construction (metadata graph +
// base data + inverted index) and asserts the Table 1 cardinalities.
func BenchmarkTable1SchemaGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := warehouse.Build(warehouse.Default())
		s := w.Meta.Stats()
		if s.PhysicalTables != 472 || s.PhysicalColumns != 3181 ||
			s.ConceptEntities != 226 || s.LogicalEntities != 436 {
			b.Fatalf("Table 1 cardinalities off: %+v", s)
		}
		b.ReportMetric(float64(s.Triples), "triples")
		b.ReportMetric(float64(w.Index.NumPostings()), "postings")
	}
}

// BenchmarkTable3PrecisionRecall runs the full 13-query evaluation and
// reports mean best precision/recall (the Table 3 summary).
func BenchmarkTable3PrecisionRecall(b *testing.B) {
	e := sharedEnv()
	for i := 0; i < b.N; i++ {
		reports, err := eval.EvaluateAll(e.WHSys, eval.Corpus())
		if err != nil {
			b.Fatal(err)
		}
		var p, r float64
		for _, rep := range reports {
			p += rep.Best.Precision
			r += rep.Best.Recall
		}
		n := float64(len(reports))
		b.ReportMetric(p/n, "meanP")
		b.ReportMetric(r/n, "meanR")
	}
}

// BenchmarkTable4 benchmarks each experiment query's SODA pipeline
// (sub-benchmark "soda") and end-to-end execution including the generated
// SQL (sub-benchmark "total") — the two columns of Table 4.
func BenchmarkTable4(b *testing.B) {
	e := sharedEnv()
	for _, q := range eval.Corpus() {
		q := q
		b.Run("Q"+q.ID+"/soda", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := e.WHSys.Search(q.Input)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(a.Complexity), "complexity")
				b.ReportMetric(float64(len(a.Solutions)), "results")
			}
		})
		b.Run("Q"+q.ID+"/total", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := e.WHSys.Search(q.Input)
				if err != nil {
					b.Fatal(err)
				}
				rows := 0
				for _, sol := range a.Solutions {
					if sol.SQL == nil {
						continue
					}
					res, err := e.WHSys.Execute(context.Background(), sol)
					if err == nil {
						rows += res.NumRows()
					}
				}
				b.ReportMetric(float64(rows), "rows")
			}
		})
	}
}

// BenchmarkTable5Baselines measures the capability matrix construction:
// all six systems across all thirteen queries.
func BenchmarkTable5Baselines(b *testing.B) {
	e := sharedEnv()
	for i := 0; i < b.N; i++ {
		m, err := e.Table5()
		if err != nil {
			b.Fatal(err)
		}
		yes := 0
		for _, s := range m.Systems {
			for _, qt := range m.Types {
				if m.Cells[s][qt].Support == baseline.SupportYes {
					yes++
				}
			}
		}
		b.ReportMetric(float64(yes), "fullSupportCells")
	}
}

// BenchmarkFigure5Lookup benchmarks step 1+2 classification of the
// Figure 5 query on the mini-bank.
func BenchmarkFigure5Lookup(b *testing.B) {
	e := sharedEnv()
	for i := 0; i < b.N; i++ {
		a, err := e.MBSys.Search(bench.Figure5Query)
		if err != nil {
			b.Fatal(err)
		}
		if a.Complexity != 2 {
			b.Fatalf("complexity = %d, want 2", a.Complexity)
		}
	}
}

// BenchmarkFigure6Tables benchmarks the tables step output (the seven
// tables of Figure 6).
func BenchmarkFigure6Tables(b *testing.B) {
	e := sharedEnv()
	for i := 0; i < b.N; i++ {
		tables, err := e.Figure6Tables()
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) != 7 {
			b.Fatalf("tables = %v, want the 7 of Figure 6", tables)
		}
	}
}

// BenchmarkPatternMatching benchmarks the Figure 7/8 pattern machinery:
// a full search whose tables step exercises the Table, Column and
// Inheritance Child patterns across the warehouse graph.
func BenchmarkPatternMatching(b *testing.B) {
	e := sharedEnv()
	sys := core.NewSystem(memory.New(e.Warehouse.DB), e.Warehouse.Meta, e.Warehouse.Index, core.Options{})
	sys.Warm()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Search("trade order"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations runs the design-choice ablation suite.
func BenchmarkAblations(b *testing.B) {
	e := sharedEnv()
	for i := 0; i < b.N; i++ {
		rows, err := e.Ablations()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) < 6 {
			b.Fatalf("ablations = %d", len(rows))
		}
	}
}

// BenchmarkSearchMiniBank measures steady-state search latency on the
// small world (the interactive use case of §1.2).
func BenchmarkSearchMiniBank(b *testing.B) {
	e := sharedEnv()
	queries := []string{
		"Sara Guttinger",
		"wealthy customers",
		"customers Zürich financial instruments",
		"sum (amount) group by (transaction date)",
	}
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, err := e.MBSys.Search(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnippetSearch measures cold searches that execute their
// statements for snippets, the paper's second cost: the MiniBank workload
// queries of TestExecRowsGolden, answer cache off, so every op runs the
// five steps and then each ranked statement with the 20-row cap.
func BenchmarkSnippetSearch(b *testing.B) {
	w := MiniBank()
	sys := NewSystem(w, Options{CacheSize: -1})
	sys.Warm()
	queries := workload.New(w.Meta(), w.Index(), execRowsGoldenSeed).Queries(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.SearchWith(queries[i%len(queries)], SearchOptions{Snippets: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchWarehouse measures steady-state search latency on the
// 472-table warehouse (the "SODA runtimes between 0.73 and 7.31 seconds"
// scale test of Table 4 — our in-memory substrate is faster, the point is
// sub-linear behaviour in schema size).
func BenchmarkSearchWarehouse(b *testing.B) {
	e := sharedEnv()
	queries := []string{
		"private customers family name",
		"Credit Suisse",
		"YEN trade order",
		"sum (investments) group by (currency)",
	}
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, err := e.WHSys.Search(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentSearch measures the serving-layer hot path on the
// 472-table warehouse: the query pipeline run by one client, and by many
// concurrent client goroutines sharing one System — the daemon's
// production shape. Caching is disabled so every iteration pays the full
// pipeline.
func BenchmarkConcurrentSearch(b *testing.B) {
	e := sharedEnv()
	const query = "YEN trade order"
	mkSys := func() *core.System {
		sys := core.NewSystem(memory.New(e.Warehouse.DB), e.Warehouse.Meta, e.Warehouse.Index,
			core.Options{CacheSize: -1})
		sys.Warm()
		return sys
	}
	b.Run("sequential", func(b *testing.B) {
		sys := mkSys()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Search(query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("clients", func(b *testing.B) {
		sys := mkSys()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := sys.Search(query); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkCachedSearch compares a cold pipeline run against the answer
// cache serving the same repeated query — the daemon's steady state for
// hot queries. The cached path must be orders of magnitude faster.
func BenchmarkCachedSearch(b *testing.B) {
	e := sharedEnv()
	const query = "YEN trade order"
	b.Run("cold", func(b *testing.B) {
		sys := core.NewSystem(memory.New(e.Warehouse.DB), e.Warehouse.Meta, e.Warehouse.Index,
			core.Options{CacheSize: -1})
		sys.Warm()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Search(query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		sys := core.NewSystem(memory.New(e.Warehouse.DB), e.Warehouse.Meta, e.Warehouse.Index,
			core.Options{})
		sys.Warm()
		if _, err := sys.Search(query); err != nil {
			b.Fatal(err) // populate the cache
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Search(query); err != nil {
				b.Fatal(err)
			}
		}
		st := sys.CacheStats()
		b.ReportMetric(float64(st.Hits), "hits")
	})
}

// BenchmarkSearchJSONCold measures the cold /search body on the warehouse:
// the workload corpus of the serving benchmark's population seed, each
// query in the four dialects in turn, answer cache off, so every op parses,
// runs the five steps and renders the JSON body. body-B/op is the mean
// body size, which the renderer must not change.
func BenchmarkSearchJSONCold(b *testing.B) {
	w := Warehouse(WarehouseConfig{})
	sys := NewSystem(w, Options{CacheSize: -1})
	sys.Warm()
	queries := workload.New(w.Meta(), w.Index(), 20120827).Queries(1000)
	dialects := Dialects()
	ctx := context.Background()
	body := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := SearchOptions{Dialect: dialects[i%len(dialects)]}
		data, _, err := sys.SearchJSONContext(ctx, queries[(i/len(dialects))%len(queries)], opts, nil)
		if err != nil {
			b.Fatal(err)
		}
		body += len(data)
	}
	b.ReportMetric(float64(body)/float64(b.N), "body-B/op")
}

// BenchmarkInvertedIndexBuild measures index construction over the
// warehouse base data (the paper's 24-hour single-core build, scaled to
// the synthetic volume).
func BenchmarkInvertedIndexBuild(b *testing.B) {
	e := sharedEnv()
	for i := 0; i < b.N; i++ {
		idx := rebuildIndex(e)
		if idx == 0 {
			b.Fatal("empty index")
		}
	}
}

func rebuildIndex(e *bench.Env) int {
	// Rebuild from the existing DB only (no graph regeneration).
	return invidx.Build(e.Warehouse.DB).NumPostings()
}

// BenchmarkSyntheticWorkload measures steady-state throughput on the
// §5.1.3-style synthetic workload (the corner-case generator) against the
// warehouse.
func BenchmarkSyntheticWorkload(b *testing.B) {
	e := sharedEnv()
	gen := workload.New(e.Warehouse.Meta, e.Warehouse.Index, 99)
	queries := gen.Queries(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.WHSys.Search(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleOrders sweeps the warehouse fact-table volume and measures
// search and end-to-end times per scale — the Table 4 claim that SODA's
// analysis cost depends on the metadata, not the data volume ("the
// remaining steps are all linear in the size of the meta-data", §5.2.2),
// while execution cost grows with the data.
func BenchmarkScaleOrders(b *testing.B) {
	for _, orders := range []int{1000, 4000, 16000} {
		cfg := warehouse.Default()
		cfg.Orders = orders
		w := warehouse.Build(cfg)
		sys := core.NewSystem(memory.New(w.DB), w.Meta, w.Index, core.Options{})
		sys.Warm()
		b.Run(fmt.Sprintf("orders=%d/soda", orders), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sys.Search("YEN trade order"); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("orders=%d/total", orders), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := sys.Search("YEN trade order")
				if err != nil {
					b.Fatal(err)
				}
				for _, sol := range a.Solutions {
					if sol.SQL == nil {
						continue
					}
					if _, err := sys.Execute(context.Background(), sol); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

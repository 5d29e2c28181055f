package bench

// Latency SLO bench: measures /search service time at the core layer —
// the cache-hit rendered path and the cold five-step pipeline — as
// percentiles against the stated SLO (p99 < 1ms cache-hit, < 20ms cold on
// the warehouse corpus). cmd/sodabench -latency renders the result as
// BENCH_search.json, the committed trajectory every future PR has to
// beat; CI re-measures and flags >25% p99 regressions (advisory, the
// shared runners are noisy).

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"soda/internal/backend/memory"
	"soda/internal/core"
	"soda/internal/eval"
	"soda/internal/minibank"
	"soda/internal/obs"
	"soda/internal/warehouse"
)

// The serving SLO (ISSUE 6): repeated queries must be interactive-fast,
// cold pipeline runs merely fast.
const (
	HitSLOP99  = time.Millisecond
	ColdSLOP99 = 20 * time.Millisecond
)

// LatencyConfig sizes the measurement.
type LatencyConfig struct {
	// HitRounds is how many cache-hit samples to take per query
	// (default 300).
	HitRounds int
	// ColdRounds is how many full-pipeline samples to take per query
	// (default 15; each runs the five steps from scratch).
	ColdRounds int
}

func (c LatencyConfig) withDefaults() LatencyConfig {
	if c.HitRounds <= 0 {
		c.HitRounds = 300
	}
	if c.ColdRounds <= 0 {
		c.ColdRounds = 15
	}
	return c
}

// LatencyPercentiles summarises one sample set in microseconds.
type LatencyPercentiles struct {
	Samples int     `json:"samples"`
	P50Us   float64 `json:"p50_us"`
	P90Us   float64 `json:"p90_us"`
	P99Us   float64 `json:"p99_us"`
	MaxUs   float64 `json:"max_us"`
}

// StepLatency is one pipeline step's distribution across the cold
// rounds, read from the cold system's soda_pipeline_step_seconds
// histograms — it breaks the cold p99 down into where the time goes.
// AllocsPerOp is the step's steady-state heap allocations per cold
// search (per-query minimum over a few counted runs, averaged across
// the workload), measured in a separate pass so the stop-the-world
// MemStats reads never touch the timed samples.
type StepLatency struct {
	Step        string  `json:"step"`
	Count       uint64  `json:"count"`
	P50Us       float64 `json:"p50_us"`
	P99Us       float64 `json:"p99_us"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// CorpusLatency is one corpus's hit and cold distributions plus the SLO
// verdicts.
type CorpusLatency struct {
	Corpus   string             `json:"corpus"`
	Queries  int                `json:"queries"`
	Hit      LatencyPercentiles `json:"hit"`
	Cold     LatencyPercentiles `json:"cold"`
	Steps    []StepLatency      `json:"steps,omitempty"`
	HitPass  bool               `json:"hit_pass"`
	ColdPass bool               `json:"cold_pass"`
}

// LatencyReport is the BENCH_search.json shape.
type LatencyReport struct {
	SLO struct {
		HitP99Us  float64 `json:"hit_p99_us"`
		ColdP99Us float64 `json:"cold_p99_us"`
	} `json:"slo"`
	Corpora []CorpusLatency `json:"corpora"`
	Pass    bool            `json:"pass"`
}

// minibankLatencyQueries is the repeated-query workload for the mini-bank
// corpus (the README's running examples).
func minibankLatencyQueries() []string {
	return []string{
		"customer",
		"wealthy customers",
		"customers Zürich",
		"customers Zürich financial instruments",
		"transactions",
		"Sara Guttinger",
		"salary >= 100000",
		"sum (amount) group by (transaction date)",
	}
}

// warehouseLatencyQueries is the repeated-query workload for the
// synthetic warehouse: the Table 2 experiment inputs, deduplicated (the
// corpus repeats an input across ambiguity variants).
func warehouseLatencyQueries() []string {
	var qs []string
	seen := make(map[string]bool)
	for _, q := range eval.Corpus() {
		if seen[q.Input] {
			continue
		}
		seen[q.Input] = true
		qs = append(qs, q.Input)
	}
	return qs
}

// MeasureSearchLatency builds both corpora and measures each against the
// SLO.
func MeasureSearchLatency(cfg LatencyConfig) (*LatencyReport, error) {
	cfg = cfg.withDefaults()
	rep := &LatencyReport{}
	rep.SLO.HitP99Us = float64(HitSLOP99) / 1e3
	rep.SLO.ColdP99Us = float64(ColdSLOP99) / 1e3

	mb := minibank.Build(minibank.Default())
	mbc, err := MeasureCorpusLatency("minibank",
		core.NewSystem(memory.New(mb.DB), mb.Meta, mb.Index, core.Options{}),
		core.NewSystem(memory.New(mb.DB), mb.Meta, mb.Index, core.Options{CacheSize: -1}),
		minibankLatencyQueries(), cfg)
	if err != nil {
		return nil, err
	}

	wh := warehouse.Build(warehouse.Default())
	whc, err := MeasureCorpusLatency("warehouse",
		core.NewSystem(memory.New(wh.DB), wh.Meta, wh.Index, core.Options{}),
		core.NewSystem(memory.New(wh.DB), wh.Meta, wh.Index, core.Options{CacheSize: -1}),
		warehouseLatencyQueries(), cfg)
	if err != nil {
		return nil, err
	}

	rep.Corpora = []CorpusLatency{mbc, whc}
	rep.Pass = true
	for _, c := range rep.Corpora {
		if !c.HitPass || !c.ColdPass {
			rep.Pass = false
		}
	}
	return rep, nil
}

// renderLatencyAnswer is the render step the hit path amortises away: a
// compact JSON encoding of the ranked statements, standing in for the
// server's response encode.
func renderLatencyAnswer(a *core.Analysis) ([]byte, error) {
	type result struct {
		SQL   string  `json:"sql"`
		Score float64 `json:"score"`
	}
	out := struct {
		Complexity int      `json:"complexity"`
		Results    []result `json:"results"`
	}{Complexity: a.Complexity}
	for _, sol := range a.Solutions {
		if sql := sol.SQLText(); sql != "" {
			out.Results = append(out.Results, result{SQL: sql, Score: sol.Score})
		}
	}
	return json.Marshal(&out)
}

// MeasureCorpusLatency measures one corpus: hitSys serves the cache-hit
// rendered path (each query is primed once, then timed repeatedly),
// coldSys — built with caching disabled — pays the full pipeline on every
// call.
func MeasureCorpusLatency(name string, hitSys, coldSys *core.System, queries []string, cfg LatencyConfig) (CorpusLatency, error) {
	cfg = cfg.withDefaults()
	hitSys.Warm()
	coldSys.Warm()
	ctx := context.Background()
	for _, q := range queries {
		if _, hit, err := hitSys.SearchRenderedContext(ctx, q, core.SearchOptions{}, renderLatencyAnswer); err != nil {
			return CorpusLatency{}, fmt.Errorf("bench: priming %q: %w", q, err)
		} else if hit {
			return CorpusLatency{}, fmt.Errorf("bench: %q already cached before priming", q)
		}
	}

	hits := make([]time.Duration, 0, cfg.HitRounds*len(queries))
	for r := 0; r < cfg.HitRounds; r++ {
		for _, q := range queries {
			t0 := time.Now()
			_, hit, err := hitSys.SearchRenderedContext(ctx, q, core.SearchOptions{}, renderLatencyAnswer)
			d := time.Since(t0)
			if err != nil {
				return CorpusLatency{}, err
			}
			if !hit {
				return CorpusLatency{}, fmt.Errorf("bench: %q missed the cache after priming", q)
			}
			hits = append(hits, d)
		}
	}

	colds := make([]time.Duration, 0, cfg.ColdRounds*len(queries))
	for r := 0; r < cfg.ColdRounds; r++ {
		for _, q := range queries {
			t0 := time.Now()
			if _, err := coldSys.Search(q); err != nil {
				return CorpusLatency{}, err
			}
			colds = append(colds, time.Since(t0))
		}
	}

	c := CorpusLatency{
		Corpus:  name,
		Queries: len(queries),
		Hit:     summarise(hits),
		Cold:    summarise(colds),
		Steps:   stepLatencies(coldSys),
	}
	// Allocation pass last: it re-runs the workload with CountAllocs on,
	// which pays two ReadMemStats stop-the-worlds per step — the timed
	// samples and the step histograms above are already banked.
	allocs, err := measureStepAllocs(coldSys, queries)
	if err != nil {
		return CorpusLatency{}, err
	}
	for i := range c.Steps {
		c.Steps[i].AllocsPerOp = allocs[c.Steps[i].Step]
	}
	c.HitPass = c.Hit.P99Us <= float64(HitSLOP99)/1e3
	c.ColdPass = c.Cold.P99Us <= float64(ColdSLOP99)/1e3
	return c, nil
}

// measureStepAllocs runs each query a few times with per-step allocation
// counting enabled and returns, per step, the mean across queries of the
// per-query minimum — the steady-state heap cost of a cold search with
// warm memos, with GC-timing noise minimised by the min.
func measureStepAllocs(sys *core.System, queries []string) (map[string]float64, error) {
	const rounds = 3
	if len(queries) == 0 {
		return nil, nil
	}
	totals := make(map[string]float64)
	for _, q := range queries {
		mins := make(map[string]uint64)
		for r := 0; r < rounds; r++ {
			a, err := sys.SearchWith(q, core.SearchOptions{CountAllocs: true})
			if err != nil {
				return nil, fmt.Errorf("bench: alloc pass %q: %w", q, err)
			}
			for step, n := range a.StepAllocs {
				if have, ok := mins[step]; !ok || n < have {
					mins[step] = n
				}
			}
		}
		for step, n := range mins {
			totals[step] += float64(n)
		}
	}
	for step := range totals {
		totals[step] /= float64(len(queries))
	}
	return totals, nil
}

// stepLatencies reads the per-step breakdown of the cold rounds out of
// the system's own pipeline-step histograms (the same instruments GET
// /metrics exposes).
func stepLatencies(sys *core.System) []StepLatency {
	reg := sys.MetricsRegistry()
	var out []StepLatency
	for _, step := range []string{"lookup", "rank", "tables", "filters", "sqlgen"} {
		h := reg.Histogram("soda_pipeline_step_seconds",
			"Pipeline step latency by step (lookup/rank/tables/filters/sqlgen/snippet).",
			obs.Label{Name: "step", Value: step})
		s := h.Summary()
		out = append(out, StepLatency{Step: step, Count: s.Count, P50Us: s.P50Us, P99Us: s.P99Us})
	}
	return out
}

// summarise sorts the samples and reads the percentiles off directly
// (nearest-rank).
func summarise(samples []time.Duration) LatencyPercentiles {
	if len(samples) == 0 {
		return LatencyPercentiles{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := func(q float64) float64 {
		i := int(q*float64(len(samples))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(samples) {
			i = len(samples) - 1
		}
		return float64(samples[i]) / 1e3
	}
	return LatencyPercentiles{
		Samples: len(samples),
		P50Us:   rank(0.50),
		P90Us:   rank(0.90),
		P99Us:   rank(0.99),
		MaxUs:   float64(samples[len(samples)-1]) / 1e3,
	}
}

// CompareLatency lists the p99 regressions of cur against base beyond
// frac (0.25 = fail on >25% growth): cache-hit p99, cold p99, and the
// cold `tables` step p99 specifically — Step 3 is the cold path's
// dominant cost and must not quietly regrow after being precomputed
// away. Corpora present only on one side are ignored — the workload
// changed, there is nothing to compare.
func CompareLatency(base, cur *LatencyReport, frac float64) []string {
	byName := make(map[string]CorpusLatency, len(base.Corpora))
	for _, c := range base.Corpora {
		byName[c.Corpus] = c
	}
	stepP99 := func(c CorpusLatency, name string) float64 {
		for _, s := range c.Steps {
			if s.Step == name {
				return s.P99Us
			}
		}
		return 0
	}
	var regressions []string
	for _, c := range cur.Corpora {
		b, ok := byName[c.Corpus]
		if !ok {
			continue
		}
		if b.Hit.P99Us > 0 && c.Hit.P99Us > b.Hit.P99Us*(1+frac) {
			regressions = append(regressions, fmt.Sprintf(
				"%s cache-hit p99 %.1fµs vs baseline %.1fµs (+%.0f%%)",
				c.Corpus, c.Hit.P99Us, b.Hit.P99Us, 100*(c.Hit.P99Us/b.Hit.P99Us-1)))
		}
		if b.Cold.P99Us > 0 && c.Cold.P99Us > b.Cold.P99Us*(1+frac) {
			regressions = append(regressions, fmt.Sprintf(
				"%s cold p99 %.1fµs vs baseline %.1fµs (+%.0f%%)",
				c.Corpus, c.Cold.P99Us, b.Cold.P99Us, 100*(c.Cold.P99Us/b.Cold.P99Us-1)))
		}
		if bt, ct := stepP99(b, "tables"), stepP99(c, "tables"); bt > 0 && ct > bt*(1+frac) {
			regressions = append(regressions, fmt.Sprintf(
				"%s tables step p99 %.1fµs vs baseline %.1fµs (+%.0f%%)",
				c.Corpus, ct, bt, 100*(ct/bt-1)))
		}
	}
	return regressions
}

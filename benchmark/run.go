package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"soda/internal/obs"
)

// metricDef names a metric and its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a result plus what only the human-readable output shows.
type report struct {
	result
	workload string
	seed     int64
	inputs   string // inputs_sha256
	problems []string
	notes    []string // sample counts and per-round spreads
}

// env is where a run finds the daemon binary and keeps its files.
type env struct {
	bin    string // built cmd/sodad
	tmp    string // scratch directory inside the checkout, removed at exit
	setups int    // how many times the untraced run sets up
}

// endToEnd lists the metrics of the untraced run, in BENCHMARK.json's
// order. write_latency_p50_ms and failed_share of the issue are not
// here: the first exists on one workload only and the second is zero,
// and an end-to-end metric must be a non-zero number on every workload.
// The write latency is the per-layer metric sodad.write_ack_p50_ms;
// failures are the result's own "failed" count.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"throughput_rps", "ops/s"},
	{"server_cpu_ms_per_op", "ms"},
	{"server_allocs_per_op", "count"},
	{"server_peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// Series the benchmark reads from /metrics.
var (
	cacheHits     = obs.SeriesKey("soda_cache_hits_total")
	cacheMisses   = obs.SeriesKey("soda_cache_misses_total")
	compactions   = obs.SeriesKey("soda_store_compactions_total")
	walAppends    = obs.SeriesKey("soda_wal_append_seconds_count")
	walFsyncs     = obs.SeriesKey("soda_wal_fsync_seconds_count")
	backendExecs  = obs.SeriesKey("soda_backend_exec_total", obs.Label{Name: "backend", Value: "memory"}, obs.Label{Name: "op", Value: "exec"})
	snippetSumSec = obs.SeriesKey("soda_pipeline_step_seconds_sum", obs.Label{Name: "step", Value: "snippet"})
	coldSumSec    = obs.SeriesKey("soda_search_latency_seconds_sum", obs.Label{Name: "outcome", Value: "cold"})
)

// delta is how much a series grew between two scrapes of /metrics.
func delta(before, after map[string]float64, key string) float64 {
	return after[key] - before[key]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// boot starts a daemon for the workload and sends its warm-up pass.
func boot(ctx context.Context, e env, in *inputs) (d *daemon, hasResults []bool, setup time.Duration, err error) {
	dataDir := ""
	if in.dataDir {
		if dataDir, err = os.MkdirTemp(e.tmp, "data-"); err != nil {
			return nil, nil, 0, err
		}
	}
	start := time.Now()
	if d, err = startDaemon(ctx, e.bin, in.world, dataDir); err != nil {
		_ = os.RemoveAll(dataDir)
		return nil, nil, 0, err
	}
	if hasResults, err = warmUp(d.addr, in); err != nil {
		d.stop()
		return nil, nil, 0, err
	}
	return d, hasResults, time.Since(start), nil
}

// selfCheck fails a run whose workload did not do what it exists to do,
// from the daemon's own counters over the timed section.
func selfCheck(in *inputs, sec *section, before, after map[string]float64) (hitShare float64, problems []string) {
	hits, misses := delta(before, after, cacheHits), delta(before, after, cacheMisses)
	hitShare = ratio(hits, hits+misses)
	bad := func(format string, args ...any) {
		problems = append(problems, in.workload+": "+fmt.Sprintf(format, args...))
	}
	switch in.workload {
	case exploreHot:
		if hitShare < 0.99 {
			bad("cache hit share %.4f, want >= 0.99", hitShare)
		}
	case adhocCold:
		if hitShare > 0.01 {
			bad("cache hit share %.4f, want <= 0.01", hitShare)
		}
	case feedbackMix:
		if hitShare < 0.5 || hitShare > 0.95 {
			bad("cache hit share %.4f, want within 0.5..0.95", hitShare)
		}
		// The WAL compacts at 1024 records, in the background; demand a
		// compaction only of a section that wrote clearly more than that.
		writes := len(sec.writes())
		if writes >= 1200 && delta(before, after, compactions) < 1 {
			bad("%d writes and no WAL compaction inside the timed section", writes)
		}
	case snippetExec:
		share := ratio(delta(before, after, snippetSumSec), delta(before, after, coldSumSec))
		if share < 0.8 {
			bad("snippet execution is %.2f of /search service time, want >= 0.8", share)
		}
	}
	return hitShare, problems
}

// runUntraced measures the end-to-end metrics of one workload: tracing
// off, the daemon in its own process, clients over loopback.
func runUntraced(ctx context.Context, e env, in *inputs, seed int64, dur time.Duration) (*report, error) {
	rep := &report{workload: in.workload, seed: seed, inputs: in.sha256}
	var (
		d          *daemon
		hasResults []bool
		setups     []float64
	)
	// Set up several times and report the median. The correctness check
	// runs against the first daemon, so that when more than one is set up
	// the measured one has served nothing but its workload.
	for i := 0; i < e.setups; i++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		var err error
		if d, hasResults, took, err = boot(ctx, e, in); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i == 0 {
			problems, err := checkQuality(d, in.world)
			if err != nil {
				d.stop()
				return nil, err
			}
			rep.problems = append(rep.problems, problems...)
		}
	}
	defer d.stop()

	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	// At every round boundary: the child's CPU time and malloc count.
	var cpu [rounds + 1]float64
	var mem [rounds + 1]memStats
	var readErr error
	sec, err := drive(d.addr, in, 0, dur, hasResults, nil, func(r int) {
		var err1, err2 error
		cpu[r], err1 = d.cpuSeconds()
		mem[r], err2 = d.memStats()
		readErr = errors.Join(readErr, err1, err2)
	})
	if err != nil {
		return nil, err
	}
	if readErr != nil {
		return nil, readErr
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}

	var p50, p95, rps, cpuMs, allocs []float64
	for r := range sec.rounds {
		rd := &sec.rounds[r]
		ns := nsBelow(rd.search, math.MaxInt64)
		p50 = append(p50, quantile(ns, 0.50)/1e6)
		p95 = append(p95, quantile(ns, 0.95)/1e6)
		rps = append(rps, float64(rd.ops)/sec.roundDur.Seconds())
		cpuMs = append(cpuMs, ratio((cpu[r+1]-cpu[r])*1e3, float64(rd.ops)))
		allocs = append(allocs, ratio(float64(mem[r+1].mallocs-mem[r].mallocs), float64(rd.ops)))
	}
	values := map[string][]float64{
		"latency_p50_ms":       p50,
		"latency_p95_ms":       p95,
		"throughput_rps":       rps,
		"server_cpu_ms_per_op": cpuMs,
		"server_allocs_per_op": allocs,
		"server_peak_rss_mb":   {rss},
		"setup_s":              setups,
	}
	rep.Metrics = make(map[string]metric)
	for _, m := range endToEnd {
		v := values[m.name]
		rep.Metrics[m.name] = metric{median(v), m.unit}
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		rep.notes = append(rep.notes, fmt.Sprintf("%s: %d values, min %.6g max %.6g", m.name, len(v), lo, hi))
	}
	hitShare, problems := selfCheck(in, sec, before, after)
	rep.problems = append(rep.problems, problems...)
	rep.notes = append(rep.notes,
		fmt.Sprintf("latency samples: %d searches, %d writes; cache hit share %.4f", len(sec.searches()), len(sec.writes()), hitShare))
	rep.finish(sec)
	return rep, nil
}

// finish fills in the counts and the verdict from the timed section.
func (rep *report) finish(sec *section) {
	rep.Attempted, rep.Failed = sec.attempted, sec.failed
	if sec.failed > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%s: %d of %d requests failed, first: %v", rep.workload, sec.failed, sec.attempted, sec.firstErr))
	}
	rep.Correct = len(rep.problems) == 0
}

// tempDir makes the run's scratch directory under the checkout's build
// directory, so that nothing is written outside the checkout.
func tempDir(root string) (string, error) {
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

package core

// The System's observability wiring: every System owns an obs.Registry
// and registers its pipeline, cache and backend instruments into it at
// construction. Layers above (persistence, cluster, HTTP server) register
// their own series into the same registry, so one GET /metrics scrape
// covers the whole stack. All metric names below are part of the stable
// exposition surface documented in the README's Observability section.

import (
	"context"
	"time"

	"soda/internal/backend"
	"soda/internal/obs"
	"soda/internal/store"
)

// sysMetrics holds the core-owned instruments. Fields are plain pointers
// resolved once at construction, so the hot path records through direct
// atomic ops — no registry lookups, no map access, no interface boxing.
type sysMetrics struct {
	stepLookup  *obs.Histogram
	stepRank    *obs.Histogram
	stepTables  *obs.Histogram
	stepFilters *obs.Histogram
	stepSQL     *obs.Histogram
	stepSnippet *obs.Histogram

	execTotal   *obs.Counter
	execErrors  *obs.Counter
	execSeconds *obs.Histogram
	prepTotal   *obs.Counter
	prepErrors  *obs.Counter
	prepSeconds *obs.Histogram

	snapshotErrors *obs.Counter

	disconnected *obs.Counter

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
}

// newSysMetrics registers the core instrument set for a System running on
// the named backend.
func newSysMetrics(reg *obs.Registry, backendName string) *sysMetrics {
	step := func(name string) *obs.Histogram {
		return reg.Histogram("soda_pipeline_step_seconds",
			"Pipeline step latency by step (lookup/rank/tables/filters/sqlgen/snippet).",
			obs.Label{Name: "step", Value: name})
	}
	be := func(op string) obs.Label { return obs.Label{Name: "op", Value: op} }
	bl := obs.Label{Name: "backend", Value: backendName}
	return &sysMetrics{
		stepLookup:  step("lookup"),
		stepRank:    step("rank"),
		stepTables:  step("tables"),
		stepFilters: step("filters"),
		stepSQL:     step("sqlgen"),
		stepSnippet: step("snippet"),

		execTotal: reg.Counter("soda_backend_exec_total",
			"Backend statement executions by backend identity and path.", bl, be("exec")),
		execErrors: reg.Counter("soda_backend_exec_errors_total",
			"Backend execution errors by backend identity and path.", bl, be("exec")),
		execSeconds: reg.Histogram("soda_backend_exec_seconds",
			"Backend execution latency by backend identity and path.", bl, be("exec")),
		prepTotal: reg.Counter("soda_backend_exec_total",
			"Backend statement executions by backend identity and path.", bl, be("prepared")),
		prepErrors: reg.Counter("soda_backend_exec_errors_total",
			"Backend execution errors by backend identity and path.", bl, be("prepared")),
		prepSeconds: reg.Histogram("soda_backend_exec_seconds",
			"Backend execution latency by backend identity and path.", bl, be("prepared")),

		snapshotErrors: reg.Counter("soda_snapshot_errors_total",
			"Failed snapshot writes (compaction, /admin/snapshot, cluster catch-up and shutdown)."),

		disconnected: reg.Counter("soda_disconnected_solutions_total",
			"Ranked solutions whose entry points Step 3 found no join path between (cross products), counted on cold searches."),

		cacheHits: reg.Counter("soda_cache_hits_total",
			"Answer-cache hits (searches served without running the pipeline)."),
		cacheMisses: reg.Counter("soda_cache_misses_total",
			"Answer-cache misses (searches that ran the pipeline)."),
	}
}

// registerCacheMetrics exposes the current ranking's cache size as a
// scrape-time function.
func (s *System) registerCacheMetrics() {
	s.reg.GaugeFunc("soda_cache_entries",
		"Answer-cache entries servable under the current ranking.",
		func() float64 { return float64(s.CacheStats().Entries) })
}

// registerStoreMetrics wires the durability-path instruments and exposes
// the store's counters; called when a persistent store attaches.
func (s *System) registerStoreMetrics() {
	st := s.rep.store
	st.SetMetrics(storeMetricsOf(s.reg))
	s.reg.GaugeFunc("soda_wal_records",
		"Feedback-WAL records awaiting fold (replay debt of a restart).",
		func() float64 { return float64(st.WALRecords()) })
	s.reg.GaugeFunc("soda_wal_bytes",
		"Feedback-WAL size in bytes.",
		func() float64 {
			stats := st.Stats()
			return float64(stats.WALBytes)
		})
	s.reg.CounterFunc("soda_store_compactions_total",
		"Snapshot-write + WAL-compaction cycles completed.",
		func() float64 { return float64(st.Stats().Compactions) })
}

// storeMetricsOf builds the store's instrument set from a registry.
func storeMetricsOf(reg *obs.Registry) store.Metrics {
	return store.Metrics{
		AppendSeconds: reg.Histogram("soda_wal_append_seconds",
			"WAL record append latency (write-through, excluding fsync)."),
		FsyncSeconds: reg.Histogram("soda_wal_fsync_seconds",
			"WAL fsync latency (batched at the flush interval)."),
		SnapshotWriteSeconds: reg.Histogram("soda_snapshot_write_seconds",
			"Full snapshot persist latency (encode + WAL sync + write + compact)."),
	}
}

// MetricsRegistry returns the System's metric registry; layers above
// register their instruments here so one scrape covers the stack.
func (s *System) MetricsRegistry() *obs.Registry { return s.reg }

// SetLogger routes component diagnostics (store compaction failures,
// replication warnings in the layers above) through the given logger.
// Call before serving; a nil logger silences them.
func (s *System) SetLogger(l *obs.Logger) { s.log = l }

// Logger returns the System's diagnostic logger (nil when unset — a valid
// no-op receiver).
func (s *System) Logger() *obs.Logger { return s.log }

// instrumentedExec runs one backend execution with latency and error
// accounting for the given path instruments, and appends a named span to
// the request trace when ctx carries one ("backend:exec" for parsed
// statements, "backend:prepared" for saved queries) — a nil trace is a
// no-op, so untraced callers pay one context lookup and nothing else.
func instrumentedExec(ctx context.Context, span string, total, errs *obs.Counter, lat *obs.Histogram, run func() (*backend.Result, error)) (*backend.Result, error) {
	total.Inc()
	start := time.Now()
	res, err := run()
	dur := time.Since(start)
	lat.Record(dur)
	obs.TraceFromContext(ctx).Add(span, dur)
	if err != nil {
		errs.Inc()
	}
	return res, err
}

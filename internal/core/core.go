// Package core implements the SODA pipeline of Figure 4: starting from a
// list of keywords and operators it computes a ranked list of executable
// SQL statements in five steps —
//
//	Step 1  lookup   : match keywords to entry points in the metadata
//	                   graph and the base-data inverted index
//	Step 2  rank/topN: score every combination of entry points and keep
//	                   the best N
//	Step 3  tables   : traverse the metadata graph from the entry points,
//	                   test graph patterns to find tables, joins on direct
//	                   paths, inheritance parents and bridge tables
//	Step 4  filters  : collect filter conditions from the input query and
//	                   from the metadata
//	Step 5  SQL      : combine everything into reasonable, executable SQL
//
// The patterns live in a pattern.Registry (package metagraph ships the
// Credit-Suisse-style defaults); swapping patterns ports SODA to another
// warehouse while "the algorithm always stays the same" (§4.1).
package core

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"soda/internal/backend"
	"soda/internal/invidx"
	"soda/internal/metagraph"
	"soda/internal/obs"
	"soda/internal/pattern"
	"soda/internal/queryparse"
	"soda/internal/sqlast"
	"soda/internal/store"
)

// Options tunes the pipeline. The zero value is usable; Defaults fills in
// the paper's settings (top 10 solutions, 20-tuple snippets).
type Options struct {
	// TopN is how many ranked solutions survive step 2 (paper: "SODA ...
	// (partially) executes the Top 10").
	TopN int
	// SnippetRows caps snippet execution (paper: "up to twenty tuples").
	SnippetRows int
	// MaxSolutions caps the combinatorial product of entry points before
	// ranking, protecting against adversarial inputs.
	MaxSolutions int

	// Parallelism is the worker-pool width for snippet execution, the one
	// per-solution step that runs a backend statement. 0 means
	// GOMAXPROCS; 1 runs the snippets sequentially. Steps 1-5 always run
	// on the calling goroutine. The ranked output is byte-identical either
	// way.
	Parallelism int

	// CacheSize caps the answer cache (entries across all shards). 0
	// means the default (512); negative disables caching entirely. Each
	// entry is keyed by the raw input, dialect, snippet flag and form, and
	// each published ranking owns a fresh cache, so a write that changes
	// the ranking function starts it empty.
	CacheSize int

	// PeerDeadAfter bounds how long a configured peer replica can stay
	// silent before it stops gating feedback-WAL folding and compaction
	// (see persist.go foldableLocked). 0 — the default — keeps the
	// conservative behaviour: every configured peer gates retention
	// forever, so a permanently-dead -peers entry stalls folding until an
	// operator decommissions it (DecommissionReplica). Positive values
	// trade that safety for bounded staleness: a peer silent longer than
	// this is treated as dead and folded past; if it returns it re-enters
	// through the normal catch-up path (ServePull reports it behind and
	// it adopts the folded state wholesale).
	PeerDeadAfter time.Duration

	// Dialect selects the SQL surface syntax generated statements are
	// rendered in (identifier quoting, LIMIT vs FETCH FIRST, string
	// escaping). nil means sqlast.Generic. Individual searches can
	// override it per request via SearchOptions.Dialect.
	Dialect *sqlast.Dialect

	// Ablation switches (see (*bench.Env).Ablations, sodabench -ablations).
	DisableBridges bool // skip bridge-table discovery (§4.2.1 last part)
	DisableDBpedia bool // ignore DBpedia entry points (§7 future work)
	UniformRanking bool // score all entry points equally (step 2 ablation)
	AllJoins       bool // keep every join between solution tables instead
	// of only those on direct paths (Figure 9 ablation)
}

// Defaults returns the paper's operating point.
func Defaults() Options {
	return Options{TopN: 10, SnippetRows: 20, MaxSolutions: 4096, CacheSize: defaultCacheSize}
}

func (o Options) withDefaults() Options {
	d := Defaults()
	if o.TopN <= 0 {
		o.TopN = d.TopN
	}
	if o.SnippetRows <= 0 {
		o.SnippetRows = d.SnippetRows
	}
	if o.MaxSolutions <= 0 {
		o.MaxSolutions = d.MaxSolutions
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.CacheSize == 0 {
		o.CacheSize = d.CacheSize
	}
	if o.Dialect == nil {
		o.Dialect = sqlast.Generic
	}
	return o
}

// System wires the substrates together and runs the pipeline. It is safe
// for concurrent use, and concurrent searches proceed in parallel. Its
// state has three lifetimes:
//
//   - The world, Backend through bridgeIDs: the substrates, and the
//     structures derived from them once, by Warm or on first use (the
//     compiled schema model with Step 1's label table and every entry
//     point's Step 3 table list, the join graph with every table's FK
//     closure, the bridge tables). It is only read afterwards, without a
//     lock.
//   - The ranking (feedback.go): the live feedback map and the
//     saved-query library — all that Step 1 and approvedStep read of what
//     changes at run time — as one immutable value behind an atomic
//     pointer, with the answer cache of what was computed under it.
//   - The replica (cluster.go): the store, compaction and the replication
//     cursors, behind the one lock that serialises every writer.
//
// A write logs its record under the replica's lock and then publishes
// the next ranking. A search loads the ranking once and takes no lock on
// it, so it never waits on a WAL append and scores its whole answer under
// one ranking. The answer caches and the instruments synchronise
// themselves.
type System struct {
	// Backend executes the generated SQL. The pipeline itself never
	// touches a database representation: snippet execution, Execute and
	// ExecSQL all go through this seam, so the same System can run
	// against the in-memory engine (backend/memory) or a real warehouse
	// (backend/sqldb).
	Backend backend.Executor
	Meta    *metagraph.Graph
	Reg     *pattern.Registry
	Opt     Options

	matcher *pattern.Matcher

	// index returns the inverted index, read through Index: the given one
	// (NewSystem), or the build NewSystemIndexing started, waiting for it.
	index func() *invidx.Index

	// Derived structures, built once by Warm (or on first use) and
	// read-only afterwards: the compiled schema model (model.go), which
	// holds Step 1's label table, the join graph and the bridge tables.
	derivedOnce sync.Once
	model       *schemaModel
	jg          *joinGraph
	bridgeMemo  []bridgeRel
	bridgeIDs   []discoveredBridge

	// ranking is the published ranking (feedback.go), never nil.
	ranking atomic.Pointer[ranking]
	rep     replica

	// Observability: the registry all layers scrape through, the resolved
	// core instruments and the component-tagged diagnostic logger (nil
	// logger = silent; see metrics.go).
	reg     *obs.Registry
	metrics *sysMetrics
	log     *obs.Logger
}

// NewSystem builds a System over the given substrates: an execution
// backend for the base data, the metadata graph and the inverted index.
// It matches the metagraph default patterns (metagraph.Patterns).
func NewSystem(be backend.Executor, meta *metagraph.Graph, idx *invidx.Index, opt Options) *System {
	s := newSystem(be, meta, opt)
	s.index = func() *invidx.Index { return idx }
	return s
}

// NewSystemIndexing is NewSystem for an inverted index that is not built
// yet. build runs on its own goroutine, started here, so the index build
// overlaps Warm: Warm compiles everything that needs only the metadata
// graph while the index builds, and joins the build before the label
// table's base-data hits, the one derived fact that reads the index.
// Anything else that reads the index before then waits for the build too.
// The goroutine ends when build returns; nothing cancels it.
func NewSystemIndexing(be backend.Executor, meta *metagraph.Graph, build func() *invidx.Index, opt Options) *System {
	s := newSystem(be, meta, opt)
	s.index = sync.OnceValue(build)
	go s.index()
	return s
}

func newSystem(be backend.Executor, meta *metagraph.Graph, opt Options) *System {
	reg := metagraph.Patterns()
	s := &System{
		Backend: be,
		Meta:    meta,
		Reg:     reg,
		Opt:     opt.withDefaults(),
		rep: replica{
			replicaID:      "local",
			vector:         make(store.Vector),
			lastLC:         make(map[string]uint64),
			foldedVector:   make(store.Vector),
			foldedLastLC:   make(map[string]uint64),
			acks:           make(map[string]store.Vector),
			decommissioned: make(map[string]bool),
			lastContact:    make(map[string]time.Time),
			now:            time.Now,
		},
	}
	s.publish(&ranking{})
	s.matcher = pattern.NewMatcher(meta.G, reg)
	s.reg = obs.NewRegistry()
	s.metrics = newSysMetrics(s.reg, be.Name())
	s.registerCacheMetrics()
	return s
}

// Index returns the inverted index, waiting for its build when the System
// came from NewSystemIndexing and the build has not finished.
func (s *System) Index() *invidx.Index {
	return s.index()
}

// Warm builds the derived structures: the compiled schema model with
// Step 1's label table and every node's Step 3 table list and resolved
// column, the bridge tables, and the join graph with every table's FK
// closure. After it, /search reads only what Warm built and nothing
// changes later: the first search of an entry point the daemon has never
// seen measures the pipeline, not a traversal of the metadata graph. The paper's Table 4 likewise excludes the 24-hour
// inverted-index build from per-query runtimes. Warm is idempotent, and a
// search before it builds the same structures on first use.
func (s *System) Warm() {
	s.derivedOnce.Do(s.buildDerived)
}

// SearchOptions are per-request knobs layered over the System's Options.
type SearchOptions struct {
	// Dialect renders the generated SQL for a specific backend; nil uses
	// the System's Options.Dialect.
	Dialect *sqlast.Dialect
	// Snippets executes each solution with the snippet row cap during
	// the pipeline and caches the rows with the answer, so
	// repeated snippet searches perform zero SQL executions.
	Snippets bool
	// CountAllocs populates Analysis.StepAllocs with the heap allocations
	// each pipeline step performed (runtime.MemStats Mallocs deltas).
	// Benchmarking aid: the counts are process-wide, so they are only
	// meaningful with no concurrent load (the snippet step's count
	// includes its pool workers), and each sampled step pays two
	// ReadMemStats calls. Off by default — the serving path never reads
	// MemStats.
	CountAllocs bool
}

// Search runs the five-step pipeline on an input query with the System's
// default dialect and no snippets. See SearchWith.
func (s *System) Search(input string) (*Analysis, error) {
	return s.SearchWith(input, SearchOptions{})
}

// SearchWith runs the five-step pipeline with a background context. See
// SearchWithContext.
func (s *System) SearchWith(input string, so SearchOptions) (*Analysis, error) {
	return s.SearchWithContext(context.Background(), input, so)
}

// SearchWithContext runs the five-step pipeline on an input query.
// Repeated queries hit the answer cache (keyed by the raw input, the
// dialect and the snippet flag — a cached generic answer is never served
// to a db2 request, nor a row-less answer to a snippet request) while the
// ranking the answer was computed under is the published one; the
// returned Analysis is shared between such callers and must be treated as
// read-only. ctx flows into backend executions (snippet runs), carrying
// cancellation and the request's trace span collector, and is checked
// after each of steps 1-5: a search whose context is cancelled or past its
// deadline returns ctx.Err() and caches nothing.
func (s *System) SearchWithContext(ctx context.Context, input string, so SearchOptions) (*Analysis, error) {
	rk := s.ranking.Load()
	if rk.cache != nil {
		if a, _ := s.cacheLookup(rk, input, analysisForm, so); a != nil {
			return a, nil
		}
	}
	a, err := s.search(ctx, input, so, rk)
	if err != nil {
		return nil, err
	}
	if rk.cache != nil {
		s.cacheStore(input, analysisForm, so, a, nil)
	}
	return a, nil
}

// search runs the pipeline on input under the ranking rk, the caller's
// one load of it: Step 1's scores and the saved-query merge read this
// value, and the caller files the answer in its cache.
func (s *System) search(ctx context.Context, input string, so SearchOptions, rk *ranking) (*Analysis, error) {
	q, err := queryparse.Parse(input)
	if err != nil {
		return nil, err
	}
	dialect := s.searchDialect(so)

	a := &Analysis{Query: q, Dialect: dialect, WithSnippets: so.Snippets, ranking: rk}
	if so.CountAllocs {
		a.StepAllocs = make(map[string]uint64, 6)
	}

	// The five steps run in order on the calling goroutine, each timed into
	// a.Timings and its histogram. Steps 3-5 walk a few short slices per
	// solution, microseconds in all, which is less than starting a worker
	// pool would cost. The step functions capture nothing, so the table
	// allocates nothing. The request's context is checked after every
	// step: a cancelled or expired request stops there with the context's
	// error, and nothing is cached.
	steps := [...]struct {
		name string
		run  func(*System, *Analysis)
		took *time.Duration
		hist *obs.Histogram
	}{
		{"lookup", (*System).lookup, &a.Timings.Lookup, s.metrics.stepLookup},
		{"rank", (*System).rank, &a.Timings.Rank, s.metrics.stepRank},
		{"tables", func(s *System, a *Analysis) {
			s.tablesStep(a.Solutions)
			for _, sol := range a.Solutions {
				if sol.Disconnected {
					s.metrics.disconnected.Inc()
				}
			}
		}, &a.Timings.Tables, s.metrics.stepTables},
		{"filters", func(s *System, a *Analysis) {
			for _, sol := range a.Solutions {
				s.filtersStep(sol, a)
			}
		}, &a.Timings.Filters, s.metrics.stepFilters},
		{"sqlgen", func(s *System, a *Analysis) {
			for _, sol := range a.Solutions {
				s.sqlStep(sol, a)
			}
		}, &a.Timings.SQL, s.metrics.stepSQL},
	}
	for _, st := range steps {
		start := time.Now()
		m0 := a.mallocs()
		st.run(s, a)
		a.countAllocs(st.name, m0)
		*st.took = time.Since(start)
		st.hist.Record(*st.took)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	// Saved-query library: merge matching pre-approved statements into
	// the ranked solutions before snippets run, so an approved answer
	// gets its rows like any generated one.
	s.approvedStep(a)

	if so.Snippets {
		// Snippet execution is a backend run per solution, tens of
		// microseconds to milliseconds each, so it spreads across the worker
		// pool; rows live on the solutions and are cached (and dropped with
		// the ranking's cache) with them.
		start := time.Now()
		m0 := a.mallocs()
		s.forEachSolution(a.Solutions, func(sol *Solution) {
			s.snippetStep(ctx, sol)
		})
		a.countAllocs("snippet", m0)
		a.Timings.Snippet = time.Since(start)
		s.metrics.stepSnippet.Record(a.Timings.Snippet)
	}
	return a, nil
}

// mallocs returns the process's heap allocation count when the search
// counts per-step allocations (SearchOptions.CountAllocs), and 0 otherwise.
func (a *Analysis) mallocs() uint64 {
	if a.StepAllocs == nil {
		return 0
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// countAllocs records the allocations since m0, a mallocs reading, as
// step's count. It does nothing unless the search counts allocations.
func (a *Analysis) countAllocs(step string, m0 uint64) {
	if a.StepAllocs != nil {
		a.StepAllocs[step] = a.mallocs() - m0
	}
}

// termKey lower-cases and joins words for display.
func termKey(words []string) string {
	return strings.Join(words, " ")
}

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
	"errors"
	"fmt"
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
	"soda/internal/rdf"
	"soda/internal/sqlast"
	"soda/internal/sqlparse"
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

	// MaxPathLen bounds the join-path search between entry points, in
	// edges; 0 means unbounded. The paper's §5.3.1 discusses the
	// trade-off: without a bound "far-fetching" paths connect entities
	// that are too far apart and flood the ranking, with a tight bound
	// "we might not be able to find a join path between two entities".
	MaxPathLen int

	// Parallelism is the worker-pool width for snippet execution, the one
	// per-solution step that runs a backend statement. 0 means
	// GOMAXPROCS; 1 runs the snippets sequentially. Steps 1-5 always run
	// on the calling goroutine. The ranked output is byte-identical either
	// way.
	Parallelism int

	// CacheSize caps the answer cache (entries across all shards). 0
	// means the default (512); negative disables caching entirely. The
	// cache is keyed by the canonical query form plus the requested
	// dialect and snippet flag, and invalidated as a whole whenever
	// relevance feedback changes the ranking function.
	CacheSize int

	// CompactEvery is the WAL compaction threshold when a persistent
	// store is attached (OpenStore): once the log holds this many
	// records a fresh snapshot is written and the log is compacted. 0
	// means the default (1024); negative disables automatic compaction
	// (snapshots still happen on Close and on explicit WriteSnapshot).
	CompactEvery int

	// PeerDeadAfter bounds how long a configured peer replica can stay
	// silent before it stops gating feedback-WAL folding and compaction
	// (see persist.go foldableLocked). 0 — the default — keeps the
	// conservative behaviour: every configured peer gates retention
	// forever, so a permanently-dead -peers entry stalls folding until an
	// operator decommissions it (DecommissionReplica). Positive values
	// trade that safety for bounded staleness: a peer silent longer than
	// this is treated as dead and folded past; if it returns it re-enters
	// through the normal catch-up path (RecordsSince reports it behind and
	// it adopts the folded state wholesale).
	PeerDeadAfter time.Duration

	// Dialect selects the SQL surface syntax generated statements are
	// rendered in (identifier quoting, LIMIT vs FETCH FIRST, string
	// escaping). nil means sqlast.Generic. Individual searches can
	// override it per request via SearchOptions.Dialect.
	Dialect *sqlast.Dialect

	// Ablation switches (DESIGN.md "ablation benches").
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
	if o.CompactEvery == 0 {
		o.CompactEvery = defaultCompactEvery
	}
	if o.Dialect == nil {
		o.Dialect = sqlast.Generic
	}
	return o
}

// System wires the substrates together: base data, metadata graph,
// inverted index and pattern registry. A System is safe for concurrent
// use and concurrent searches proceed in parallel: the substrates are
// read-only after construction; the derived structures (the compiled
// schema model with Step 1's label table and every entry point's Step 3
// table list, the join graph with every table's FK closure, and the
// bridge tables) are built once, by Warm or on first use, and then only
// read, so the pipeline takes no lock but the feedback store's; and the
// feedback store keeps an epoch counter that invalidates the answer cache
// whenever the ranking function changes.
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

	// The inverted index, read through Index. NewSystemIndexing stores it
	// from a build running on its own goroutine and then closes
	// indexReady; NewSystem stores it up front.
	index      atomic.Pointer[invidx.Index]
	indexReady chan struct{}

	// Derived structures, built once by Warm (or on first use) and
	// read-only afterwards: the compiled schema model (model.go), which
	// holds Step 1's label table, the join graph and the bridge tables.
	derivedOnce sync.Once
	model       *schemaModel
	jg          *joinGraph
	bridgeMemo  []bridgeRel
	bridgeIDs   []discoveredBridge

	// Relevance feedback. epoch counts ranking-function changes; cached
	// answers from older epochs are never served. When a persistent
	// store is attached (OpenStore) every change is logged to its WAL
	// before it is applied. feedback is the *live* map — the fold of the
	// folded base plus the unfolded tail in canonical record order (see
	// cluster.go for the replication model).
	fbMu            sync.RWMutex
	feedback        map[feedbackKey]float64
	queries         map[string]*savedQueryEntry
	epoch           atomic.Uint64
	store           *store.Store
	warmStart       bool
	replayedRecords int
	fingerprint     uint64
	compacting      atomic.Bool // an async auto-compaction is in flight

	// Replication state (all under fbMu; maintained only with a store
	// attached). tail holds the applied-but-unfolded records in canonical
	// (LC, origin, originSeq) order; base/baseEpoch/foldPos describe the
	// folded prefix the snapshot persists; vector and lastLC track, per
	// origin, the highest contiguous OriginSeq applied and the newest
	// Lamport clock heard; acks remembers each peer's pull vector (the
	// compaction-safe retention gate).
	replicaID    string
	fleetPeers   int // configured peer count; 0 = single replica
	lamport      uint64
	vector       store.Vector
	lastLC       map[string]uint64
	tail         []store.Record
	base         map[feedbackKey]float64
	baseQueries  map[string]*savedQueryEntry
	baseEpoch    uint64
	foldPos      store.Pos
	foldedVector store.Vector
	foldedLastLC map[string]uint64
	acks         map[string]store.Vector
	reorders     uint64 // remote records that arrived below the fold watermark

	// Dead-peer bookkeeping for the fold gate's escape hatches:
	// decommissioned peers are permanently out of the quorum (operator
	// action), lastContact timestamps every ack/clock/record heard per
	// origin, and replStart anchors the staleness bound for peers never
	// heard from at all (set when OpenStore attaches the store).
	decommissioned map[string]bool
	lastContact    map[string]time.Time
	replStart      time.Time

	cache *answerCache

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
	s.index.Store(idx)
	close(s.indexReady)
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
	go func() {
		s.index.Store(build())
		close(s.indexReady)
	}()
	return s
}

func newSystem(be backend.Executor, meta *metagraph.Graph, opt Options) *System {
	reg := metagraph.Patterns()
	s := &System{
		Backend:      be,
		Meta:         meta,
		Reg:          reg,
		Opt:          opt.withDefaults(),
		indexReady:   make(chan struct{}),
		vector:       make(store.Vector),
		lastLC:       make(map[string]uint64),
		foldedVector: make(store.Vector),
		foldedLastLC: make(map[string]uint64),
		acks:         make(map[string]store.Vector),

		decommissioned: make(map[string]bool),
		lastContact:    make(map[string]time.Time),
	}
	s.matcher = pattern.NewMatcher(meta.G, reg)
	if s.Opt.CacheSize > 0 {
		s.cache = newAnswerCache(s.Opt.CacheSize)
	}
	s.reg = obs.NewRegistry()
	s.metrics = newSysMetrics(s.reg, be.Name())
	s.registerCacheMetrics()
	return s
}

// Index returns the inverted index, waiting for its build when the System
// came from NewSystemIndexing and the build has not finished.
func (s *System) Index() *invidx.Index {
	if idx := s.index.Load(); idx != nil {
		return idx
	}
	<-s.indexReady
	return s.index.Load()
}

// Role says how a term participates in SQL generation.
type Role uint8

// Term roles.
const (
	RolePlain Role = iota
	RoleAggAttr
	RoleGroupBy
)

func (r Role) String() string {
	switch r {
	case RoleAggAttr:
		return "agg-attr"
	case RoleGroupBy:
		return "group-by"
	default:
		return "keyword"
	}
}

// Term is one semantic unit of the query after longest-combination
// segmentation (§4.2.2 Keywords).
type Term struct {
	Text    string
	Role    Role
	AggFunc string // for RoleAggAttr
	// Comparisons attached to this term by the input parser.
	Comparisons []queryparse.Comparison
}

// EntryKind discriminates metadata entry points from base-data hits.
type EntryKind uint8

// Entry point kinds.
const (
	KindMetadata EntryKind = iota
	KindBaseData
)

// EntryPoint is one place in the extended metadata graph (or base data)
// where a term was found.
type EntryPoint struct {
	Term  int // index into Analysis.Terms
	Kind  EntryKind
	Node  rdf.Term // metadata node (KindMetadata)
	Layer string
	// Base-data location and the matching values (KindBaseData).
	Table, Column string
	Values        []string
	Score         float64
}

// Describe renders the entry point the way Figure 5 annotates them.
func (e EntryPoint) Describe() string {
	if e.Kind == KindBaseData {
		return fmt.Sprintf("%s.%s (Basedata)", e.Table, e.Column)
	}
	return fmt.Sprintf("%s (%s)", e.Node.Value(), layerTitle(e.Layer))
}

func layerTitle(layer string) string {
	switch layer {
	case metagraph.LayerDomainOntology:
		return "Domain ontology"
	case metagraph.LayerConceptual:
		return "Conceptual schema"
	case metagraph.LayerLogical:
		return "Logical schema"
	case metagraph.LayerPhysical:
		return "Physical schema"
	case metagraph.LayerDBpedia:
		return "DBpedia"
	case metagraph.LayerBaseData:
		return "Basedata"
	default:
		return layer
	}
}

// ColRef names a physical column.
type ColRef struct {
	Table, Column string
}

func (c ColRef) String() string { return c.Table + "." + c.Column }

// Join is one join condition between two tables. Via records which pattern
// produced it: "fk", "joinrel", "inheritance", or "bridge".
type Join struct {
	LeftTable, LeftCol   string
	RightTable, RightCol string
	Via                  string
}

func (j Join) String() string {
	var buf [96]byte
	return string(j.Append(buf[:0]))
}

// Append appends String() to dst: "l.c = r.c [via]".
func (j Join) Append(dst []byte) []byte {
	dst = append(append(append(dst, j.LeftTable...), '.'), j.LeftCol...)
	dst = append(append(append(append(dst, " = "...), j.RightTable...), '.'), j.RightCol...)
	return append(append(append(dst, " ["...), j.Via...), ']')
}

// Filter is one WHERE condition. Source records provenance: "input" (an
// operator in the query), "basedata" (an inverted-index hit), or
// "metadata" (a filter stored in the metadata graph, e.g. wealthy
// customers).
type Filter struct {
	Col    ColRef
	Op     string // =, <>, >, >=, <, <=, like, between
	Value  string
	Value2 string // for between
	IsDate bool
	IsNum  bool
	Source string
}

func (f Filter) String() string {
	var buf [96]byte
	return string(f.Append(buf[:0]))
}

// Append appends String() to dst: "t.c op value [source]", or
// "t.c BETWEEN value AND value2 [source]".
func (f Filter) Append(dst []byte) []byte {
	dst = append(append(append(dst, f.Col.Table...), '.'), f.Col.Column...)
	if f.Op == "between" {
		dst = append(append(append(dst, " BETWEEN "...), f.Value...), " AND "...)
		dst = append(dst, f.Value2...)
	} else {
		dst = append(append(append(append(dst, ' '), f.Op...), ' '), f.Value...)
	}
	return append(append(append(dst, " ["...), f.Source...), ']')
}

// Agg is a resolved aggregate; a nil Col means count(*).
type Agg struct {
	Func string
	Col  *ColRef
}

// Solution is one fully processed combination of entry points, carrying
// everything the five steps derived and the final SQL.
type Solution struct {
	Entries []EntryPoint
	Score   float64

	// Tables is the discovery output of the tables step (Figure 6): every
	// table reachable from the entry points plus bridge tables between
	// them. Primaries anchors each entry to its nearest table, and
	// SQLTables is the pruned FROM list: anchors, join-path intermediates
	// and inheritance parents.
	Tables    []string
	Primaries []string
	SQLTables []string

	Joins        []Join
	Filters      []Filter
	Aggs         []Agg
	GroupBy      []ColRef
	TopN         int
	Disconnected bool // no join path connected some entry points

	// Epoch is the ranking epoch the solution was computed under.
	// Feedback validates it against the current epoch: a solution from
	// an older epoch was ranked by a different function, and applying
	// its feedback silently (or replaying it from a WAL twice) would
	// corrupt the accumulated adjustments.
	Epoch uint64

	SQL *sqlast.Select
	// Dialect the statement is rendered in (set by the SQL step; nil
	// means sqlast.Generic).
	Dialect *sqlast.Dialect

	// Snippet rows executed during the pipeline when the search asked
	// for them (SearchOptions.Snippets). Cached with the analysis, so a
	// cache hit serves them without re-executing the SQL; feedback
	// invalidates them together with the answer (same epoch).
	Snippet    *backend.Result
	SnippetErr string
	// snippetCut marks a snippet execution ended by the request's context
	// (cancelled or past its deadline): the error says nothing about the
	// statement, so the answer must not be cached.
	snippetCut bool

	// Approved marks a solution drawn from the saved-query library
	// (queries.go) rather than generated by the pipeline. QueryName is
	// the library key and Bindings the parameter values extracted from
	// the search input (or defaults). Approved solutions execute
	// exclusively through the backend's prepared-statement path.
	Approved  bool
	QueryName string
	Bindings  []BoundParam
}

// SQLText renders the generated statement in the solution's dialect; the
// empty string means SQL generation failed for this solution.
func (s *Solution) SQLText() string {
	if s.SQL == nil {
		return ""
	}
	return s.SQL.Render(s.dialect())
}

// AppendSQL appends SQLText() to dst.
func (s *Solution) AppendSQL(dst []byte) []byte {
	if s.SQL == nil {
		return dst
	}
	return s.SQL.AppendRender(dst, s.dialect())
}

func (s *Solution) dialect() *sqlast.Dialect {
	if s.Dialect == nil {
		return sqlast.Generic
	}
	return s.Dialect
}

// Timings records per-step wall-clock durations (Table 4 reports the SODA
// runtime split by algorithmic step).
type Timings struct {
	Lookup  time.Duration
	Rank    time.Duration
	Tables  time.Duration
	Filters time.Duration
	SQL     time.Duration
	Snippet time.Duration // snippet execution, when requested
}

// Total sums the step durations.
func (t Timings) Total() time.Duration {
	return t.Lookup + t.Rank + t.Tables + t.Filters + t.SQL + t.Snippet
}

// Analysis is the full result of running the pipeline on one input query.
type Analysis struct {
	Query      *queryparse.Query
	Terms      []Term
	Candidates [][]EntryPoint // per term
	Ignored    []string       // words that matched nothing ("and" ...)
	Complexity int            // product of entry-point counts (Table 4)
	Solutions  []*Solution    // ranked, best first, len <= TopN
	Timings    Timings

	// Dialect the solutions' SQL is rendered in; WithSnippets records
	// that snippet rows were executed and cached on the solutions.
	Dialect      *sqlast.Dialect
	WithSnippets bool

	// Epoch is the ranking epoch the analysis was computed under (the
	// same value stamped on every solution).
	Epoch uint64

	// StepAllocs is the number of heap allocations each step performed,
	// keyed by step name ("lookup" ... "sqlgen", "snippet"). Only set
	// when the search ran with SearchOptions.CountAllocs.
	StepAllocs map[string]uint64
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
	// the pipeline and caches the rows alongside the analysis, so
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
// Repeated queries hit the answer cache (keyed by the canonical query
// form, the dialect and the snippet flag — a cached generic answer is
// never served to a db2 request, nor a row-less answer to a snippet
// request) unless relevance feedback bumped the ranking epoch since the
// answer was computed; the returned Analysis is shared between such
// callers and must be treated as read-only. ctx flows into backend
// executions (snippet runs), carrying cancellation and the request's
// trace span collector, and is checked after each of steps 1-5: a search
// whose context is cancelled or past its deadline returns ctx.Err() and
// caches nothing.
func (s *System) SearchWithContext(ctx context.Context, input string, so SearchOptions) (*Analysis, error) {
	q, err := queryparse.Parse(input)
	if err != nil {
		return nil, err
	}
	dialect := s.searchDialect(so)
	canonical := q.String()
	epoch := s.epoch.Load()
	if s.cache != nil {
		if a, _ := s.cacheLookup(canonical, so, epoch); a != nil {
			s.cache.hits.Add(1)
			return a, nil
		}
		s.cache.misses.Add(1)
	}

	a := &Analysis{Query: q, Dialect: dialect, WithSnippets: so.Snippets, Epoch: epoch}
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
			for _, sol := range a.Solutions {
				s.tablesStep(sol, a)
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
	s.approvedStep(a, epoch)

	if so.Snippets {
		// Snippet execution is a backend run per solution, tens of
		// microseconds to milliseconds each, so it spreads across the worker
		// pool; rows live on the solutions and are cached (and
		// epoch-invalidated) with them.
		start := time.Now()
		m0 := a.mallocs()
		s.forEachSolution(a.Solutions, func(sol *Solution) {
			s.snippetStep(ctx, sol)
		})
		a.countAllocs("snippet", m0)
		a.Timings.Snippet = time.Since(start)
		s.metrics.stepSnippet.Record(a.Timings.Snippet)
	}

	if s.cache != nil {
		s.cacheStore(canonical, so, a, nil)
	}
	return a, nil
}

// snippetStep executes one solution with the snippet row cap and stores
// the rows (or the error) on the solution.
func (s *System) snippetStep(ctx context.Context, sol *Solution) {
	res, err := s.exec(ctx, sol, s.Opt.SnippetRows)
	if err != nil {
		sol.SnippetErr = err.Error()
		sol.snippetCut = errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		return
	}
	sol.Snippet = res
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

// forEachSolution applies fn to every solution across up to
// Opt.Parallelism workers; the snippet step is its one user. fn must only
// mutate its own solution. Solutions are handed out atomically and keep
// their slice positions, so the output is byte-identical to a sequential
// run.
func (s *System) forEachSolution(sols []*Solution, fn func(*Solution)) {
	n := len(sols)
	workers := min(s.Opt.Parallelism, n)
	if workers <= 1 {
		for _, sol := range sols {
			fn(sol)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicVal any
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// A panic in a bare worker goroutine would kill the whole
			// process (the daemon serves many users off one System);
			// re-panic on the calling goroutine instead, where net/http's
			// per-request recovery applies, matching sequential behaviour.
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicVal = r })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(sols[i])
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// Execute runs a solution's generated SQL through the text parser and
// the backend, proving the statement is executable SQL text, not just an
// AST. The text is parsed in the solution's dialect — the same round
// trip a real warehouse client would perform. An approved solution
// (saved query) instead goes through the backend's prepared-statement
// path with its extracted bindings: the values never touch the SQL text.
// ctx carries cancellation and the request's trace-span collector.
func (s *System) Execute(ctx context.Context, sol *Solution) (*backend.Result, error) {
	return s.exec(ctx, sol, 0)
}

// exec is the one way a solution reaches the backend — Execute, Snippet
// and the pipeline's snippet step all come through here. rowCap > 0 caps
// the result (snippets); 0 runs the statement as generated.
func (s *System) exec(ctx context.Context, sol *Solution, rowCap int) (*backend.Result, error) {
	if sol.SQL == nil {
		return nil, fmt.Errorf("core: solution has no SQL")
	}
	if sol.Approved {
		return s.execApproved(ctx, sol, rowCap)
	}
	sel, err := sqlparse.ParseDialect(sol.SQLText(), sol.dialect())
	if err != nil {
		return nil, fmt.Errorf("core: generated SQL does not reparse: %w", err)
	}
	if rowCap > 0 && (sel.Limit < 0 || sel.Limit > rowCap) {
		sel.Limit = rowCap
	}
	return s.runSQL(ctx, sel)
}

// ExecSQL parses and runs an arbitrary statement in the supported SQL
// subset against the system's backend — used by the exploration
// workflows of §5.3.2. The statement is read in dialect d; nil means the
// System's configured dialect.
func (s *System) ExecSQL(ctx context.Context, sql string, d *sqlast.Dialect) (*backend.Result, error) {
	if d == nil {
		d = s.Opt.Dialect
	}
	sel, err := sqlparse.ParseDialect(sql, d)
	if err != nil {
		return nil, err
	}
	return s.runSQL(ctx, sel)
}

// Snippet returns a solution's result snippet (paper: "result snippets
// (up to twenty tuples)"). Rows cached by a snippet search are served
// as-is — zero SQL executions; otherwise the statement is executed with
// the snippet row cap.
func (s *System) Snippet(sol *Solution) (*backend.Result, error) {
	if sol.Snippet != nil {
		return sol.Snippet, nil
	}
	if sol.SnippetErr != "" {
		return nil, fmt.Errorf("%s", sol.SnippetErr)
	}
	return s.exec(context.Background(), sol, s.Opt.SnippetRows)
}

// runSQL executes a parsed statement on the backend, with per-backend
// latency and error accounting and a "backend:exec" span on the
// request's trace (when ctx carries one).
func (s *System) runSQL(ctx context.Context, sel *sqlast.Select) (*backend.Result, error) {
	m := s.metrics
	return instrumentedExec(ctx, "backend:exec", m.execTotal, m.execErrors, m.execSeconds, func() (*backend.Result, error) {
		return s.Backend.Exec(ctx, sel)
	})
}

// ExecCount reports how many SQL statements the backend has executed on
// behalf of this System (snippets, Execute, ExecSQL). Answer-cache hits
// do not execute anything, so the counter makes snippet caching
// observable — per backend, since each executor counts its own work.
func (s *System) ExecCount() uint64 { return s.Backend.ExecCount() }

// termKey lower-cases and joins words for display.
func termKey(words []string) string {
	return strings.Join(words, " ")
}

// Package soda is the public API of this reproduction of "SODA: Generating
// SQL for Business Users" (Blunschi, Jossen, Kossmann, Mori, Stockinger,
// PVLDB 5(10), 2012). SODA gives business users a Google-like search
// experience over a complex data warehouse: keyword queries with optional
// operators are translated into a ranked list of executable SQL statements
// by matching graph patterns against an extended metadata graph
// (conceptual/logical/physical schema layers, domain ontologies, DBpedia
// synonyms) and an inverted index over the base data.
//
// Quick start:
//
//	sys := soda.NewSystem(soda.MiniBank(), soda.Options{})
//	ans, err := sys.Search("customers Zürich financial instruments")
//	for _, r := range ans.Results {
//	    fmt.Println(r.SQL)
//	    snippet, _ := r.Snippet()
//	    fmt.Println(snippet)
//	}
//
// Two ready-made worlds ship with the library: MiniBank, the paper's
// running example (§2, Figures 1-2), and Warehouse, a synthetic enterprise
// warehouse matching the paper's Table 1 complexity with the war-story
// quirks of §5.3 (bi-temporal historisation, bridge tables between
// inheritance siblings, cryptic physical names). Custom worlds are built
// with NewWorld from the building blocks in internal packages.
//
// This package is a thin facade: every operation has one implementation
// in internal/core and the methods here only translate types. Search,
// SearchWith, SearchRendered and SearchJSONContext all reach the
// pipeline through core's search (one raw-input cache probe, parse, the
// five steps, render, one store); ExecuteSQL and ExecuteSQLInContext
// through its single SQL-execution call.
package soda

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"sync"
	"time"

	"soda/internal/backend"
	"soda/internal/backend/memory"
	"soda/internal/backend/sqldb"
	"soda/internal/cluster"
	"soda/internal/core"

	// The in-tree database/sql drivers register themselves so
	// Options.Driver "sodalite" and "pgwire" work out of the box.
	_ "soda/internal/backend/pgwire"
	_ "soda/internal/backend/sqldriver"
	"soda/internal/invidx"
	"soda/internal/metagraph"
	"soda/internal/minibank"
	"soda/internal/obs"
	"soda/internal/sqlast"
	"soda/internal/store"
	"soda/internal/warehouse"
)

// Options tunes the pipeline; the zero value uses the paper's settings
// (top 10 ranked statements, 20-tuple snippets).
type Options struct {
	// TopN caps the ranked statements kept after step 2.
	TopN int
	// Parallelism is the worker-pool width for snippet execution, which
	// runs each ranked statement on the backend (0 = GOMAXPROCS, 1 =
	// sequential); the pipeline's five steps always run on the calling
	// goroutine, and the ranked output is identical either way.
	Parallelism int
	// CacheSize caps the answer cache in entries (0 = default 512,
	// negative = disabled). Cached answers are invalidated whenever
	// relevance feedback changes the ranking.
	CacheSize int
	// Dialect names the SQL dialect generated statements are rendered
	// in: "generic" (default), "postgres", "mysql" or "db2". It controls
	// identifier quoting, string escaping, row limiting (LIMIT vs FETCH
	// FIRST) and concatenation/date idioms. Unknown names fall back to
	// generic; validate with KnownDialect first when the name is user
	// input. Individual searches can override it via SearchOptions.
	Dialect string

	// Backend selects where generated SQL executes: "memory" (default)
	// runs the in-process reference engine over the world's own data;
	// "sqldb" drives a database/sql connection — the statements are
	// rendered in Dialect, sent as text and the rows scanned back.
	// NewSystem ignores this and always uses memory; Connect honors it.
	Backend string
	// Driver is the database/sql driver name for Backend "sqldb". Two
	// ship in-tree: "sodalite" (hermetic in-process database) and
	// "pgwire" (PostgreSQL). Builds that link other drivers can name
	// them here.
	Driver string
	// DSN is the data source name for Backend "sqldb", e.g.
	// "postgres://user:pw@host:5432/db" (pgwire) or "bank" (sodalite).
	DSN string
	// LoadCorpus forces loading the world's base data (CREATE TABLE +
	// INSERT) into the SQL backend even if its tables seem to exist.
	// Without it, Connect probes and loads only an empty target.
	LoadCorpus bool

	// Peers lists the base URLs of the other replicas in a fleet (e.g.
	// "http://replica-b:8080"). When set, Open starts a background tailer
	// that pulls each peer's feedback records over /cluster/pull and
	// applies them locally, so every replica converges on the same
	// learned rankings. Requires a persistent data dir (Open): Connect
	// rejects it, and NewSystem ignores it. Fleets should be full mesh:
	// every replica lists every other.
	Peers []string
	// ReplicaID is this replica's stable identity within the fleet. Empty
	// generates one on first open and persists it in the data dir;
	// non-empty binds the data dir to the given id (a later open with a
	// different id fails). Ids must be unique across the fleet.
	ReplicaID string
	// SyncInterval is how often the tailer polls each peer (default
	// 500ms). Lower values converge faster at the cost of more chatter.
	SyncInterval time.Duration
	// PeerDeadAfter bounds how long a configured peer can stay silent
	// before it stops gating feedback-WAL folding and compaction. 0 (the
	// default) keeps the conservative behaviour: a permanently-dead
	// -peers entry pins the WAL until an operator decommissions it
	// (System.Decommission or POST /admin/decommission). A positive
	// bound trades that safety for bounded staleness: peers silent
	// longer are folded past and re-enter through the catch-up path if
	// they return.
	PeerDeadAfter time.Duration
	// Logf, when set, receives replication diagnostics (unreachable
	// peers, catch-up adoptions). nil is silent.
	Logf func(format string, args ...any)
}

func (o Options) internal() core.Options {
	d, _ := sqlast.DialectByName(o.Dialect) // unknown names fall back to generic
	return core.Options{
		TopN:          o.TopN,
		Parallelism:   o.Parallelism,
		CacheSize:     o.CacheSize,
		PeerDeadAfter: o.PeerDeadAfter,
		Dialect:       d,
	}
}

// Dialects lists the supported SQL dialect names.
func Dialects() []string { return sqlast.DialectNames() }

// KnownDialect reports whether name is a supported SQL dialect (the
// empty string counts: it means generic).
func KnownDialect(name string) bool {
	_, ok := sqlast.DialectByName(name)
	return ok
}

// World bundles the three artefacts SODA searches: the relational base
// data, the extended metadata graph, and the inverted index over text
// columns. The index is built on first use, so a System can build it on
// its own goroutine while Warm compiles the rest.
type World struct {
	db        *backend.DB
	meta      *metagraph.Graph
	index     *invidx.Index
	indexOnce sync.Once
	name      string
}

// NewWorld wraps custom substrates into a World. Most callers use
// MiniBank or Warehouse instead. A nil index is built lazily from the
// base data on first use.
func NewWorld(name string, db *backend.DB, meta *metagraph.Graph, index *invidx.Index) *World {
	return &World{db: db, meta: meta, index: index, name: name}
}

// Name identifies the world ("minibank", "warehouse", ...).
func (w *World) Name() string { return w.name }

// DB exposes the in-memory dataset holding the base data (the corpus a
// SQL backend is loaded from).
func (w *World) DB() *backend.DB { return w.db }

// Meta exposes the metadata graph.
func (w *World) Meta() *metagraph.Graph { return w.meta }

// Index exposes the inverted index, building it on first use when the
// world was constructed without one.
func (w *World) Index() *invidx.Index {
	w.indexOnce.Do(func() {
		if w.index == nil {
			w.index = invidx.Build(w.db)
		}
	})
	return w.index
}

// TableNames lists the physical tables.
func (w *World) TableNames() []string { return w.db.TableNames() }

// Stats summarises metadata-graph complexity (the paper's Table 1 shape).
func (w *World) Stats() metagraph.Stats { return w.meta.Stats() }

// MiniBank builds the paper's running example world (§2): parties with
// individuals and organizations, transactions split into financial
// instrument and money transactions, instruments containing securities
// through a bridge table, a financial domain ontology and a DBpedia
// extract. The inverted index is built lazily (see World.Index).
func MiniBank() *World {
	w := minibank.BuildNoIndex(minibank.Default())
	return &World{db: w.DB, meta: w.Meta, name: "minibank"}
}

// WarehouseConfig re-exports the synthetic warehouse knobs.
type WarehouseConfig = warehouse.Config

// Warehouse builds the enterprise-scale synthetic warehouse matching the
// paper's Table 1 cardinalities (226/985/243 conceptual, 436/2700/254
// logical, 472/3181 physical) with the §5.3 war-story quirks planted.
// The inverted index is built lazily (see World.Index).
func Warehouse(cfg WarehouseConfig) *World {
	w := warehouse.BuildNoIndex(cfg)
	return &World{db: w.DB, meta: w.Meta, name: "warehouse"}
}

// System is a SODA instance over one world.
type System struct {
	world  *World
	sys    *core.System
	tailer *cluster.Tailer // nil unless Options.Peers configured
}

// NewSystem builds a System without persistence: derived state (the
// inverted index) is built cold, on its own goroutine beside Warm,
// feedback lives in memory only, and SQL executes on the in-memory
// backend regardless of Options.Backend. Use Connect for a System on a
// selectable backend and Open for one whose state survives restarts.
func NewSystem(w *World, opt Options) *System {
	cs := core.NewSystemIndexing(memory.New(w.db), w.meta, w.Index, opt.internal())
	cs.SetLogger(obs.NewLogger(opt.Logf))
	return &System{world: w, sys: cs}
}

// Connect builds a System on the execution backend selected by
// Options.Backend/Driver/DSN. For "sqldb" the world's corpus is loaded
// into the target database when its tables are missing (always when
// Options.LoadCorpus is set), so the same five-step pipeline runs
// end-to-end against a real warehouse: generated statements are rendered
// in Options.Dialect, executed over the wire, and snippets scanned back.
func Connect(w *World, opt Options) (*System, error) {
	if len(opt.Peers) > 0 {
		return nil, errors.New("soda: cluster replication (Options.Peers) requires a persistent data dir — use Open")
	}
	ex, err := newExecutor(w, opt)
	if err != nil {
		return nil, err
	}
	cs := core.NewSystemIndexing(ex, w.meta, w.Index, opt.internal())
	cs.SetLogger(obs.NewLogger(opt.Logf))
	return &System{world: w, sys: cs}, nil
}

// newExecutor builds (and for SQL backends, loads) the executor named by
// the options.
func newExecutor(w *World, opt Options) (backend.Executor, error) {
	switch opt.Backend {
	case "", "memory":
		return memory.New(w.db), nil
	case "sqldb":
		d, ok := sqlast.DialectByName(opt.Dialect)
		if !ok {
			return nil, fmt.Errorf("soda: unknown dialect %q (supported: %s)",
				opt.Dialect, strings.Join(Dialects(), ", "))
		}
		if opt.Driver == "" {
			return nil, errors.New(`soda: backend "sqldb" needs Options.Driver (e.g. "sodalite", "pgwire")`)
		}
		ex, err := sqldb.Open(opt.Driver, opt.DSN, d)
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		if opt.LoadCorpus {
			err = ex.Load(ctx, w.db)
		} else {
			err = ex.EnsureLoaded(ctx, w.db)
		}
		if err != nil {
			ex.Close()
			return nil, err
		}
		return ex, nil
	default:
		return nil, fmt.Errorf("soda: unknown backend %q (want memory or sqldb)", opt.Backend)
	}
}

// Backends lists the supported execution backend names.
func Backends() []string { return []string{"memory", "sqldb"} }

// Backend identifies the execution backend this System runs on
// ("memory", "sqldb:pgwire:…").
func (s *System) Backend() string { return s.sys.Backend.Name() }

// Open builds a System backed by a persistent state store in dir — the
// production lifecycle ("open the store, replay the tail"). The index
// and the metadata graph are built as Connect builds them; dir holds only
// durable state:
//
//   - A valid snapshot in dir restores the feedback map, the saved-query
//     library and the replication vector.
//   - The feedback WAL tail is replayed on top, so feedback recorded
//     after the last snapshot is not lost; snapshots remember the last
//     applied WAL sequence, so replay can never double-apply.
//   - A missing, stale (format version or world mismatch) or corrupt
//     snapshot is ignored: the WAL replays onto empty state, and the next
//     snapshot written replaces the file.
//   - Every Feedback call from then on is WAL-logged (fsync-batched);
//     once the log passes the compaction threshold a new snapshot is
//     written and the log truncated.
//
// Close flushes a final snapshot — call it on graceful shutdown.
func Open(w *World, opt Options, dir string) (*System, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	// The data dir carries a stable replica identity (generated on first
	// open); every WAL record is stamped with it, so a fleet can tell
	// each replica's feedback apart.
	replicaID, err := st.ReplicaID(opt.ReplicaID)
	if err != nil {
		st.Close()
		return nil, err
	}
	fp := worldFingerprint(w)
	snap, err := st.LoadSnapshot(fp)
	if err != nil {
		st.Close()
		return nil, err
	}
	ex, err := newExecutor(w, opt)
	if err != nil {
		st.Close()
		return nil, err
	}
	cs := core.NewSystemIndexing(ex, w.meta, w.Index, opt.internal())
	cs.SetLogger(obs.NewLogger(opt.Logf))
	if err := cs.OpenStore(st, snap, replicaID, len(opt.Peers), fp); err != nil {
		st.Close()
		if c, ok := ex.(io.Closer); ok {
			c.Close() // release the sqldb connection pool
		}
		return nil, err
	}
	sys := &System{world: w, sys: cs}
	if len(opt.Peers) > 0 {
		sys.tailer = cluster.NewTailer(cluster.Config{
			Local:    cs,
			Peers:    opt.Peers,
			Interval: opt.SyncInterval,
			Log:      cs.Logger().With("cluster"),
		})
		sys.registerClusterMetrics(opt.Peers)
		// One best-effort blocking round before serving: a replica that
		// (re)joins a running fleet catches up — and learns the fleet's
		// Lamport clocks — before it takes feedback of its own. Peers that
		// are not up yet fail fast and are retried by the background loop.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		sys.tailer.SyncOnce(ctx)
		cancel()
		sys.tailer.Start()
	}
	return sys, nil
}

// Metrics returns the System's metric registry — the counters, gauges
// and latency histograms every layer (pipeline, cache, backend, store,
// cluster, HTTP server) registers into. Serve it with Registry.WriteText
// (the server's GET /metrics does exactly that).
func (s *System) Metrics() *obs.Registry { return s.sys.MetricsRegistry() }

// worldFingerprint hashes the world's structure — name, table schemas,
// row counts, metadata-graph size — so a snapshot taken over a different
// world (or a reconfigured one) is rejected instead of restoring
// feedback keyed to another world's nodes and columns. The hash is structural, not content-deep: regenerating the
// same deterministic world yields the same fingerprint cheaply.
func worldFingerprint(w *World) uint64 {
	h := fnv.New64a()
	io.WriteString(h, w.name)
	for _, name := range w.db.TableNames() {
		tbl := w.db.Table(name)
		fmt.Fprintf(h, "|%s:%d", name, tbl.NumRows())
		for _, c := range tbl.Cols {
			fmt.Fprintf(h, ",%s/%d", c.Name, c.Type)
		}
	}
	fmt.Fprintf(h, "|triples:%d|labels:%d", w.meta.G.Len(), w.meta.NumLabels())
	return h.Sum64()
}

// Close flushes persistent state (final snapshot + WAL sync), releases
// the store, and closes the execution backend when it holds connections
// (sqldb). In a fleet the peer tailer is stopped *first* — Stop blocks
// until its goroutine has exited, so no in-flight remote apply can land
// on a closing store and nothing leaks. A System built with NewSystem
// closes trivially.
func (s *System) Close() error {
	if s.tailer != nil {
		s.tailer.Stop()
	}
	err := s.sys.Close()
	if c, ok := s.sys.Backend.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// StoreStats re-exports the persistent-store diagnostics; WarmStart says
// whether the System's durable state came from a snapshot.
type StoreStats = core.StoreStats

// StoreStats describes the attached state store, or nil when the System
// was built without persistence (NewSystem).
func (s *System) StoreStats() *StoreStats { return s.sys.StoreStats() }

// Snapshot persists the current durable state and compacts the feedback
// WAL — the /admin/snapshot operation. It fails when the System has no
// store attached.
func (s *System) Snapshot() (*StoreStats, error) {
	if _, err := s.sys.WriteSnapshot(); err != nil {
		return nil, err
	}
	return s.sys.StoreStats(), nil
}

// World returns the system's world.
func (s *System) World() *World { return s.world }

// ExecCount reports how many SQL statements the engine has executed for
// this System (snippets, Execute, ExecuteSQL). Cache hits execute
// nothing, so the counter exposes snippet-cache effectiveness.
func (s *System) ExecCount() uint64 { return s.sys.ExecCount() }

// CacheStats re-exports the answer-cache counters.
type CacheStats = core.CacheStats

// CacheStats reports answer-cache hits, misses and current size (zero
// when caching is disabled via Options.CacheSize < 0).
func (s *System) CacheStats() CacheStats { return s.sys.CacheStats() }

// Warm builds the derived structures (the compiled schema model, the join
// graph, the bridge tables and Step 1's label hits) so the first search
// pays only the per-query pipeline cost. A System fresh from NewSystem,
// Connect or Open builds its inverted index meanwhile, on another
// goroutine; Warm compiles the rest beside it and then waits for it.
// Warm is idempotent.
func (s *System) Warm() { s.sys.Warm() }

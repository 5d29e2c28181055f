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
// SearchWith and SearchRenderedContext all reach the pipeline through
// core's single search path (raw-key cache probe, parse, canonical-key
// probe, the five steps, render, store); ExecuteSQL and
// ExecuteSQLInContext through its single SQL-execution call.
package soda

import (
	"context"
	"encoding/json"
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
	"soda/internal/queryparse"
	"soda/internal/sqlast"
	"soda/internal/sqlparse"
	"soda/internal/store"
	"soda/internal/warehouse"
)

// Options tunes the pipeline; the zero value uses the paper's settings
// (top 10 ranked statements, 20-tuple snippets).
type Options struct {
	// TopN caps the ranked statements kept after step 2.
	TopN int
	// SnippetRows caps snippet execution ("up to twenty tuples").
	SnippetRows int
	// MaxSolutions caps the combinatorial lookup product.
	MaxSolutions int
	// MaxPathLen bounds join-path search between entry points in edges
	// (0 = unbounded); the §5.3.1 "far-fetching" trade-off.
	MaxPathLen int
	// Parallelism is the worker-pool width for the per-solution pipeline
	// steps 3-5 (0 = GOMAXPROCS, 1 = sequential); the ranked output is
	// identical either way.
	Parallelism int
	// CacheSize caps the answer cache in entries (0 = default 512,
	// negative = disabled). Cached answers are invalidated whenever
	// relevance feedback changes the ranking.
	CacheSize int
	// CompactEvery is the feedback-WAL compaction threshold for Systems
	// built with Open: once the log holds this many records a snapshot
	// is written and the log truncated (0 = default 1024, negative =
	// only on Close / explicit Snapshot).
	CompactEvery int
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
	// learned rankings. Requires a persistent data dir (Open); Connect
	// and NewSystem reject it. Fleets should be full mesh: every replica
	// lists every other.
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

	// Ablations (see DESIGN.md).
	DisableBridges bool // skip bridge-table discovery
	DisableDBpedia bool // drop DBpedia entry points
	UniformRanking bool // ignore the metadata-layer ranking heuristic
	AllJoins       bool // keep every join, not only direct paths (Fig. 9)
}

func (o Options) internal() core.Options {
	d, _ := sqlast.DialectByName(o.Dialect) // unknown names fall back to generic
	return core.Options{
		TopN:           o.TopN,
		SnippetRows:    o.SnippetRows,
		MaxSolutions:   o.MaxSolutions,
		MaxPathLen:     o.MaxPathLen,
		Parallelism:    o.Parallelism,
		CacheSize:      o.CacheSize,
		CompactEvery:   o.CompactEvery,
		PeerDeadAfter:  o.PeerDeadAfter,
		Dialect:        d,
		DisableBridges: o.DisableBridges,
		DisableDBpedia: o.DisableDBpedia,
		UniformRanking: o.UniformRanking,
		AllJoins:       o.AllJoins,
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
// columns. The index — the most expensive derived structure — is built
// lazily on first use, so Open can boot from a state-store snapshot
// without ever paying the cold scan.
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
// extract. The inverted index is built lazily (see World.Index), so Open
// can restore it from a snapshot instead.
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
// inverted index) is built cold, feedback lives in memory only, and SQL
// executes on the in-memory backend regardless of Options.Backend. Use
// Connect for a System on a selectable backend and Open for one whose
// state survives restarts.
func NewSystem(w *World, opt Options) *System {
	cs := core.NewSystem(memory.New(w.db), w.meta, w.Index(), opt.internal())
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
	cs := core.NewSystem(ex, w.meta, w.Index(), opt.internal())
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
// production lifecycle ("open the store, replay the tail" instead of
// "rebuild the world every boot"):
//
//   - A valid snapshot in dir replaces the cold inverted-index build and
//     metadata graph, and restores the feedback map and ranking epoch.
//   - The feedback WAL tail is replayed on top, so feedback recorded
//     after the last snapshot is not lost; snapshots remember the last
//     applied WAL sequence, so replay can never double-apply.
//   - A missing, stale (format version or world mismatch) or corrupt
//     snapshot degrades to a cold rebuild, and a fresh snapshot is
//     written immediately so the next boot is warm.
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
	if snap != nil {
		// Warm boot: the snapshot's derived state stands in for the cold
		// rebuild. The base data itself is regenerated by the world
		// builder (it is not derived state), and the fingerprint check
		// guarantees the snapshot indexes this exact schema. The world is
		// repointed at the snapshot's copies so the builder's metagraph
		// becomes garbage instead of a second warehouse-scale graph
		// pinned for the process lifetime, and World.Index never does
		// the cold scan.
		w.meta, w.index = snap.Meta, snap.Index
	}
	ex, err := newExecutor(w, opt)
	if err != nil {
		st.Close()
		return nil, err
	}
	cs := core.NewSystem(ex, w.meta, w.Index(), opt.internal())
	cs.SetLogger(obs.NewLogger(opt.Logf))
	cs.SetFingerprint(fp)
	cs.SetReplica(replicaID, len(opt.Peers))
	if err := cs.OpenStore(st, snap); err != nil {
		st.Close()
		if c, ok := ex.(io.Closer); ok {
			c.Close() // release the sqldb connection pool
		}
		return nil, err
	}
	sys := &System{world: w, sys: cs}
	if len(opt.Peers) > 0 {
		sys.tailer = cluster.NewTailer(cluster.Config{
			Local:    clusterLocal{cs},
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

// registerClusterMetrics exposes per-peer replication lag as gauges read
// from the tailer's status at scrape time:
//
//	soda_cluster_peer_records_behind{peer}        records applied by the
//	                                              peer but not yet here
//	soda_cluster_peer_last_contact_seconds{peer}  seconds since the last
//	                                              successful pull; -1
//	                                              until first contact
func (s *System) registerClusterMetrics(peers []string) {
	reg := s.sys.MetricsRegistry()
	for _, peer := range peers {
		pl := obs.Label{Name: "peer", Value: peer}
		addr := peer
		reg.GaugeFunc("soda_cluster_peer_records_behind",
			"Feedback records the peer has applied that this replica has not.",
			func() float64 {
				if st, ok := s.tailer.Status(addr); ok {
					return float64(st.RecordsBehind)
				}
				return 0
			}, pl)
		reg.GaugeFunc("soda_cluster_peer_last_contact_seconds",
			"Seconds since the last successful pull from the peer (-1 before first contact).",
			func() float64 {
				st, ok := s.tailer.Status(addr)
				if !ok || st.LastContact.IsZero() {
					return -1
				}
				return time.Since(st.LastContact).Seconds()
			}, pl)
	}
}

// clusterLocal adapts core.System to the tailer's Local interface.
type clusterLocal struct{ sys *core.System }

func (c clusterLocal) ReplicaID() string                            { return c.sys.ReplicaID() }
func (c clusterLocal) AppliedVector() store.Vector                  { return c.sys.AppliedVector() }
func (c clusterLocal) ApplyRemote(recs []store.Record) (int, error) { return c.sys.ApplyRemote(recs) }
func (c clusterLocal) AdoptState(st *store.ReplicaState) error      { return c.sys.AdoptClusterState(st) }
func (c clusterLocal) NoteOriginClock(origin string, lc uint64)     { c.sys.NoteOriginClock(origin, lc) }

// worldFingerprint hashes the world's structure — name, table schemas,
// row counts, metadata-graph size — so a snapshot taken over a different
// world (or a reconfigured one) is rejected instead of serving wrong
// postings. The hash is structural, not content-deep: regenerating the
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
// whether the System booted from a snapshot.
type StoreStats = core.StoreStats

// StoreStats describes the attached state store, or nil when the System
// was built without persistence (NewSystem).
func (s *System) StoreStats() *StoreStats { return s.sys.StoreStats() }

// Snapshot persists the current derived state and compacts the feedback
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

// --- cluster replication ------------------------------------------------

// ReplicationInfo re-exports the local replication diagnostics (replica
// id, applied vector, unfolded tail size).
type ReplicationInfo = core.ReplicationInfo

// PeerStatus re-exports one peer's replication health (lag in records,
// last contact, last error).
type PeerStatus = cluster.PeerStatus

// ClusterStatus is the /healthz cluster block: the local replication
// state plus per-peer lag.
type ClusterStatus struct {
	ReplicationInfo
	Peers []PeerStatus `json:"peers,omitempty"`
}

// ClusterStatus reports the replication state, or nil for a System
// without a persistent store (replication needs record identities, which
// need a data dir).
func (s *System) ClusterStatus() *ClusterStatus {
	info := s.sys.ReplicationInfo()
	if info == nil {
		return nil
	}
	cs := &ClusterStatus{ReplicationInfo: *info}
	if s.tailer != nil {
		cs.Peers = s.tailer.Peers()
	}
	return cs
}

// ReplicaID returns this System's replication identity ("local" for a
// store-less System).
func (s *System) ReplicaID() string { return s.sys.ReplicaID() }

// Decommission permanently removes a peer replica from the feedback fold
// quorum, letting WAL folding and compaction advance past a peer that is
// never coming back (the /admin/decommission endpoint calls this; see
// also Options.PeerDeadAfter for the automatic bounded-staleness
// variant). A decommissioned peer that does return finds itself behind
// the fold point and adopts the folded state through the normal catch-up
// path. Decommissioning the local replica is refused.
func (s *System) Decommission(replicaID string) error {
	return s.sys.DecommissionReplica(replicaID)
}

// ClearReplicaIdentity removes the persisted replica id from a (closed)
// data directory. Pre-baked directories that will be copied to several
// fleet members must not ship one identity; after clearing, each replica
// mints its own on first boot. Never call it on a directory that has
// already produced feedback records as part of a fleet — the id must
// stay stable for the per-origin sequences the peers have applied.
func ClearReplicaIdentity(dir string) error { return store.ClearReplicaID(dir) }

// AppliedVector returns the replication vector: per origin, the highest
// contiguous record sequence applied.
func (s *System) AppliedVector() map[string]uint64 { return s.sys.AppliedVector() }

// ClusterPull serves one replication pull (the /cluster/pull endpoint):
// the retained feedback records beyond the requester's vector, or — when
// the requester fell behind this replica's fold point — the folded state
// to adopt. The requester's vector doubles as its acknowledgement, which
// gates local WAL compaction (a record is only compacted away once every
// peer holds it).
func (s *System) ClusterPull(from string, since map[string]uint64, limit int) (*cluster.PullResponse, error) {
	info := s.sys.ReplicationInfo()
	if info == nil {
		return nil, errors.New("soda: replication requires a persistent data dir (-data-dir)")
	}
	if from != "" {
		if err := store.ValidReplicaID(from); err != nil {
			return nil, err
		}
		s.sys.NoteAck(from, since)
	}
	recs, behind, more := s.sys.RecordsSince(since, limit)
	resp := &cluster.PullResponse{
		Origin: info.ReplicaID,
		Vector: info.Vector,
		LC:     info.Lamport,
		More:   more,
	}
	if behind {
		resp.Behind = true
		resp.State = cluster.StateToWire(s.sys.ClusterState())
	} else {
		resp.Records = cluster.ToWireRecords(recs)
	}
	return resp, nil
}

// SavedQuery is one approved parameterized query in the library: the
// registry key, the human description search keywords match against, the
// SQL in the generic dialect with placeholders (? in occurrence order,
// or $1..$n each used once), and one parameter spec per placeholder.
type SavedQuery = store.SavedQuery

// SavedParam declares one binding of a saved query: a name, a type
// ("string", "int", "float", "date" or "bool") and an optional default.
type SavedParam = store.SavedParam

// RegisterQuery adds (or replaces) a saved parameterized query in the
// library — the admin half of the approved-query workflow. The query is
// validated and canonicalised (the SQL must parse, with one parameter
// spec per placeholder), WAL-logged when a store is attached, replicated
// to fleet peers, and from then on ranked by Search whenever the input
// keywords cover the query's name. Saved queries execute exclusively
// through the backend's prepared-statement path.
func (s *System) RegisterQuery(q SavedQuery) error { return s.sys.RegisterQuery(q) }

// DeleteSavedQuery removes a saved query from the library.
func (s *System) DeleteSavedQuery(name string) error { return s.sys.DeleteQuery(name) }

// SavedQueries lists the library sorted by name.
func (s *System) SavedQueries() []SavedQuery { return s.sys.SavedQueries() }

// SavedQuery returns one library entry by name.
func (s *System) SavedQuery(name string) (SavedQuery, bool) { return s.sys.SavedQueryByName(name) }

// QueriesFromJSON parses a saved-query library file: a JSON array of
//
//	{"name": "...", "description": "...", "sql": "select ... where x = $1",
//	 "params": [{"name": "city", "type": "string", "default": "Zurich"}]}
//
// A parameter's "default" may be omitted to make it required (a search
// that cannot bind it skips the query). This is the file format behind
// the soda/sodad -queries flag; entries still go through RegisterQuery
// validation.
func QueriesFromJSON(data []byte) ([]SavedQuery, error) {
	type paramJSON struct {
		Name    string  `json:"name"`
		Type    string  `json:"type"`
		Default *string `json:"default"`
	}
	type queryJSON struct {
		Name        string      `json:"name"`
		Description string      `json:"description"`
		SQL         string      `json:"sql"`
		Params      []paramJSON `json:"params"`
	}
	var raw []queryJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("soda: parsing query library: %w", err)
	}
	out := make([]SavedQuery, 0, len(raw))
	for _, qj := range raw {
		q := SavedQuery{Name: qj.Name, Description: qj.Description, SQL: qj.SQL}
		for _, p := range qj.Params {
			sp := SavedParam{Name: p.Name, Type: p.Type}
			if p.Default != nil {
				sp.Default = *p.Default
				sp.HasDefault = true
			}
			q.Params = append(q.Params, sp)
		}
		out = append(out, q)
	}
	return out, nil
}

// ParamBinding is one bound parameter of an approved result: the
// declared name and type, the bound value rendered as text, and whether
// it came from the query's default rather than the search input.
type ParamBinding struct {
	Name        string `json:"name"`
	Type        string `json:"type"`
	Value       string `json:"value"`
	FromDefault bool   `json:"from_default,omitempty"`
}

// Result is one ranked, executable SQL statement.
type Result struct {
	// SQL is the generated statement text; parse it back or hand it to
	// Execute — it is guaranteed to round-trip.
	SQL string
	// Score is the ranking score from the entry-point heuristic.
	Score float64
	// Tables is the tables-step discovery output (Figure 6); FromTables
	// is the pruned FROM list of the statement.
	Tables     []string
	FromTables []string
	// Joins and Filters describe the statement's WHERE building blocks.
	Joins   []string
	Filters []string
	// Disconnected warns that no join path connected all entry points
	// (the SQL contains a cross product).
	Disconnected bool
	// SnippetRows holds the cached snippet when the search asked for
	// snippets (SearchOptions.Snippets): rows executed once with the
	// analysis and served from the answer cache afterwards. nil when the
	// search did not request snippets — call Snippet() to execute.
	SnippetRows *Rows
	// SnippetError reports why snippet execution failed, when it did.
	SnippetError string

	// Approved marks a result drawn from the saved-query library rather
	// than generated by the pipeline; QueryName is the library key and
	// Params the bindings extracted from the search input (or defaults).
	// The SQL field shows the parameterized statement — Execute and
	// Snippet run it through the backend's prepared-statement path with
	// the bound values, never interpolated into the text.
	Approved  bool
	QueryName string
	Params    []ParamBinding

	sys      *core.System
	sol      *core.Solution
	analysis *core.Analysis
}

// Execute runs the statement and returns the full result.
func (r *Result) Execute() (*Rows, error) {
	res, err := r.sys.Execute(context.Background(), r.sol)
	if err != nil {
		return nil, err
	}
	return newRows(res), nil
}

// Snippet returns the statement's result snippet, like the paper's
// result page ("up to twenty tuples"): rows cached by a snippet search
// are served without executing anything, otherwise the statement runs
// with the snippet row cap. The returned rows are always a private copy
// (cached rows are shared across cache hits).
func (r *Result) Snippet() (*Rows, error) {
	res, err := r.sys.Snippet(r.sol)
	if err != nil {
		return nil, err
	}
	return newRowsCopy(res), nil
}

// Rows is a materialised query result with display helpers.
type Rows struct {
	Columns []string
	Values  [][]backend.Value
}

func newRows(res *backend.Result) *Rows {
	return &Rows{Columns: res.Columns, Values: res.Rows}
}

// newRowsCopy deep-copies an engine result before exposing it. Cached
// snippet rows are shared by every answer-cache hit, and Rows' fields
// are exported and mutable — handing out the shared slices would let
// one caller corrupt the cache for everyone else.
func newRowsCopy(res *backend.Result) *Rows {
	cols := append([]string(nil), res.Columns...)
	vals := make([][]backend.Value, len(res.Rows))
	for i, row := range res.Rows {
		vals[i] = append([]backend.Value(nil), row...)
	}
	return &Rows{Columns: cols, Values: vals}
}

// NumRows reports the row count.
func (r *Rows) NumRows() int { return len(r.Values) }

// String renders an aligned text table.
func (r *Rows) String() string {
	var b strings.Builder
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Values))
	for ri, row := range r.Values {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			cells[ri][ci] = v.String()
			if ci < len(widths) && len(cells[ri][ci]) > widths[ci] {
				widths[ci] = len(cells[ri][ci])
			}
		}
	}
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Answer is the outcome of one search: the ranked results plus the
// classification details of Figure 5.
type Answer struct {
	// Complexity is the combinatorial entry-point product (Table 4).
	Complexity int
	// Terms are the recognised lookup terms after longest-combination
	// segmentation; Ignored lists words matching nothing.
	Terms   []string
	Ignored []string
	// Results are the ranked SQL statements, best first.
	Results []*Result

	analysis *core.Analysis
}

// Explain renders the full pipeline trace (Figures 4-6) for the answer.
func (a *Answer) Explain() string { return core.Explain(a.analysis) }

// Timings re-exports the per-step pipeline durations (Table 4's split).
type Timings = core.Timings

// Timings reports how long each pipeline step took for this answer. For
// an answer served from the cache these are the durations of the original
// pipeline run that produced it.
func (a *Answer) Timings() Timings { return a.analysis.Timings }

// Search runs the five-step pipeline on a keyword/operator query written
// in the paper's input language (§4.3):
//
//	wealthy customers Zürich
//	salary >= 100000 and birth date = date(1981-04-23)
//	sum (amount) group by (transaction date)
//	top 10 trading volume customer
func (s *System) Search(query string) (*Answer, error) {
	return s.SearchWith(query, SearchOptions{})
}

// SearchOptions are per-search knobs layered over the System's Options.
type SearchOptions struct {
	// Dialect renders the generated SQL for a specific backend
	// ("generic", "postgres", "mysql", "db2"); empty uses the System's
	// Options.Dialect. Unknown names are an error.
	Dialect string
	// Snippets executes each result with the snippet row cap during the
	// pipeline and caches the rows with the answer: repeated snippet
	// searches are served entirely from the cache, zero SQL executions.
	Snippets bool
}

// coreSearchOptions resolves public SearchOptions into the core form,
// rejecting unknown dialect names.
func coreSearchOptions(opts SearchOptions) (core.SearchOptions, error) {
	d, err := requestDialect(opts.Dialect)
	return core.SearchOptions{Dialect: d, Snippets: opts.Snippets}, err
}

// requestDialect resolves a per-request dialect name: empty is nil — the
// System's configured dialect — and unknown names are an error.
func requestDialect(name string) (*sqlast.Dialect, error) {
	if name == "" {
		return nil, nil
	}
	d, ok := sqlast.DialectByName(name)
	if !ok {
		return nil, fmt.Errorf("soda: unknown dialect %q (supported: %s)",
			name, strings.Join(Dialects(), ", "))
	}
	return d, nil
}

// SearchWith is Search with per-request options: a target SQL dialect
// and/or cached snippet execution.
func (s *System) SearchWith(query string, opts SearchOptions) (*Answer, error) {
	so, err := coreSearchOptions(opts)
	if err != nil {
		return nil, err
	}
	a, err := s.sys.SearchWith(query, so)
	if err != nil {
		return nil, err
	}
	return s.answerOf(a), nil
}

// SearchRendered is SearchRenderedContext with a background context.
func (s *System) SearchRendered(query string, opts SearchOptions, render func(*Answer) ([]byte, error)) (data []byte, hit bool, err error) {
	return s.SearchRenderedContext(context.Background(), query, opts, render)
}

// SearchRenderedContext is the serving layer's hot path. On a repeat of a
// query already rendered (same raw query string, dialect and snippet
// flag, ranking unchanged since) it returns the exact bytes previously
// produced by render — no pipeline, no re-encode, zero heap allocations,
// ctx untouched — with hit=true. Otherwise it searches (ctx flows into
// the pipeline's backend executions: cancellation plus the request's
// trace-span collector), calls render on the answer, caches the returned
// bytes alongside the analysis and returns them with hit=false. The
// sequence itself lives in core.SearchRenderedContext; this only adapts
// render from the core analysis to the public Answer. The returned bytes
// are shared with the cache: callers must write them out unmodified.
func (s *System) SearchRenderedContext(ctx context.Context, query string, opts SearchOptions, render func(*Answer) ([]byte, error)) (data []byte, hit bool, err error) {
	so, err := coreSearchOptions(opts)
	if err != nil {
		return nil, false, err
	}
	return s.sys.SearchRenderedContext(ctx, query, so, func(a *core.Analysis) ([]byte, error) {
		return render(s.answerOf(a))
	})
}

// answerOf wraps a completed core analysis in the public Answer shape.
func (s *System) answerOf(a *core.Analysis) *Answer {
	ans := &Answer{Complexity: a.Complexity, Ignored: a.Ignored, analysis: a}
	for _, t := range a.Terms {
		ans.Terms = append(ans.Terms, t.Text)
	}
	for _, sol := range a.Solutions {
		sql := sol.SQLText()
		if sql == "" {
			continue
		}
		res := &Result{
			SQL:          sql,
			Score:        sol.Score,
			Tables:       append([]string(nil), sol.Tables...),
			FromTables:   append([]string(nil), sol.SQLTables...),
			Disconnected: sol.Disconnected,
			SnippetError: sol.SnippetErr,
			sys:          s.sys,
			sol:          sol,
			analysis:     a,
		}
		if sol.Approved {
			res.Approved = true
			res.QueryName = sol.QueryName
			for _, b := range sol.Bindings {
				res.Params = append(res.Params, ParamBinding{
					Name: b.Name, Type: b.Type, Value: b.Value.String(), FromDefault: b.FromDefault,
				})
			}
		}
		if sol.Snippet != nil {
			res.SnippetRows = newRowsCopy(sol.Snippet)
		}
		for _, j := range sol.Joins {
			res.Joins = append(res.Joins, j.String())
		}
		for _, f := range sol.Filters {
			res.Filters = append(res.Filters, f.String())
		}
		ans.Results = append(ans.Results, res)
	}
	return ans
}

// ParseQuery exposes the input-pattern parser for tooling; most callers
// just use Search.
func ParseQuery(query string) (*queryparse.Query, error) {
	return queryparse.Parse(query)
}

// ExecuteSQL runs an arbitrary SQL statement (the engine's subset) against
// the world — the schema-exploration workflow of §5.3.2 where analysts
// take SODA's statements and refine them by hand. The statement is read
// in the System's configured dialect.
func (s *System) ExecuteSQL(sql string) (*Rows, error) {
	return s.ExecuteSQLInContext(context.Background(), "", sql)
}

// ExecuteSQLInContext runs a statement written in the named dialect
// (empty = the System's configured dialect; unknown names are an error).
// ctx carries cancellation and trace-span capture into the backend
// execution.
func (s *System) ExecuteSQLInContext(ctx context.Context, dialect, sql string) (*Rows, error) {
	d, err := requestDialect(dialect)
	if err != nil {
		return nil, err
	}
	res, err := s.sys.ExecSQL(ctx, sql, d)
	if err != nil {
		return nil, err
	}
	return newRows(res), nil
}

// ExecCount reports how many SQL statements the engine has executed for
// this System (snippets, Execute, ExecuteSQL). Cache hits execute
// nothing, so the counter exposes snippet-cache effectiveness.
func (s *System) ExecCount() uint64 { return s.sys.ExecCount() }

// Like records positive relevance feedback on a result: the entry points
// behind it rank higher in future searches (§6.3: "SODA presents several
// possible solutions to its users and allows them to like (or dislike)
// each result").
//
// Feedback is epoch-checked: if other feedback re-ranked the system since
// this result's search, the statement is re-resolved against a fresh
// search before the feedback is applied, so it lands on the entry points
// of the statement the user actually saw. An error is returned when the
// statement no longer appears in the answer, or when persisting the
// feedback to the state store fails.
func (r *Result) Like() error { return r.feedback(true) }

// Dislike records negative relevance feedback on a result. See Like for
// the epoch-check and re-resolution semantics.
func (r *Result) Dislike() error { return r.feedback(false) }

func (r *Result) feedback(like bool) error {
	err := r.sys.Feedback(r.sol, like)
	var stale *core.StaleSolutionError
	// The ranking epoch moved between our search and this feedback call
	// (another user's like, a reset, ...). Re-resolve: re-run the search
	// — served at the current epoch — find the same statement, and apply
	// the feedback to its solution. Bounded retries cover epochs racing
	// forward while we resolve.
	for attempt := 0; errors.As(err, &stale) && attempt < 4; attempt++ {
		a, serr := r.sys.SearchWith(r.analysis.Query.Raw, core.SearchOptions{
			Dialect:  r.analysis.Dialect,
			Snippets: r.analysis.WithSnippets,
		})
		if serr != nil {
			return fmt.Errorf("soda: re-resolving stale feedback: %w", serr)
		}
		var match *core.Solution
		for _, sol := range a.Solutions {
			if sol.SQLText() == r.SQL {
				match = sol
				break
			}
		}
		if match == nil {
			return fmt.Errorf("soda: feedback target no longer in the answer (re-ranked since): %w", err)
		}
		err = r.sys.Feedback(match, like)
	}
	return err
}

// ResetFeedback forgets all relevance feedback recorded on this system.
// With a state store attached the reset is WAL-logged so it also survives
// restarts.
func (s *System) ResetFeedback() error { return s.sys.ResetFeedback() }

// StaleFeedbackError reports feedback on a result whose ranking epoch has
// moved on and whose statement could not be re-resolved in the fresh
// answer. Like/Dislike re-resolve transparently first; callers only see
// this when the statement genuinely left the ranked list.
type StaleFeedbackError = core.StaleSolutionError

// CacheStats re-exports the answer-cache counters.
type CacheStats = core.CacheStats

// CacheStats reports answer-cache hits, misses and current size (zero
// when caching is disabled via Options.CacheSize < 0).
func (s *System) CacheStats() CacheStats { return s.sys.CacheStats() }

// Warm precomputes the join-graph and bridge caches so the first search
// pays only the per-query pipeline cost.
func (s *System) Warm() { s.sys.Warm() }

// TableInfo re-exports the schema-browser view (§5.3.2's exploratory
// workflow): columns, join-graph neighbours, inheritance structure and
// the business terms that reach the table through the metadata layers.
type TableInfo = core.TableInfo

// Browse returns the schema-browser view of one physical table.
func (s *System) Browse(table string) (*TableInfo, error) {
	return s.sys.Browse(table)
}

// ExplainSQL renders the reference engine's execution plan for a
// statement without running it: scans with pushed-down filters,
// hash/cross join order, residual predicates and the aggregation
// pipeline. The plan is always computed over the world's in-memory
// corpus — a real SQL backend has its own EXPLAIN — and the statement is
// read in the System's configured dialect.
func (s *System) ExplainSQL(sql string) (string, error) {
	sel, err := sqlparse.ParseDialect(sql, s.sys.Opt.Dialect)
	if err != nil {
		return "", err
	}
	return memory.Explain(s.world.db, sel)
}

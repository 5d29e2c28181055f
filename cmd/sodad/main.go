// Command sodad serves a SODA world over a JSON HTTP API — the
// production shape of the paper's self-service search box (§1): many
// business users share one warehouse-backed System through a daemon
// instead of linking the Go library.
//
// Usage:
//
//	sodad [flags]
//
//	-addr string        listen address (default ":8080"); port 0 binds a
//	                    free port, which the "sodad serving" log line names
//	-world string       world to serve: minibank or warehouse (default "minibank")
//	-parallelism int    snippet-execution worker-pool width (0 = GOMAXPROCS)
//	-cache int          answer-cache entries (0 = default 512, negative = off)
//	-topn int           ranked statements kept per query (0 = paper's 10)
//	-dialect string     default SQL dialect for generated statements:
//	                    generic, postgres, mysql or db2 (default "generic");
//	                    requests override it with their "dialect" field
//	-backend string     execution backend: "memory" runs the in-process
//	                    reference engine, "sqldb" executes rendered SQL on
//	                    a database/sql connection (default "memory")
//	-driver string      database/sql driver for -backend sqldb: "sodalite"
//	                    (in-process) or "pgwire" (PostgreSQL)
//	-dsn string         data source name for -backend sqldb, e.g.
//	                    postgres://user:pw@host:5432/db
//	-load               force-load the world's corpus (CREATE TABLE +
//	                    INSERT) into the SQL backend; without it the
//	                    corpus is loaded only when its tables are missing
//	-queries string     JSON file of saved parameterized queries to
//	                    register at startup (see the README's "Saved
//	                    queries" guide for the format); registration is
//	                    last-write-wins, so re-running with the same file
//	                    is idempotent
//	-data-dir string    persistent state directory (feedback WAL +
//	                    snapshots of the folded feedback, saved queries
//	                    and replication vector). Empty runs in-memory:
//	                    feedback dies with the process. With a directory,
//	                    relevance feedback and saved queries survive
//	                    restarts: a boot restores the latest snapshot and
//	                    replays the WAL records written after it.
//	-peers string       comma-separated base URLs of the other replicas in
//	                    a fleet (e.g. "http://b:8080,http://c:8080").
//	                    Requires -data-dir. Each replica pulls its peers'
//	                    feedback records and applies them locally, so the
//	                    whole fleet converges on the same learned
//	                    rankings; list every other replica (full mesh).
//	-replica-id string  stable replica identity within the fleet; empty
//	                    generates one on first boot and persists it in the
//	                    data dir. Must be unique across replicas.
//	-sync-interval      peer poll interval (default 500ms)
//	-peer-dead-after    duration after which a silent fleet peer stops
//	                    gating feedback-WAL folding/compaction (default 0:
//	                    never — a dead -peers entry pins the WAL until it
//	                    is decommissioned via POST /admin/decommission)
//	-max-inflight int   max concurrently executing /search requests;
//	                    excess requests wait in a bounded queue (2x) and
//	                    beyond that are shed with 503 + Retry-After
//	                    (default 0: unlimited)
//	-metrics            serve the Prometheus text exposition on
//	                    GET /metrics (default true); -metrics=false hides
//	                    the route (instruments still record)
//	-debug-addr string  separate listen address for the net/http/pprof
//	                    profiling handlers (e.g. "localhost:6060"); empty
//	                    disables them. Kept off the service port so
//	                    profiling is never exposed to search clients.
//	-access-log string  structured request log destination: a file path
//	                    (appended) or "-" for stdout; empty disables it.
//	                    One JSON line per request: request id, W3C trace
//	                    id, method, path, dialect, cache outcome, per-step
//	                    pipeline timings, status, bytes, duration.
//
// Boot builds the world's base data and metadata graph, then a System
// over them, and warms it before listening. The inverted index is built
// on its own goroutine while Warm matches the §4.2.1 patterns over the
// metadata graph and compiles the schema model, bridge tables and join
// graph on the calling one; Warm then waits for the index and resolves
// Step 1's label hits, the one derived structure that reads it. With
// -data-dir the boot also restores the durable state from the data
// dir's snapshot and WAL. The daemon then serves until SIGINT/SIGTERM and
// shuts down gracefully, draining in-flight requests; with -data-dir it
// then flushes a final snapshot so the next boot replays an empty WAL.
//
// HTTP API (package soda/internal/server):
//
//	GET  /healthz
//	    Liveness, world name, table count and answer-cache counters.
//
//	GET  /metrics
//	    Prometheus text exposition: pipeline step histograms, cache and
//	    backend counters, store WAL/snapshot timings, cluster replication
//	    lag gauges, serving latency. See the README's "Observability"
//	    section for the metric catalog.
//
//	GET  /debug/requests
//	    Flight recorder: the last 256 request traces, a third of the
//	    slots kept for slow and 5xx ones, with per-step spans, resolved
//	    SQL, cache outcome and backend identity; ?id=<trace or request
//	    id> fetches one trace. Requests
//	    carrying a W3C `traceparent` header keep their trace id, so a
//	    caller can follow one query across the fleet.
//
//	POST /search
//	    {"query": "customers Zürich", "snippets": true, "dialect": "db2"}
//	    Ranked SQL statements with scores, tables, joins, filters and
//	    (optionally) executed snippet rows; snippet rows are cached with
//	    the answer, so repeated snippet searches run no SQL. "dialect"
//	    renders the statements for a specific backend.
//
//	POST /sql
//	    {"sql": "select * from parties", "dialect": "mysql"}
//	    Executes one statement in the engine's SQL subset (§5.3.2
//	    exploration workflow), read in the given dialect.
//
//	GET  /browse/{table}
//	    Schema-browser view: columns, join-graph neighbours, inheritance
//	    structure and reachable business terms.
//
//	POST /feedback
//	    {"query": "customers Zürich", "result": 0, "like": true}
//	    Likes/dislikes one ranked result (§6.3); adjusts future rankings
//	    and invalidates cached answers. Pass "sql" instead of "result"
//	    to pin the exact statement (immune to re-ranking drift; 409 when
//	    several results share it) and the "dialect" searched in.
//
//	GET  /explain?q=customers+Zürich
//	    Plain-text pipeline trace in the shape of Figures 4-6.
//
//	PUT/GET/DELETE /admin/queries/{name}, GET /admin/queries
//	    Saved-query library: register approved parameterized queries that
//	    /search ranks alongside generated statements and executes through
//	    prepared statements with bound parameters.
//
//	POST /admin/decommission?replica=<id>
//	    Removes a dead peer from the feedback fold quorum until restart,
//	    so WAL folding and compaction can advance without it (an invalid
//	    id is a 400, this replica's own a 409).
//
//	GET  /cluster/pull?since=origin:seq,...&from=replica-id
//	    Replication pull (fleet-internal): feedback records beyond the
//	    caller's applied vector as WAL record frames, or, when the caller
//	    is behind this replica's fold point, the folded state as snapshot
//	    sections; the responder's id, vector and clock ride in Soda-*
//	    headers. See README "Running a fleet".
//
// Examples:
//
//	sodad -world warehouse -addr :9000
//	curl -s localhost:9000/healthz
//	curl -s -X POST localhost:9000/search -d '{"query":"YEN trade order"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers on DefaultServeMux, served only via -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"soda"
	"soda/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run parses sodad's flags from args, builds and warms the System and
// serves it until SIGINT or SIGTERM; it then drains in-flight requests
// and flushes the state store. Malformed flags exit with status 2, as
// the flag package does; bad flag values return an error before any
// world is built.
func run(args []string) error {
	fs := flag.NewFlagSet("sodad", flag.ExitOnError)
	opts := soda.Options{Logf: log.Printf}
	cfg := server.Config{Logf: log.Printf}
	addr := fs.String("addr", ":8080", "listen address")
	world := fs.String("world", "minibank", "world to serve: minibank or warehouse")
	fs.IntVar(&opts.Parallelism, "parallelism", 0, "snippet-execution worker-pool width (0 = GOMAXPROCS)")
	fs.IntVar(&opts.CacheSize, "cache", 0, "answer-cache entries (0 = default, negative = off)")
	fs.IntVar(&opts.TopN, "topn", 0, "ranked statements kept per query (0 = paper's 10)")
	fs.StringVar(&opts.Dialect, "dialect", "generic", "default SQL dialect: "+strings.Join(soda.Dialects(), ", "))
	dataDir := fs.String("data-dir", "", "persistent state directory (feedback WAL + snapshots of the durable state); empty = in-memory")
	fs.StringVar(&opts.Backend, "backend", "memory", "execution backend: "+strings.Join(soda.Backends(), ", "))
	fs.StringVar(&opts.Driver, "driver", "", `database/sql driver for -backend sqldb ("sodalite", "pgwire")`)
	fs.StringVar(&opts.DSN, "dsn", "", "data source name for -backend sqldb")
	fs.BoolVar(&opts.LoadCorpus, "load", false, "force-load the world's corpus into the SQL backend")
	queriesFile := fs.String("queries", "", "JSON file of saved parameterized queries to register at startup")
	fs.Func("peers", "comma-separated base URLs of the other fleet replicas (requires -data-dir)", func(s string) error {
		opts.Peers = splitPeers(s)
		return nil
	})
	fs.StringVar(&opts.ReplicaID, "replica-id", "", "stable replica identity within the fleet (empty = generate and persist)")
	fs.DurationVar(&opts.SyncInterval, "sync-interval", 0, "peer poll interval (default 500ms)")
	fs.DurationVar(&opts.PeerDeadAfter, "peer-dead-after", 0, "treat a fleet peer silent this long as dead for WAL folding (0 = never)")
	fs.IntVar(&cfg.MaxInflight, "max-inflight", 0, "max concurrently executing /search requests (0 = unlimited)")
	metricsOn := fs.Bool("metrics", true, "serve the Prometheus exposition on GET /metrics")
	debugAddr := fs.String("debug-addr", "", "separate listen address for net/http/pprof (empty = off)")
	accessLog := fs.String("access-log", "", `structured request log: file path or "-" for stdout (empty = off)`)
	_ = fs.Parse(args) // ExitOnError: a malformed flag exits the process
	cfg.DisableMetrics = !*metricsOn

	newWorld := map[string]func() *soda.World{
		"minibank":  soda.MiniBank,
		"warehouse": func() *soda.World { return soda.Warehouse(soda.WarehouseConfig{}) },
	}[*world]
	switch {
	case newWorld == nil:
		return fmt.Errorf("unknown world %q (want minibank or warehouse)", *world)
	case !soda.KnownDialect(opts.Dialect):
		return fmt.Errorf("unknown dialect %q (want %s)", opts.Dialect, strings.Join(soda.Dialects(), ", "))
	case len(opts.Peers) > 0 && *dataDir == "":
		return fmt.Errorf("-peers requires -data-dir (replication persists pulled records in the local WAL)")
	}
	w := newWorld()

	var sys *soda.System
	if *dataDir != "" {
		var err error
		sys, err = soda.Open(w, opts, *dataDir)
		if err != nil {
			return fmt.Errorf("opening state store: %w", err)
		}
		st := sys.StoreStats()
		if st.WarmStart {
			log.Printf("state store %s: restored snapshot, %d WAL records replayed",
				*dataDir, st.ReplayedRecords)
		} else {
			reason := st.InvalidReason
			if reason == "" {
				reason = "no snapshot"
			}
			log.Printf("state store %s: %s, %d WAL records replayed", *dataDir, reason, st.ReplayedRecords)
		}
		if len(opts.Peers) > 0 {
			log.Printf("cluster: replica %s pulling %d peer(s): %s",
				sys.ReplicaID(), len(opts.Peers), strings.Join(opts.Peers, ", "))
		}
	} else {
		var err error
		sys, err = soda.Connect(w, opts)
		if err != nil {
			return fmt.Errorf("connecting execution backend: %w", err)
		}
	}
	if *queriesFile != "" {
		data, err := os.ReadFile(*queriesFile)
		if err != nil {
			return fmt.Errorf("reading query library: %w", err)
		}
		qs, err := soda.QueriesFromJSON(data)
		if err != nil {
			return err
		}
		for _, q := range qs {
			if err := sys.RegisterQuery(q); err != nil {
				return fmt.Errorf("query library %s: %q: %w", *queriesFile, q.Name, err)
			}
		}
		log.Printf("registered %d saved quer(ies) from %s", len(qs), *queriesFile)
	}
	log.Printf("warming %s (%d tables, backend %s)...", w.Name(), len(w.TableNames()), sys.Backend())
	sys.Warm()

	if *accessLog != "" {
		w, closeLog, err := openAccessLog(*accessLog)
		if err != nil {
			return err
		}
		defer closeLog()
		cfg.AccessLog = w
	}
	srv := &http.Server{
		Handler:           server.NewWith(sys, cfg),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The pprof handlers live on http.DefaultServeMux (blank import
	// above); the main server uses its own mux, so they are reachable only
	// through this separate listener — never on the service port.
	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			log.Printf("debug server (pprof) on %s", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug server: %v", err)
			}
		}()
		defer dbg.Close()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() {
		// The bound address, not the flag: with "-addr host:0" this line
		// is how a caller learns the port.
		log.Printf("sodad serving %s on %s", w.Name(), ln.Addr())
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Print("shutting down, draining in-flight requests...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	// Fold the WAL tail into a final snapshot (the next boot has nothing
	// to replay) and release backend connections.
	if err := sys.Close(); err != nil {
		return fmt.Errorf("closing system: %w", err)
	}
	if *dataDir != "" {
		log.Printf("state store %s flushed", *dataDir)
	}
	return <-errc
}

// openAccessLog resolves the -access-log flag to a writer: "-" is
// stdout, anything else a file opened for append. The returned closer is
// a no-op for stdout.
func openAccessLog(dest string) (io.Writer, func() error, error) {
	if dest == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("opening access log: %w", err)
	}
	return f, f.Close, nil
}

// splitPeers parses the -peers flag, dropping empty entries.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"soda"
)

// The fleet contract (run under -race in CI): N sodad replicas, each with
// its own data dir, exchanging feedback over /cluster/pull, converge to
// byte-identical /search responses — under concurrent feedback to every
// replica, and across a replica restart from its own data dir.

// swapHandler lets one long-lived HTTP server front a replica that boots,
// stops and restarts: while the replica is down the address answers 503
// (like a load balancer with no healthy backend), which the peer tailers
// treat as an ordinary pull failure and retry.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "replica down", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// fleet is an in-process fleet: one soda.System + HTTP server per
// replica, wired full mesh.
type fleet struct {
	t        *testing.T
	n        int
	dirs     []string
	urls     []string
	handlers []*swapHandler
	srvs     []*http.Server
	sys      []*soda.System
	serveWG  sync.WaitGroup
	downOnce sync.Once
}

// startFleet boots n replicas over minibank with a fast sync interval.
func startFleet(t *testing.T, n int) *fleet {
	t.Helper()
	f := &fleet{
		t: t, n: n,
		dirs: make([]string, n), urls: make([]string, n),
		handlers: make([]*swapHandler, n), srvs: make([]*http.Server, n),
		sys: make([]*soda.System, n),
	}
	for i := 0; i < n; i++ {
		f.dirs[i] = t.TempDir()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		f.urls[i] = "http://" + ln.Addr().String()
		f.handlers[i] = &swapHandler{}
		srv := &http.Server{Handler: f.handlers[i]}
		f.srvs[i] = srv
		f.serveWG.Add(1)
		go func() {
			defer f.serveWG.Done()
			_ = srv.Serve(ln)
		}()
	}
	for i := 0; i < n; i++ {
		f.boot(i)
	}
	t.Cleanup(f.shutdownAll)
	return f
}

// shutdownAll stops every replica and tears the HTTP servers down.
// Idempotent (registered as cleanup and callable from tests).
func (f *fleet) shutdownAll() {
	f.downOnce.Do(func() {
		for i := 0; i < f.n; i++ {
			if f.sys[i] != nil {
				f.stop(i)
			}
		}
		for _, srv := range f.srvs {
			_ = srv.Close()
		}
		f.serveWG.Wait()
	})
}

func (f *fleet) peersOf(i int) []string {
	var peers []string
	for j, u := range f.urls {
		if j != i {
			peers = append(peers, u)
		}
	}
	return peers
}

// boot opens replica i from its data dir and puts it on the wire.
func (f *fleet) boot(i int) {
	f.t.Helper()
	sys, err := soda.Open(soda.MiniBank(), soda.Options{
		Peers:        f.peersOf(i),
		ReplicaID:    fmt.Sprintf("r%d", i),
		SyncInterval: 20 * time.Millisecond,
	}, f.dirs[i])
	if err != nil {
		f.t.Fatal(err)
	}
	f.sys[i] = sys
	f.handlers[i].set(New(sys))
}

// stop takes replica i off the wire and closes it gracefully (the tailer
// stops before the store closes).
func (f *fleet) stop(i int) {
	f.t.Helper()
	f.handlers[i].set(nil)
	if err := f.sys[i].Close(); err != nil {
		f.t.Fatal(err)
	}
	f.sys[i] = nil
}

// restart brings a stopped replica back on the same address and data dir.
func (f *fleet) restart(i int) {
	f.t.Helper()
	f.boot(i)
}

// feedback likes/dislikes one result of a query on replica i.
func (f *fleet) feedback(i int, query string, result int, like bool) error {
	body := fmt.Sprintf(`{"query": %q, "result": %d, "like": %v}`, query, result, like)
	resp, err := http.Post(f.urls[i]+"/feedback", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("feedback on replica %d: status %d: %s", i, resp.StatusCode, msg)
	}
	return nil
}

// awaitConvergence polls until every live replica's applied vector is
// identical (all records everywhere), then returns.
func (f *fleet) awaitConvergence() {
	f.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if f.vectorsEqual() {
			return
		}
		if time.Now().After(deadline) {
			for i, sys := range f.sys {
				if sys != nil {
					f.t.Logf("replica %d vector: %v", i, sys.AppliedVector())
				}
			}
			f.t.Fatal("fleet did not converge within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (f *fleet) vectorsEqual() bool {
	var want map[string]uint64
	for _, sys := range f.sys {
		if sys == nil {
			continue
		}
		v := sys.AppliedVector()
		if want == nil {
			want = v
			continue
		}
		if len(v) != len(want) {
			return false
		}
		for o, s := range want {
			if v[o] != s {
				return false
			}
		}
	}
	return want != nil
}

// searchBytes returns the raw /search response from replica i.
func (f *fleet) searchBytes(i int, query string) string {
	f.t.Helper()
	resp, body := postJSON(f.t, f.urls[i]+"/search", fmt.Sprintf(`{"query": %q}`, query))
	if resp.StatusCode != http.StatusOK {
		f.t.Fatalf("search on replica %d: status %d: %s", i, resp.StatusCode, body)
	}
	return string(body)
}

// assertIdenticalSearches asserts every live replica returns byte-identical
// /search responses for a set of queries.
func (f *fleet) assertIdenticalSearches(context string) {
	f.t.Helper()
	queries := []string{"customer", "customers Zürich", "wealthy customers", "customers Zürich financial instruments"}
	for _, q := range queries {
		var want string
		wantFrom := -1
		for i, sys := range f.sys {
			if sys == nil {
				continue
			}
			got := f.searchBytes(i, q)
			if wantFrom < 0 {
				want, wantFrom = got, i
				continue
			}
			if got != want {
				f.t.Fatalf("%s: /search %q differs between replica %d and %d:\n%s\nvs\n%s",
					context, q, wantFrom, i, want, got)
			}
		}
	}
}

// TestFleetConvergesFromSingleReplicaFeedback is the acceptance-criteria
// scenario: feedback applied to only one replica of three reaches all of
// them, including after a replica restart from its own data dir.
func TestFleetConvergesFromSingleReplicaFeedback(t *testing.T) {
	f := startFleet(t, 3)
	for i := 0; i < 4; i++ {
		if err := f.feedback(0, "customer", 0, i%2 == 0); err != nil {
			t.Fatal(err)
		}
		if err := f.feedback(0, "customers Zürich", 0, false); err != nil {
			t.Fatal(err)
		}
	}
	f.awaitConvergence()
	f.assertIdenticalSearches("single-source feedback")

	// Restart replica 2 from its own data dir; it must come back with the
	// same state (and keep converging on new feedback).
	f.stop(2)
	if err := f.feedback(1, "wealthy customers", 0, true); err != nil {
		t.Fatal(err)
	}
	f.restart(2)
	f.awaitConvergence()
	f.assertIdenticalSearches("after replica restart")
}

// TestFleetConvergesUnderConcurrentFeedback drives concurrent feedback at
// all three replicas at once and asserts byte-identical /search output on
// every replica after quiescence (the -race convergence satellite).
func TestFleetConvergesUnderConcurrentFeedback(t *testing.T) {
	f := startFleet(t, 3)
	queries := []string{"customer", "customers Zürich", "wealthy customers"}
	var wg sync.WaitGroup
	errs := make(chan error, f.n*6)
	for i := 0; i < f.n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				q := queries[(i+round)%len(queries)]
				if err := f.feedback(i, q, 0, (i+round)%2 == 0); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	f.awaitConvergence()
	f.assertIdenticalSearches("concurrent feedback")
}

// TestFleetShutdownStopsTailer: closing every replica must tear down the
// peer tailers and their HTTP clients — no goroutine may outlive the
// fleet (the graceful-shutdown satellite; run with -race).
func TestFleetShutdownStopsTailer(t *testing.T) {
	before := runtime.NumGoroutine()
	f := startFleet(t, 3)
	if err := f.feedback(0, "customer", 0, true); err != nil {
		t.Fatal(err)
	}
	f.awaitConvergence()
	f.shutdownAll()
	http.DefaultClient.CloseIdleConnections()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	// Goroutine counts settle asynchronously (closed connections, timer
	// cleanup); poll with a deadline.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked across fleet shutdown: %d before, %d after\n%s",
				before, now, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestHealthzClusterBlock: a fleet member's /healthz reports its replica
// id, applied vector and per-peer lag with last-contact timestamps.
func TestHealthzClusterBlock(t *testing.T) {
	f := startFleet(t, 2)
	if err := f.feedback(0, "customer", 0, true); err != nil {
		t.Fatal(err)
	}
	f.awaitConvergence()

	resp, err := http.Get(f.urls[1] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	c := health.Cluster
	if c == nil {
		t.Fatal("healthz missing cluster block on a fleet member")
	}
	if c.ReplicaID != "r1" {
		t.Fatalf("replica id = %q, want r1", c.ReplicaID)
	}
	if c.Vector["r0"] == 0 {
		t.Fatalf("applied vector %v does not cover replica r0's feedback", c.Vector)
	}
	if len(c.Peers) != 1 {
		t.Fatalf("peers = %+v, want exactly the other replica", c.Peers)
	}
	p := c.Peers[0]
	if p.Addr != f.urls[0] || p.Origin != "r0" {
		t.Fatalf("peer status = %+v", p)
	}
	if p.LastContact.IsZero() || p.Pulls == 0 {
		t.Fatalf("peer never contacted: %+v", p)
	}
	if p.RecordsBehind != 0 {
		t.Fatalf("converged fleet reports lag: %+v", p)
	}
}

// doJSON issues one JSON request with an arbitrary method on replica i.
func (f *fleet) doJSON(i int, method, path, body string) (int, string) {
	f.t.Helper()
	req, err := http.NewRequest(method, f.urls[i]+path, strings.NewReader(body))
	if err != nil {
		f.t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestFleetReplicatesSavedQueries is the saved-query replication
// satellite (run under -race in CI): a query registered through
// /admin/queries on one replica reaches every peer through the ordinary
// pull protocol, ranks in /search byte-identically fleet-wide, survives
// a replica restart from its own data dir, and a delete replicates the
// same way.
func TestFleetReplicatesSavedQueries(t *testing.T) {
	f := startFleet(t, 3)
	const qpath = "/admin/queries/big%20earners"
	body := `{"description": "individuals with a salary above a threshold",
		"sql": "select i.firstname, i.lastname, i.salary from individuals i where i.salary >= ?",
		"params": [{"name": "min salary", "type": "float", "default": "100000"}]}`
	if status, msg := f.doJSON(0, http.MethodPut, qpath, body); status != http.StatusOK {
		t.Fatalf("PUT saved query: status %d: %s", status, msg)
	}
	f.awaitConvergence()

	// The library entry is byte-identical on every replica.
	var wantEntry string
	for i := range f.sys {
		status, got := f.doJSON(i, http.MethodGet, qpath, "")
		if status != http.StatusOK {
			t.Fatalf("GET saved query on replica %d: status %d: %s", i, status, got)
		}
		if i == 0 {
			wantEntry = got
			continue
		}
		if got != wantEntry {
			t.Fatalf("saved query differs between replica 0 and %d:\n%s\nvs\n%s", i, wantEntry, got)
		}
	}

	// /search ranks the approved query on every replica, byte-identically,
	// with the parameter bound from the input on all of them.
	const search = "big earners salary >= 50000"
	var want string
	for i := range f.sys {
		got := f.searchBytes(i, search)
		if !strings.Contains(got, `"approved":true`) || !strings.Contains(got, `"value":"50000"`) {
			t.Fatalf("replica %d /search lacks the bound approved query:\n%s", i, got)
		}
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("/search %q differs between replica 0 and %d:\n%s\nvs\n%s", search, i, want, got)
		}
	}

	// Restart replica 2 from its own data dir: the replicated registration
	// must come back from local persistence, not just from peers.
	f.stop(2)
	f.restart(2)
	f.awaitConvergence()
	if got := f.searchBytes(2, search); got != want {
		t.Fatalf("/search after restart differs:\n%s\nvs\n%s", want, got)
	}

	// Deleting on a different replica replicates too.
	if status, msg := f.doJSON(1, http.MethodDelete, qpath, ""); status != http.StatusOK {
		t.Fatalf("DELETE saved query: status %d: %s", status, msg)
	}
	f.awaitConvergence()
	for i := range f.sys {
		if status, _ := f.doJSON(i, http.MethodGet, qpath, ""); status != http.StatusNotFound {
			t.Fatalf("replica %d still serves the deleted query (status %d)", i, status)
		}
		if got := f.searchBytes(i, search); strings.Contains(got, `"approved":true`) {
			t.Fatalf("replica %d still ranks the deleted query:\n%s", i, got)
		}
	}
}

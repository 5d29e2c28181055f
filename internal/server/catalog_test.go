package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"soda"
	"soda/internal/obs"
)

// catalog is the metric catalog: every family a replica serves, its
// exposition type, and an assertion of what it counts against the script
// TestCatalogFamilyMeanings drives. The README's Observability table
// lists exactly these names.
var catalog = []struct {
	name, typ string
	check     func(t *testing.T, r *catalogRun)
}{
	{"soda_pipeline_step_seconds", "summary", func(t *testing.T, r *catalogRun) {
		// One sample per step of each cold pipeline run: the two cold
		// searches; the saved-query search also executed its snippets.
		for _, step := range []string{"lookup", "rank", "tables", "filters", "sqlgen"} {
			if got := r.read.at(t, "soda_pipeline_step_seconds_count", label("step", step)); got != 2 {
				t.Errorf("step %s: %v samples, want 2 (one per cold search)", step, got)
			}
		}
		if got := r.read.at(t, "soda_pipeline_step_seconds_count", label("step", "snippet")); got < 1 {
			t.Errorf("step snippet: %v samples, want >= 1", got)
		}
	}},
	{"soda_disconnected_solutions_total", "counter", func(t *testing.T, r *catalogRun) {
		if got := r.a.at(t, "soda_disconnected_solutions_total"); got != 0 {
			t.Errorf("replica a = %v, want 0 (the MiniBank join graph is connected)", got)
		}
		// Areas 026 and 168 of the warehouse are islands of its join
		// graph, so this query's solutions that anchor in both are cross
		// products. The cold search counts each once; its repeat, a cache
		// hit, counts none.
		srv := New(soda.NewSystem(soda.Warehouse(soda.WarehouseConfig{}), soda.Options{}))
		const query = `{"query": "area 026 entity 02 area 168 entity 01"}`
		body := call(t, srv, http.MethodPost, "/search", query, http.StatusOK).Body.String()
		want := float64(strings.Count(body, `"disconnected":true`))
		if want == 0 {
			t.Fatalf("no disconnected result in %s", body)
		}
		if got := scrapeOf(t, srv).at(t, "soda_disconnected_solutions_total"); got != want {
			t.Errorf("after the cold search = %v, want %v (its disconnected results)", got, want)
		}
		call(t, srv, http.MethodPost, "/search", query, http.StatusOK)
		if got := scrapeOf(t, srv).at(t, "soda_disconnected_solutions_total"); got != want {
			t.Errorf("after the repeat = %v, want %v", got, want)
		}
	}},
	{"soda_search_requests_total", "counter", func(t *testing.T, r *catalogRun) {
		// "customer" twice (cold, then a hit) and the saved-query search
		// (cold); the shed search was not served.
		for outcome, want := range map[string]float64{"hit": 1, "cold": 2} {
			if got := r.read.at(t, "soda_search_requests_total", label("outcome", outcome)); got != want {
				t.Errorf("outcome %s = %v, want %v", outcome, got, want)
			}
		}
	}},
	{"soda_search_latency_seconds", "summary", func(t *testing.T, r *catalogRun) {
		for _, outcome := range []string{"hit", "cold"} {
			n := r.read.at(t, "soda_search_latency_seconds_count", label("outcome", outcome))
			if served := r.read.at(t, "soda_search_requests_total", label("outcome", outcome)); n != served {
				t.Errorf("outcome %s: %v timings for %v searches served, want one each", outcome, n, served)
			}
		}
	}},
	{"soda_search_shed_total", "counter", func(t *testing.T, r *catalogRun) {
		if got := r.read.at(t, "soda_search_shed_total"); got != 1 {
			t.Errorf("= %v, want 1 (the search sent while the slot and queue were full)", got)
		}
	}},
	{"soda_cache_hits_total", "counter", func(t *testing.T, r *catalogRun) {
		if got := r.read.at(t, "soda_cache_hits_total"); got != 1 {
			t.Errorf("= %v, want 1 (the repeated search)", got)
		}
	}},
	{"soda_cache_misses_total", "counter", func(t *testing.T, r *catalogRun) {
		if got := r.read.at(t, "soda_cache_misses_total"); got != 2 {
			t.Errorf("= %v, want 2 (the two cold searches)", got)
		}
	}},
	{"soda_cache_entries", "gauge", func(t *testing.T, r *catalogRun) {
		// Registering the saved query invalidated the answer cached
		// before it; only the one cached after it is live.
		if got := r.read.at(t, "soda_cache_entries"); got != 1 {
			t.Errorf("= %v, want 1", got)
		}
	}},
	{"soda_backend_exec_total", "counter", func(t *testing.T, r *catalogRun) {
		// The rejected /sql statement and the snippets ran on the exec
		// path, the approved answer on the prepared path.
		for _, op := range []string{"exec", "prepared"} {
			if got := r.read.at(t, "soda_backend_exec_total", r.backend, label("op", op)); got < 1 {
				t.Errorf("op %s = %v, want >= 1", op, got)
			}
		}
	}},
	{"soda_backend_exec_errors_total", "counter", func(t *testing.T, r *catalogRun) {
		for op, want := range map[string]float64{"exec": 1, "prepared": 0} {
			if got := r.read.at(t, "soda_backend_exec_errors_total", r.backend, label("op", op)); got != want {
				t.Errorf("op %s = %v, want %v (only the /sql statement was rejected)", op, got, want)
			}
		}
	}},
	{"soda_backend_exec_seconds", "summary", func(t *testing.T, r *catalogRun) {
		for _, op := range []string{"exec", "prepared"} {
			n := r.read.at(t, "soda_backend_exec_seconds_count", r.backend, label("op", op))
			if total := r.read.at(t, "soda_backend_exec_total", r.backend, label("op", op)); n != total {
				t.Errorf("op %s: %v timings for %v executions, want one each", op, n, total)
			}
		}
	}},
	{"soda_wal_append_seconds", "summary", func(t *testing.T, r *catalogRun) {
		if before, after := r.read.at(t, "soda_wal_append_seconds_count"), r.wrote.at(t, "soda_wal_append_seconds_count"); after != before+1 {
			t.Errorf("count %v -> %v across one feedback, want +1", before, after)
		}
	}},
	{"soda_wal_fsync_seconds", "summary", func(t *testing.T, r *catalogRun) {
		if got := r.snapped.at(t, "soda_wal_fsync_seconds_count"); got < 1 {
			t.Errorf("count = %v after the snapshot, want >= 1 (the WAL is synced before it)", got)
		}
	}},
	{"soda_snapshot_write_seconds", "summary", func(t *testing.T, r *catalogRun) {
		if before, after := r.wrote.at(t, "soda_snapshot_write_seconds_count"), r.snapped.at(t, "soda_snapshot_write_seconds_count"); after != before+1 {
			t.Errorf("count %v -> %v across one snapshot, want +1", before, after)
		}
	}},
	{"soda_snapshot_errors_total", "counter", func(t *testing.T, r *catalogRun) {
		if got := r.a.at(t, "soda_snapshot_errors_total"); got != 0 {
			t.Errorf("replica a = %v, want 0 (every snapshot write succeeded)", got)
		}
		if got := r.b.at(t, "soda_snapshot_errors_total"); got != 1 {
			t.Errorf("replica b = %v, want 1 (the snapshot into its removed data dir)", got)
		}
	}},
	{"soda_wal_records", "gauge", func(t *testing.T, r *catalogRun) {
		if before, after := r.read.at(t, "soda_wal_records"), r.wrote.at(t, "soda_wal_records"); after != before+1 {
			t.Errorf("%v -> %v across one feedback, want +1", before, after)
		}
		if got := r.snapped.at(t, "soda_wal_records"); got != 0 {
			t.Errorf("= %v after the snapshot, want 0 (it folded every record)", got)
		}
	}},
	{"soda_wal_bytes", "gauge", func(t *testing.T, r *catalogRun) {
		if before, after := r.read.at(t, "soda_wal_bytes"), r.wrote.at(t, "soda_wal_bytes"); after <= before {
			t.Errorf("%v -> %v across one feedback, want growth", before, after)
		}
		if got := r.snapped.at(t, "soda_wal_bytes"); got != 0 {
			t.Errorf("= %v after the snapshot, want 0 (it folded every record)", got)
		}
	}},
	{"soda_store_compactions_total", "counter", func(t *testing.T, r *catalogRun) {
		if before, after := r.wrote.at(t, "soda_store_compactions_total"), r.snapped.at(t, "soda_store_compactions_total"); after != before+1 {
			t.Errorf("%v -> %v across one snapshot, want +1", before, after)
		}
	}},
	{"soda_cluster_peer_records_behind", "gauge", func(t *testing.T, r *catalogRun) {
		if got := r.booted.at(t, "soda_cluster_peer_records_behind", label("peer", r.bURL)); got != -1 {
			t.Errorf("a before b booted = %v, want -1 (no pull has answered)", got)
		}
		// The script waits for b to apply everything a holds.
		if got := r.b.at(t, "soda_cluster_peer_records_behind", label("peer", r.aURL)); got != 0 {
			t.Errorf("b behind a = %v, want 0", got)
		}
		if got := r.a.at(t, "soda_cluster_peer_records_behind", label("peer", r.bURL)); got != 0 {
			t.Errorf("a behind b = %v, want 0 (b wrote nothing)", got)
		}
	}},
	{"soda_cluster_peer_last_contact_seconds", "gauge", func(t *testing.T, r *catalogRun) {
		if got := r.booted.at(t, "soda_cluster_peer_last_contact_seconds", label("peer", r.bURL)); got != -1 {
			t.Errorf("a before b booted = %v, want -1", got)
		}
		if got := r.a.at(t, "soda_cluster_peer_last_contact_seconds", label("peer", r.bURL)); got < 0 {
			t.Errorf("a after pulling b = %v, want >= 0", got)
		}
		if got := r.b.at(t, "soda_cluster_peer_last_contact_seconds", label("peer", r.aURL)); got < 0 {
			t.Errorf("b after pulling a = %v, want >= 0", got)
		}
	}},
	{"soda_slow_requests_total", "counter", func(t *testing.T, r *catalogRun) {
		// One count per server/slow log line, by the line's outcome.
		for _, outcome := range []string{"hit", "cold", "other"} {
			if got := r.a.at(t, "soda_slow_requests_total", label("outcome", outcome)); got != float64(r.slow[outcome]) {
				t.Errorf("outcome %s = %v, want %d (its slow-query log lines)", outcome, got, r.slow[outcome])
			}
		}
	}},
	{"soda_build_info", "gauge", func(t *testing.T, r *catalogRun) {
		if got := r.a.at(t, "soda_build_info", label("go_version", runtime.Version()), label("corpus", "minibank"),
			r.backend, label("replica", "a")); got != 1 {
			t.Errorf("= %v, want 1", got)
		}
	}},
}

func label(name, value string) obs.Label { return obs.Label{Name: name, Value: value} }

// catalogRun is what the catalog rows read: scrapes of replica a between
// the steps of TestCatalogFamilyMeanings's script, both replicas' scrapes
// at its end, and what a's slow-query log recorded.
type catalogRun struct {
	booted, read, wrote, snapped scrape         // replica a after boot, the reads, the feedback, the snapshot
	a, b                         scrape         // both replicas at the end
	aURL, bURL                   string         // each replica's address: its peer label on the other
	backend                      obs.Label      // the backend label both replicas share
	slow                         map[string]int // a's server/slow lines by outcome before its final scrape
}

// scrape is one /metrics exposition: its text and its series.
type scrape struct {
	body string
	vals map[string]float64
}

// scrapeOf GETs /metrics from h.
func scrapeOf(t *testing.T, h http.Handler) scrape {
	t.Helper()
	rec := call(t, h, http.MethodGet, "/metrics", "", http.StatusOK)
	if ct := rec.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, obs.ContentType)
	}
	vals, err := obs.ParseText(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatalf("parsing /metrics: %v\n%s", err, rec.Body)
	}
	return scrape{body: rec.Body.String(), vals: vals}
}

// at reads one series, failing the row when the scrape lacks it.
func (s scrape) at(t *testing.T, name string, labels ...obs.Label) float64 {
	t.Helper()
	key := obs.SeriesKey(name, labels...)
	v, ok := s.vals[key]
	if !ok {
		t.Errorf("%s is not served", key)
	}
	return v
}

// call serves one request on h and fails unless it answers want.
func call(t *testing.T, h http.Handler, method, path, body string, want int) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	if rec.Code != want {
		t.Fatalf("%s %s %s: status %d, want %d: %s", method, path, body, rec.Code, want, rec.Body)
	}
	return rec
}

// legalSeries is a series key with a legal Prometheus metric name and,
// if it has labels, legal label names (values escaped as SeriesKey does).
var legalSeries = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*` +
	`(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})?$`)

// families groups a scrape by family: the # TYPE lines name the families
// and their types, and each series joins its family (a summary's _sum and
// _count series too). It reports each malformed family: an illegal
// metric or label name, a sample with no TYPE line, or a TYPE with no
// sample.
func (s scrape) families() (types map[string]string, problems []string) {
	types = make(map[string]string)
	for _, line := range strings.Split(s.body, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			types[name] = typ
		}
	}
	samples := make(map[string]int)
	for key := range s.vals {
		if !legalSeries.MatchString(key) {
			problems = append(problems, fmt.Sprintf("illegal metric or label name in %s", key))
		}
		name, _, _ := strings.Cut(key, "{")
		for _, suffix := range []string{"_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "summary" {
				name = base
			}
		}
		if _, ok := types[name]; !ok {
			problems = append(problems, fmt.Sprintf("%s: no TYPE line", key))
		}
		samples[name]++
	}
	for name := range types {
		if !legalSeries.MatchString(name) {
			problems = append(problems, fmt.Sprintf("illegal metric name %q", name))
		}
		if samples[name] == 0 {
			problems = append(problems, fmt.Sprintf("%s: TYPE line but no samples", name))
		}
	}
	sort.Strings(problems)
	return types, problems
}

// readmeCatalog returns the metric names in the first column of the
// README's Observability table.
func readmeCatalog(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile("`(soda_[a-z0-9_]+)`")
	names := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 && strings.HasPrefix(line, "| `soda_") {
			for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
				names[m[1]] = true
			}
		}
	}
	return names
}

// TestCatalogFamilyMeanings checks the metric catalog against a live
// two-replica fleet. Replicas a and b each have a data dir and list the
// other as their peer. The script drives searches, a feedback and a
// snapshot through a and scrapes it between steps. The test fails when a
// catalog family is missing from either replica's final scrape or has
// the wrong type, when a scraped family is malformed or not in the
// catalog, when a row has no assertion or its assertion fails, and when
// the README's catalog names differ from the table's.
func TestCatalogFamilyMeanings(t *testing.T) {
	r := &catalogRun{slow: make(map[string]int)}
	var (
		slowMu    sync.Mutex
		slowLines = make(map[string]int) // a's server/slow lines by outcome
	)
	logSlow := func(format string, args ...any) {
		payload, ok := strings.CutPrefix(fmt.Sprintf(format, args...), "server/slow: ")
		var line slowQueryLine
		if !ok || json.Unmarshal([]byte(payload), &line) != nil {
			return
		}
		outcome := line.Cache
		if outcome != "hit" && outcome != "cold" {
			outcome = "other"
		}
		slowMu.Lock()
		slowLines[outcome]++
		slowMu.Unlock()
	}

	// Each replica pulls from the other's address; b's answers 503 until
	// b boots, so a has no contact with it until then.
	ah, bh := &swapHandler{}, &swapHandler{}
	asrv, bsrv := httptest.NewServer(ah), httptest.NewServer(bh)
	t.Cleanup(asrv.Close)
	t.Cleanup(bsrv.Close)
	r.aURL, r.bURL = asrv.URL, bsrv.URL
	open := func(id, peer, dir string) *soda.System {
		sys, err := soda.Open(soda.MiniBank(), soda.Options{Peers: []string{peer}, ReplicaID: id,
			SyncInterval: 10 * time.Millisecond}, dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.Close() })
		return sys
	}
	a := open("a", r.bURL, t.TempDir())
	r.backend = label("backend", a.Backend())
	srvA := NewWith(a, Config{MaxInflight: 1, Logf: logSlow})
	ah.set(srvA)
	r.booted = scrapeOf(t, srvA)
	bDir := t.TempDir()
	b := open("b", r.aURL, bDir)
	srvB := New(b)
	bh.set(srvB)

	// Reads: a cold search and its hit; a statement the backend rejects;
	// a saved query, whose snippet search runs the approved answer on the
	// prepared path and the other snippets on the exec path; and a search
	// shed while the only slot and every queue place are taken.
	call(t, srvA, http.MethodPost, "/search", `{"query": "customer"}`, http.StatusOK)
	call(t, srvA, http.MethodPost, "/search", `{"query": "customer"}`, http.StatusOK)
	call(t, srvA, http.MethodPost, "/sql", `{"sql": "select nosuchcol from parties"}`, http.StatusBadRequest)
	call(t, srvA, http.MethodPut, "/admin/queries/big%20earners", bigEarnersBody, http.StatusOK)
	call(t, srvA, http.MethodPost, "/search", `{"query": "big earners salary >= 50000", "snippets": true}`, http.StatusOK)
	srvA.inflight <- struct{}{}
	for len(srvA.queue) < cap(srvA.queue) {
		srvA.queue <- struct{}{}
	}
	call(t, srvA, http.MethodPost, "/search", `{"query": "customer"}`, http.StatusServiceUnavailable)
	for len(srvA.queue) > 0 {
		<-srvA.queue
	}
	<-srvA.inflight
	r.read = scrapeOf(t, srvA)

	call(t, srvA, http.MethodPost, "/feedback", `{"query": "customer", "result": 0, "like": true}`, http.StatusOK)
	r.wrote = scrapeOf(t, srvA)

	// Let the fleet converge so the snapshot can fold every record of a:
	// b applies them, then pulls again (its request acknowledges them),
	// and a finishes a pull round from b issued after that (hearing b's
	// clock). A pull counts once its answer is applied, so the pull that
	// applied the records may count after they show in b's vector, and a
	// round's clock is noted after its pull counts: hence the margins.
	pulls := func(sys *soda.System) uint64 { return sys.ClusterStatus().Peers[0].Pulls }
	waitFor(t, "b to apply a's records", func() bool { return b.AppliedVector()["a"] >= a.AppliedVector()["a"] })
	bPulls, aPulls := pulls(b), pulls(a)
	waitFor(t, "b to acknowledge and a to hear b", func() bool { return pulls(b) >= bPulls+2 && pulls(a) >= aPulls+3 })
	call(t, srvA, http.MethodPost, "/admin/snapshot", "", http.StatusOK)
	r.snapped = scrapeOf(t, srvA)

	// Stop the pulls between the replicas; Close waits for the ones in
	// flight, so a's slow-query log and counters are settled. Then fail a
	// snapshot on b by removing its data dir.
	asrv.Close()
	bsrv.Close()
	if err := os.RemoveAll(bDir); err != nil {
		t.Fatal(err)
	}
	call(t, srvB, http.MethodPost, "/admin/snapshot", "", http.StatusConflict)
	// A request's slow line is logged after its body is written, so the
	// count is taken before the final scrape.
	slowMu.Lock()
	for outcome, n := range slowLines {
		r.slow[outcome] = n
	}
	slowMu.Unlock()
	r.a, r.b = scrapeOf(t, srvA), scrapeOf(t, srvB)

	rows := make(map[string]string, len(catalog))
	for _, row := range catalog {
		rows[row.name] = row.typ
	}
	for replica, s := range map[string]scrape{"a": r.a, "b": r.b} {
		types, problems := s.families()
		for _, p := range problems {
			t.Errorf("replica %s: %s", replica, p)
		}
		for name := range types {
			if _, ok := rows[name]; !ok {
				t.Errorf("replica %s serves %s, which the catalog lacks", replica, name)
			}
		}
		for name, typ := range rows {
			if got, ok := types[name]; !ok {
				t.Errorf("replica %s does not serve %s", replica, name)
			} else if got != typ {
				t.Errorf("replica %s serves %s as a %s, the catalog says %s", replica, name, got, typ)
			}
		}
	}
	readme := readmeCatalog(t)
	for name := range rows {
		if !readme[name] {
			t.Errorf("%s is in the catalog table but not the README's", name)
		}
	}
	for name := range readme {
		if _, ok := rows[name]; !ok {
			t.Errorf("%s is in the README's catalog but not the table", name)
		}
	}
	for _, row := range catalog {
		t.Run(row.name, func(t *testing.T) {
			if row.check == nil {
				t.Fatal("no assertion of what the family counts")
			}
			row.check(t, r)
		})
	}
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

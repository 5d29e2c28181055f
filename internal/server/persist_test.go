package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"soda"
)

// The serving-layer persistence contract: feedback applied through the
// HTTP API survives a daemon restart from the same data directory, and
// the restarted daemon's /search response is byte-identical.

func newPersistentServer(t *testing.T, dir string) (*httptest.Server, *soda.System) {
	t.Helper()
	sys, err := soda.Open(soda.MiniBank(), soda.Options{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sys))
	t.Cleanup(ts.Close)
	return ts, sys
}

func TestRestartSurvivalByteIdentical(t *testing.T) {
	dir := t.TempDir()
	ts, sys := newPersistentServer(t, dir)

	// Apply feedback through the API, twice on the same result; the
	// second resolves it in the answer the first re-ranked.
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/feedback",
			`{"query": "customer", "result": 0, "like": false}`)
		if resp.StatusCode != 200 {
			t.Fatalf("feedback %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	_, before := postJSON(t, ts.URL+"/search", `{"query": "customer"}`)

	// Graceful shutdown: the daemon folds the WAL into a final snapshot.
	ts.Close()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh world and a fresh System over the same data dir.
	ts2, sys2 := newPersistentServer(t, dir)
	defer sys2.Close()
	st := sys2.StoreStats()
	if st == nil || !st.WarmStart {
		t.Fatalf("restarted system should warm-start, stats = %+v", st)
	}
	_, after := postJSON(t, ts2.URL+"/search", `{"query": "customer"}`)
	if string(before) != string(after) {
		t.Fatalf("search response changed across restart:\nbefore: %s\nafter:  %s", before, after)
	}
}

func TestAdminSnapshotAndHealthzStore(t *testing.T) {
	dir := t.TempDir()
	ts, sys := newPersistentServer(t, dir)
	defer sys.Close()

	if resp, body := postJSON(t, ts.URL+"/feedback",
		`{"query": "customer", "result": 0, "like": true}`); resp.StatusCode != 200 {
		t.Fatalf("feedback: status %d: %s", resp.StatusCode, body)
	}

	resp, body := postJSON(t, ts.URL+"/admin/snapshot", "")
	if resp.StatusCode != 200 {
		t.Fatalf("/admin/snapshot: status %d: %s", resp.StatusCode, body)
	}
	var snap SnapshotResponse
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.OK || snap.Store.SnapshotBytes == 0 {
		t.Fatalf("snapshot response = %+v", snap)
	}
	if snap.Store.WALRecords != 0 {
		t.Fatalf("wal records after snapshot = %d, want 0 (compacted)", snap.Store.WALRecords)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health HealthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Store == nil {
		t.Fatal("healthz missing store stats for a persistent daemon")
	}
	if health.Store.SnapshotSeq == 0 {
		t.Fatalf("healthz store stats = %+v, want snapshot applied seq > 0", health.Store)
	}
}

func TestAdminSnapshotWithoutStore(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := postJSON(t, ts.URL+"/admin/snapshot", "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("/admin/snapshot without a store: status %d, want 409", resp.StatusCode)
	}
}

func TestHealthzOmitsStoreWhenAbsent(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["store"]; ok {
		t.Fatal("healthz should omit store stats for an in-memory daemon")
	}
}

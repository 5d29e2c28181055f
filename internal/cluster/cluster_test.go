package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"soda/internal/store"
)

func TestVectorRoundTrip(t *testing.T) {
	cases := []store.Vector{
		{},
		{"a": 1},
		{"replica-7.eu": 42, "a": 3, "b_x": 0},
	}
	for _, v := range cases {
		s := FormatVector(v)
		got, err := ParseVector(s)
		if err != nil {
			t.Fatalf("ParseVector(%q): %v", s, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("round trip %v -> %q -> %v", v, s, got)
		}
	}
	// Deterministic rendering (sorted by origin).
	if s := FormatVector(store.Vector{"b": 2, "a": 1}); s != "a:1,b:2" {
		t.Fatalf("FormatVector = %q, want a:1,b:2", s)
	}
	for _, bad := range []string{"a", "a:", ":1", "a:x", "a b:1", "a:1,,b:2"} {
		if _, err := ParseVector(bad); err == nil {
			t.Fatalf("ParseVector(%q) accepted", bad)
		}
	}
}

func TestWireRecordRoundTrip(t *testing.T) {
	recs := []store.Record{
		{Origin: "a", OriginSeq: 1, LC: 1, Op: store.OpLike, Keys: []store.Key{{Node: "n"}, {Table: "t", Column: "c"}}},
		{Origin: "b", OriginSeq: 9, LC: 14, Op: store.OpReset},
	}
	back, err := FromWireRecords(ToWireRecords(recs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if back[i].Origin != recs[i].Origin || back[i].OriginSeq != recs[i].OriginSeq ||
			back[i].LC != recs[i].LC || back[i].Op != recs[i].Op ||
			!reflect.DeepEqual(append([]store.Key{}, back[i].Keys...), append([]store.Key{}, recs[i].Keys...)) {
			t.Fatalf("record %d = %+v, want %+v", i, back[i], recs[i])
		}
	}
	if _, err := FromWireRecords([]WireRecord{{Origin: "a", Seq: 1, LC: 1, Op: 9}}); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := FromWireRecords([]WireRecord{{Origin: "bad id", Seq: 1, LC: 1, Op: 1}}); err == nil {
		t.Fatal("invalid origin accepted")
	}
}

// fakeLocal is a scripted Local for tailer tests.
type fakeLocal struct {
	mu      sync.Mutex
	vector  store.Vector
	applied []store.Record
	adopted *store.ReplicaState
	clocks  map[string]uint64
}

func (f *fakeLocal) ReplicaID() string { return "me" }
func (f *fakeLocal) AppliedVector() store.Vector {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.vector.Clone()
}
func (f *fakeLocal) ApplyRemote(recs []store.Record) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, r := range recs {
		if r.OriginSeq == f.vector[r.Origin]+1 {
			f.vector[r.Origin] = r.OriginSeq
			f.applied = append(f.applied, r)
			n++
		}
	}
	return n, nil
}
func (f *fakeLocal) AdoptState(st *store.ReplicaState) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.adopted = st
	for _, o := range st.Origins {
		if o.Seq > f.vector[o.ID] {
			f.vector[o.ID] = o.Seq
		}
	}
	return nil
}
func (f *fakeLocal) NoteOriginClock(origin string, lc uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.clocks == nil {
		f.clocks = map[string]uint64{}
	}
	f.clocks[origin] = lc
}

// TestTailerDrainsBatches: a peer with a backlog is drained across
// multiple pulls within one sync round, and the peer's clock is noted
// only after the final (More=false) batch.
func TestTailerDrainsBatches(t *testing.T) {
	backlog := []store.Record{
		{Origin: "peer", OriginSeq: 1, LC: 1, Op: store.OpLike, Keys: []store.Key{{Node: "x"}}},
		{Origin: "peer", OriginSeq: 2, LC: 2, Op: store.OpLike, Keys: []store.Key{{Node: "y"}}},
		{Origin: "peer", OriginSeq: 3, LC: 3, Op: store.OpDislike, Keys: []store.Key{{Node: "x"}}},
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		since, err := ParseVector(r.URL.Query().Get("since"))
		if err != nil {
			t.Errorf("peer received bad vector: %v", err)
		}
		if got := r.URL.Query().Get("from"); got != "me" {
			t.Errorf("from = %q, want me", got)
		}
		var out []store.Record
		for _, rec := range backlog {
			if rec.OriginSeq > since[rec.Origin] {
				out = append(out, rec)
			}
		}
		resp := PullResponse{Origin: "peer", Vector: store.Vector{"peer": 3}, LC: 3}
		if len(out) > 1 { // force batching: one record per pull
			out, resp.More = out[:1], true
		}
		resp.Records = ToWireRecords(out)
		_ = json.NewEncoder(w).Encode(resp)
	}))
	defer srv.Close()

	local := &fakeLocal{vector: store.Vector{}}
	tl := NewTailer(Config{Local: local, Peers: []string{srv.URL}, Interval: time.Hour})
	tl.SyncOnce(t.Context())
	tl.Stop()

	if len(local.applied) != 3 {
		t.Fatalf("applied %d records, want 3", len(local.applied))
	}
	if local.clocks["peer"] != 3 {
		t.Fatalf("peer clock = %d, want 3 (noted after the final batch)", local.clocks["peer"])
	}
	ps := tl.Peers()[0]
	if ps.Origin != "peer" || ps.RecordsPulled != 3 || ps.RecordsBehind != 0 || ps.LastError != "" {
		t.Fatalf("peer status = %+v", ps)
	}
	if ps.LastContact.IsZero() {
		t.Fatal("last contact not recorded")
	}
}

// TestTailerCatchUp: a "behind" response makes the tailer adopt the
// peer's folded state, then resume incremental pulls.
func TestTailerCatchUp(t *testing.T) {
	empty := ""
	state := &store.ReplicaState{
		Feedback: []store.FeedbackEntry{{Key: store.Key{Node: "n"}, Value: 0.5}},
		// One required parameter and one whose default is the empty
		// string: the wire form must keep the two apart.
		Queries: []store.SavedQuery{{Name: "q", SQL: "SELECT * FROM t WHERE a = ? AND b = ?",
			Params: []store.SavedParam{{Name: "a", Type: "int"}, {Name: "b", Type: "string", Default: &empty}}}},
		Epoch:   7,
		FoldPos: store.Pos{LC: 9, Origin: "peer", Seq: 9},
		Origins: []store.OriginState{{ID: "peer", Seq: 9, LC: 9}},
	}
	tailRec := store.Record{Origin: "peer", OriginSeq: 10, LC: 10, Op: store.OpLike, Keys: []store.Key{{Node: "n"}}}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		since, _ := ParseVector(r.URL.Query().Get("since"))
		resp := PullResponse{Origin: "peer", Vector: store.Vector{"peer": 10}, LC: 10}
		if since["peer"] < 9 {
			resp.Behind = true
			resp.State = StateToWire(state)
		} else if since["peer"] < 10 {
			resp.Records = ToWireRecords([]store.Record{tailRec})
		}
		_ = json.NewEncoder(w).Encode(resp)
	}))
	defer srv.Close()

	local := &fakeLocal{vector: store.Vector{}}
	tl := NewTailer(Config{Local: local, Peers: []string{srv.URL}, Interval: time.Hour})
	tl.SyncOnce(t.Context())
	tl.Stop()

	if local.adopted == nil {
		t.Fatal("state not adopted")
	}
	if local.adopted.Epoch != 7 || local.adopted.FoldPos != state.FoldPos {
		t.Fatalf("adopted state = %+v", local.adopted)
	}
	if !reflect.DeepEqual(local.adopted.Queries, state.Queries) {
		t.Fatalf("adopted queries = %+v, want %+v", local.adopted.Queries, state.Queries)
	}
	if len(local.applied) != 1 || local.applied[0].OriginSeq != 10 {
		t.Fatalf("tail after adoption = %+v, want the peer's record 10", local.applied)
	}
	if tl.Peers()[0].CatchUps != 1 {
		t.Fatalf("catch-ups = %d, want 1", tl.Peers()[0].CatchUps)
	}
}

// TestTailerRecordsPeerErrors: an unreachable peer surfaces in the status
// without wedging the loop, and Stop is safe before/after Start.
func TestTailerRecordsPeerErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "replica down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	local := &fakeLocal{vector: store.Vector{}}
	tl := NewTailer(Config{Local: local, Peers: []string{srv.URL}, Interval: time.Hour})
	tl.SyncOnce(t.Context())
	if ps := tl.Peers()[0]; ps.LastError == "" {
		t.Fatal("503 peer did not record an error")
	}
	tl.Start()
	tl.Stop()
	tl.Stop() // idempotent
}

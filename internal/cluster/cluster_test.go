package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"soda/internal/obs"
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

// recordPull returns what WritePull puts on the wire for resp.
func recordPull(t testing.TB, resp *PullResponse) *http.Response {
	t.Helper()
	rec := httptest.NewRecorder()
	if err := WritePull(rec, resp); err != nil {
		t.Fatal(err)
	}
	return rec.Result()
}

// testState is a catch-up state with every section populated. Its saved
// query has one required parameter and one whose default is the empty
// string: the wire form must keep the two apart.
func testState() *store.ReplicaState {
	empty := ""
	return &store.ReplicaState{
		// Sorted by key, as the feedback section is.
		Feedback: []store.FeedbackEntry{{Key: store.Key{Table: "t", Column: "c"}, Value: -1}, {Key: store.Key{Node: "n"}, Value: 0.5}},
		Queries: []store.SavedQuery{{Name: "q", SQL: "SELECT * FROM t WHERE a = ? AND b = ?",
			Params: []store.SavedParam{{Name: "a", Type: "int"}, {Name: "b", Type: "string", Default: &empty}}}},
		FoldPos: store.Pos{LC: 9, Origin: "peer", Seq: 9},
		Origins: []store.OriginState{{ID: "peer", Seq: 9, LC: 9}},
		Tail: []store.Record{{Origin: "peer", OriginSeq: 10, LC: 10, Op: store.OpSetQuery, Keys: []store.Key{},
			Payload: store.EncodeSavedQuery(store.SavedQuery{Name: "r", SQL: "SELECT 1"})}},
	}
}

func TestPullRoundTrip(t *testing.T) {
	batch := &PullResponse{
		Origin: "peer", Vector: store.Vector{"peer": 9, "a": 1}, LC: 14, More: true,
		Records: []store.Record{
			{Origin: "a", OriginSeq: 1, LC: 1, Op: store.OpLike, Keys: []store.Key{{Node: "n"}, {Table: "t", Column: "c"}}},
			{Origin: "peer", OriginSeq: 9, LC: 14, Op: store.OpReset, Keys: []store.Key{}},
		},
	}
	catchUp := &PullResponse{Origin: "peer", Vector: store.Vector{"peer": 10}, LC: 10, Behind: true, State: testState()}
	for _, want := range []*PullResponse{batch, catchUp} {
		got, err := ReadPull(recordPull(t, want))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip = %+v, want %+v", got, want)
		}
	}

	for _, bad := range []store.Record{
		{Origin: "a", OriginSeq: 1, LC: 1, Op: 9},
		{Origin: "bad id", OriginSeq: 1, LC: 1, Op: store.OpLike},
	} {
		resp := &PullResponse{Origin: "peer", Records: []store.Record{batch.Records[0], bad}}
		if _, err := ReadPull(recordPull(t, resp)); err == nil {
			t.Fatalf("record %+v accepted", bad)
		}
	}
}

// fakeLocal is a scripted Local for tailer tests.
type fakeLocal struct {
	mu         sync.Mutex
	vector     store.Vector
	applyCalls int
	applied    []store.Record
	adopted    *store.ReplicaState
	clocks     map[string]uint64
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
	f.applyCalls++
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
// only after the final (More=false) batch. Every pull of the drain
// carries a child of one trace — a shared, valid trace id with a
// distinct span id per pull — so the peer's request log groups them as
// one pass.
func TestTailerDrainsBatches(t *testing.T) {
	backlog := []store.Record{
		{Origin: "peer", OriginSeq: 1, LC: 1, Op: store.OpLike, Keys: []store.Key{{Node: "x"}}},
		{Origin: "peer", OriginSeq: 2, LC: 2, Op: store.OpLike, Keys: []store.Key{{Node: "y"}}},
		{Origin: "peer", OriginSeq: 3, LC: 3, Op: store.OpDislike, Keys: []store.Key{{Node: "x"}}},
	}
	var mu sync.Mutex
	var parents []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		parents = append(parents, r.Header.Get(obs.TraceparentHeader))
		mu.Unlock()
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
		// More only while a record is left beyond the batch, as
		// core.System.ServePull answers it: three records drain in
		// three pulls.
		if limit, _ := strconv.Atoi(r.URL.Query().Get("limit")); limit > 0 && len(out) > limit {
			out, resp.More = out[:limit], true
		}
		resp.Records = out
		_ = WritePull(w, &resp)
	}))
	defer srv.Close()

	local := &fakeLocal{vector: store.Vector{}}
	tl := NewTailer(Config{Local: local, Peers: []string{srv.URL}, Interval: time.Hour, BatchLimit: 1})
	tl.SyncOnce(t.Context())
	tl.Stop()

	if len(local.applied) != 3 || len(parents) != 3 {
		t.Fatalf("applied %d records over %d pulls, want 3 over 3", len(local.applied), len(parents))
	}
	spans := map[string]bool{}
	for i, h := range parents {
		tc, ok := obs.ParseTraceparent(h)
		if !ok || !tc.Valid() {
			t.Fatalf("pull %d traceparent %q is not a valid trace context", i, h)
		}
		if first, _ := obs.ParseTraceparent(parents[0]); tc.TraceID != first.TraceID {
			t.Fatalf("pull %d trace id %s, want the drain's %s", i, tc.TraceID, first.TraceID)
		}
		if spans[tc.SpanID] {
			t.Fatalf("pull %d reuses span id %s", i, tc.SpanID)
		}
		spans[tc.SpanID] = true
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
	state := testState()
	state.Tail = nil
	tailRec := store.Record{Origin: "peer", OriginSeq: 10, LC: 10, Op: store.OpLike, Keys: []store.Key{{Node: "n"}}}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		since, _ := ParseVector(r.URL.Query().Get("since"))
		resp := PullResponse{Origin: "peer", Vector: store.Vector{"peer": 10}, LC: 10}
		if since["peer"] < 9 {
			resp.Behind = true
			resp.State = state
		} else if since["peer"] < 10 {
			resp.Records = []store.Record{tailRec}
		}
		_ = WritePull(w, &resp)
	}))
	defer srv.Close()

	local := &fakeLocal{vector: store.Vector{}}
	tl := NewTailer(Config{Local: local, Peers: []string{srv.URL}, Interval: time.Hour})
	tl.SyncOnce(t.Context())
	tl.Stop()

	if local.adopted == nil {
		t.Fatal("state not adopted")
	}
	if local.adopted.FoldPos != state.FoldPos {
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

// TestTailerAppliesNothingFromDamagedPull: a pull body cut mid-frame, one
// cut at a frame boundary while Content-Length promises more, and one
// that reaches the body limit each fail the whole pull. Frames can end
// cleanly at a boundary, so only the length checks catch the last two.
func TestTailerAppliesNothingFromDamagedPull(t *testing.T) {
	recs := []store.Record{
		{Origin: "peer", OriginSeq: 1, LC: 1, Op: store.OpLike, Keys: []store.Key{{Node: "x"}}},
		{Origin: "peer", OriginSeq: 2, LC: 2, Op: store.OpLike, Keys: []store.Key{{Node: "y"}}},
	}
	full := recordPull(t, &PullResponse{Origin: "peer", Vector: store.Vector{"peer": 2}, LC: 2, Records: recs})
	body, err := io.ReadAll(full.Body)
	if err != nil {
		t.Fatal(err)
	}
	firstFrame := len(store.EncodeRecords(recs[:1]))
	catchUp := recordPull(t, &PullResponse{Origin: "peer", Vector: store.Vector{"peer": 10}, LC: 10, Behind: true, State: testState()})
	stateBody, err := io.ReadAll(catchUp.Body)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		header  http.Header
		body    []byte
		promise int // Content-Length sent
		limit   int // maxPullBody during the pull
	}{
		{"cut mid-frame", full.Header, body[:len(body)-3], len(body) - 3, maxPullBody},
		{"cut at a frame boundary", full.Header, body[:firstFrame], len(body), maxPullBody},
		{"batch over the limit", full.Header, body, len(body), len(body)},
		{"catch-up cut mid-section", catchUp.Header, stateBody[:len(stateBody)-1], len(stateBody) - 1, maxPullBody},
		{"catch-up over the limit", catchUp.Header, stateBody, len(stateBody), len(stateBody) / 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func(old int) { maxPullBody = old }(maxPullBody)
			maxPullBody = tc.limit
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				for k, v := range tc.header {
					w.Header()[k] = v
				}
				w.Header().Set("Content-Length", strconv.Itoa(tc.promise))
				_, _ = w.Write(tc.body)
			}))
			defer srv.Close()

			local := &fakeLocal{vector: store.Vector{}}
			tl := NewTailer(Config{Local: local, Peers: []string{srv.URL}, Interval: time.Hour})
			tl.SyncOnce(t.Context())
			tl.Stop()
			ps := tl.Peers()[0]
			if ps.LastError == "" {
				t.Fatal("damaged pull recorded no error")
			}
			t.Log(ps.LastError)
			if local.applyCalls != 0 || local.adopted != nil || local.clocks != nil {
				t.Fatalf("damaged pull reached the local replica: %d applies, adopted %v, clocks %v",
					local.applyCalls, local.adopted != nil, local.clocks)
			}
		})
	}
}

// FuzzReadPull feeds arbitrary bodies under real batch and catch-up
// headers. The record frames and state sections are the WAL and snapshot
// codecs, so this fuzzes those decoders too. A body that decodes must
// re-encode to a fixpoint.
func FuzzReadPull(f *testing.F) {
	batch := &PullResponse{Origin: "peer", Vector: store.Vector{"peer": 2}, LC: 2, More: true, Records: []store.Record{
		{Origin: "peer", OriginSeq: 1, LC: 1, Op: store.OpLike, Keys: []store.Key{{Node: "x"}, {Table: "t", Column: "c"}}},
		{Origin: "peer", OriginSeq: 2, LC: 2, Op: store.OpDelQuery, Payload: []byte("q")},
	}}
	catchUp := &PullResponse{Origin: "peer", Vector: store.Vector{"peer": 10}, LC: 10, Behind: true, State: testState()}
	headers := map[bool]http.Header{}
	for _, resp := range []*PullResponse{batch, catchUp} {
		r := recordPull(f, resp)
		body, err := io.ReadAll(r.Body)
		if err != nil {
			f.Fatal(err)
		}
		headers[resp.Behind] = r.Header
		f.Add(resp.Behind, body)
	}
	read := func(behind bool, body []byte) (*PullResponse, error) {
		return ReadPull(&http.Response{StatusCode: http.StatusOK, Header: headers[behind],
			Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body))})
	}
	f.Fuzz(func(t *testing.T, behind bool, body []byte) {
		first, err := read(behind, body)
		if err != nil {
			return
		}
		enc := recordPull(t, first)
		encBody, _ := io.ReadAll(enc.Body)
		second, err := read(behind, encBody)
		if err != nil {
			t.Fatalf("re-encoded pull does not decode: %v", err)
		}
		again, _ := io.ReadAll(recordPull(t, second).Body)
		if !bytes.Equal(encBody, again) {
			t.Fatalf("encoding is not a fixpoint:\n%x\n%x", encBody, again)
		}
	})
}

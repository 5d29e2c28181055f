package core

import (
	"os"
	"path/filepath"
	"testing"

	"soda/internal/cluster"
	"soda/internal/store"
)

// The replication contract: feedback state is the fold of the applied
// record set in canonical (LC, origin, originSeq) order, so replicas that
// exchange records land on byte-identical rankings regardless of
// delivery order, and a restart replays to the same state.

// pull serves one pull from src to a requester named from (no ack when
// empty) holding the vector since.
func pull(t *testing.T, src *System, from string, since store.Vector) *cluster.PullResponse {
	t.Helper()
	resp, err := src.ServePull(from, since, 0)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// keysOf extracts the on-disk feedback keys of a solution, for crafting
// remote records.
func keysOf(sol *Solution) []store.Key {
	keys := make([]store.Key, len(sol.Entries))
	for i, e := range sol.Entries {
		keys[i] = storeKey(keyOf(e))
	}
	return keys
}

// exchange pumps records between two Systems (both directions, with acks
// and clock notes) until neither moves — a two-node in-process fleet
// reaching quiescence.
func exchange(t *testing.T, a, b *System) {
	t.Helper()
	for i := 0; i < 32; i++ {
		moved := false
		for _, pair := range [][2]*System{{a, b}, {b, a}} {
			src, dst := pair[0], pair[1]
			resp := pull(t, src, dst.ReplicaID(), dst.AppliedVector())
			if resp.Behind {
				t.Fatal("exchange: unexpected behind (nothing was folded)")
			}
			if resp.More {
				t.Fatal("exchange: unlimited pull reported more")
			}
			if len(resp.Records) > 0 {
				n, err := dst.ApplyRemote(resp.Records)
				if err != nil {
					t.Fatal(err)
				}
				if n > 0 {
					moved = true
				}
			}
			dst.NoteOriginClock(src.ReplicaID(), resp.LC)
		}
		if !moved {
			return
		}
	}
	t.Fatal("exchange did not quiesce")
}

func assertSameVector(t *testing.T, a, b store.Vector, context string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: vectors differ: %v vs %v", context, a, b)
	}
	for o, s := range a {
		if b[o] != s {
			t.Fatalf("%s: vectors differ at %s: %v vs %v", context, o, a, b)
		}
	}
}

// TestTwoReplicasConverge: feedback applied independently on two replicas
// converges to byte-identical rankings once records are exchanged — in
// either exchange order.
func TestTwoReplicasConverge(t *testing.T) {
	a := openReplica(t, t.TempDir(), "a", 1, Options{})
	defer a.Close()
	b := openReplica(t, t.TempDir(), "b", 1, Options{})
	defer b.Close()

	applyTestFeedback(t, a, 2)
	applyTestFeedback(t, b, 1)
	ans := search(t, b, "wealthy customers")
	if err := b.Feedback(ans.Solutions[0], true); err != nil {
		t.Fatal(err)
	}

	exchange(t, a, b)
	assertSameVector(t, a.AppliedVector(), b.AppliedVector(), "post-exchange")
	assertSameRankings(t, rankingsOf(t, a), rankingsOf(t, b), "two-replica convergence")
}

// TestRemoteDeliveryOrderIrrelevant: two replicas that receive the same
// remote records in different interleavings (one canonical, one reversed
// per-batch) fold to identical state — the out-of-order path re-folds.
func TestRemoteDeliveryOrderIrrelevant(t *testing.T) {
	a := openReplica(t, t.TempDir(), "a", 2, Options{})
	defer a.Close()
	b := openReplica(t, t.TempDir(), "b", 2, Options{})
	defer b.Close()

	// Craft records from two fictitious origins with interleaved clocks.
	sol := search(t, a, "customer").Solutions[0]
	k1 := keysOf(sol)
	sol2 := search(t, a, "customers Zürich").Solutions[0]
	k2 := keysOf(sol2)
	cRecs := []store.Record{
		{Origin: "c", OriginSeq: 1, LC: 1, Op: store.OpLike, Keys: k1},
		{Origin: "c", OriginSeq: 2, LC: 3, Op: store.OpDislike, Keys: k2},
		{Origin: "c", OriginSeq: 3, LC: 5, Op: store.OpLike, Keys: k1},
	}
	dRecs := []store.Record{
		{Origin: "d", OriginSeq: 1, LC: 2, Op: store.OpDislike, Keys: k1},
		{Origin: "d", OriginSeq: 2, LC: 4, Op: store.OpLike, Keys: k2},
	}

	// Replica a sees all of c first, then all of d (so d's records sort
	// into the middle of its tail); replica b sees them the other way.
	for _, batch := range [][]store.Record{cRecs, dRecs} {
		if _, err := a.ApplyRemote(batch); err != nil {
			t.Fatal(err)
		}
	}
	for _, batch := range [][]store.Record{dRecs, cRecs} {
		if _, err := b.ApplyRemote(batch); err != nil {
			t.Fatal(err)
		}
	}
	assertSameRankings(t, rankingsOf(t, a), rankingsOf(t, b), "delivery order")

	// Re-applying a batch is a no-op: the vector already covers it.
	n, err := a.ApplyRemote(cRecs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("duplicate batch applied %d records, want 0", n)
	}
}

// TestReplayDeterminismInterleavedRemote: a WAL holding local records
// interleaved with remote ones (arrival order ≠ canonical order) replays
// to the exact pre-crash state — with and without the snapshot.
func TestReplayDeterminismInterleavedRemote(t *testing.T) {
	dir := t.TempDir()
	sys1 := openReplica(t, dir, "a", 1, Options{})
	// A snapshot of the empty state, for the first reopen to replay the
	// WAL on top of.
	if _, err := sys1.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}

	// Local feedback (advancing a's clock), then remote records whose
	// clocks interleave below it, then more local feedback.
	applyTestFeedback(t, sys1, 1)
	sol := search(t, sys1, "customer").Solutions[0]
	k := keysOf(sol)
	remote := []store.Record{
		{Origin: "b", OriginSeq: 1, LC: 1, Op: store.OpLike, Keys: k},
		{Origin: "b", OriginSeq: 2, LC: 2, Op: store.OpLike, Keys: k},
	}
	if _, err := sys1.ApplyRemote(remote); err != nil {
		t.Fatal(err)
	}
	applyTestFeedback(t, sys1, 1)
	want := rankingsOf(t, sys1)
	wantVec := sys1.AppliedVector()
	if err := sys1.rep.store.Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulated crash: no Close, no final snapshot — the WAL carries the
	// interleaved history.

	sys2 := openReplica(t, dir, "a", 1, Options{})
	if sys2.StoreStats().ReplayedRecords == 0 {
		t.Fatal("expected WAL records to replay")
	}
	assertSameVector(t, wantVec, sys2.AppliedVector(), "replayed vector")
	assertSameRankings(t, want, rankingsOf(t, sys2), "snapshot+interleaved tail replay")
	if err := sys2.rep.store.Sync(); err != nil {
		t.Fatal(err)
	}

	// Cold replay (snapshot deleted): same state from the records alone.
	if err := os.Remove(filepath.Join(dir, "snapshot.soda")); err != nil {
		t.Fatal(err)
	}
	sys3 := openReplica(t, dir, "a", 1, Options{})
	assertSameVector(t, wantVec, sys3.AppliedVector(), "cold replayed vector")
	assertSameRankings(t, want, rankingsOf(t, sys3), "cold interleaved replay")
}

// TestFoldGatesRetainRecordsForPeers: with peers configured, snapshots do
// not compact records until every peer has been heard from *and* has
// acknowledged them; afterwards the log empties and a blank puller is
// told to adopt the folded state.
func TestFoldGatesRetainRecordsForPeers(t *testing.T) {
	dir := t.TempDir()
	sys := openReplica(t, dir, "a", 1, Options{})
	defer sys.Close()
	applyTestFeedback(t, sys, 2)
	before := sys.StoreStats().WALRecords
	if before == 0 {
		t.Fatal("feedback wrote no WAL records")
	}

	// Unheard, unacked peer: nothing may fold.
	if _, err := sys.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	if got := sys.StoreStats().WALRecords; got != before {
		t.Fatalf("snapshot compacted %d records with an unacked peer", before-got)
	}
	if resp := pull(t, sys, "", store.Vector{}); resp.Behind || len(resp.Records) != before {
		t.Fatalf("retained records = %d (behind=%v), want %d", len(resp.Records), resp.Behind, before)
	}

	// Peer heard (clock note) and fully acked: everything folds.
	sys.NoteOriginClock("b", sys.ReplicationInfo().Lamport)
	pull(t, sys, "b", sys.AppliedVector())
	if _, err := sys.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	if got := sys.StoreStats().WALRecords; got != 0 {
		t.Fatalf("wal records after acked snapshot = %d, want 0", got)
	}

	// A blank puller is now behind the fold point.
	if !pull(t, sys, "", store.Vector{}).Behind {
		t.Fatal("blank puller not reported behind after fold")
	}
	// The acked peer itself is not behind.
	if pull(t, sys, "", sys.AppliedVector()).Behind {
		t.Fatal("up-to-date puller reported behind")
	}

	// A ghost ack — an operator's one-off debug pull with a stale vector —
	// must not wedge folding: enough *distinct* coverage suffices.
	pull(t, sys, "debug-probe", store.Vector{})
	applyTestFeedback(t, sys, 1)
	pull(t, sys, "b", sys.AppliedVector())
	sys.NoteOriginClock("b", sys.ReplicationInfo().Lamport)
	if _, err := sys.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	if got := sys.StoreStats().WALRecords; got != 0 {
		t.Fatalf("ghost ack blocked folding: %d wal records, want 0", got)
	}
}

// TestAdoptClusterState: a fresh replica that fell behind a peer's fold
// point adopts the folded state and converges, including its own local
// feedback on top.
func TestAdoptClusterState(t *testing.T) {
	a := openReplica(t, t.TempDir(), "a", 1, Options{})
	defer a.Close()
	applyTestFeedback(t, a, 2)
	a.NoteOriginClock("b", a.ReplicationInfo().Lamport)
	pull(t, a, "b", a.AppliedVector())
	if _, err := a.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}

	b := openReplica(t, t.TempDir(), "b", 1, Options{})
	defer b.Close()
	// b has local feedback of its own that a has never seen.
	ans := search(t, b, "wealthy customers")
	if err := b.Feedback(ans.Solutions[0], true); err != nil {
		t.Fatal(err)
	}

	resp := pull(t, a, "", b.AppliedVector())
	if !resp.Behind {
		t.Fatal("fresh replica should be behind a's fold point")
	}
	if err := b.AdoptState(resp.State); err != nil {
		t.Fatal(err)
	}
	// After adoption the incremental path works again; drain both ways.
	exchange(t, a, b)
	assertSameVector(t, a.AppliedVector(), b.AppliedVector(), "post-adopt")
	assertSameRankings(t, rankingsOf(t, a), rankingsOf(t, b), "post-adopt convergence")

	// The adoption is durable: b replays to the same state.
	wantVec := b.AppliedVector()
	want := rankingsOf(t, b)
	if err := b.rep.store.Sync(); err != nil {
		t.Fatal(err)
	}
	b2 := openReplica(t, b.rep.store.Dir(), "b", 1, Options{})
	assertSameVector(t, wantVec, b2.AppliedVector(), "adopted state replay vector")
	assertSameRankings(t, want, rankingsOf(t, b2), "adopted state replay")
}

// TestServePullMoreOnlyWhenRecordsLeft: More promises that another pull
// returns records. A backlog of exactly limit records fits one batch, so
// it answers More=false, and a drain at limit 1 takes one pull per
// record, not one more that returns nothing.
func TestServePullMoreOnlyWhenRecordsLeft(t *testing.T) {
	sys := openReplica(t, t.TempDir(), "a", 1, Options{})
	defer sys.Close()
	applyTestFeedback(t, sys, 2)
	n := len(pull(t, sys, "", store.Vector{}).Records)
	if n < 2 {
		t.Fatalf("backlog of %d records, want at least 2", n)
	}
	for _, c := range []struct {
		limit, records int
		more           bool
	}{{n, n, false}, {n + 1, n, false}, {n - 1, n - 1, true}} {
		resp, err := sys.ServePull("", store.Vector{}, c.limit)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Records) != c.records || resp.More != c.more {
			t.Fatalf("limit %d over %d records: %d records, More=%v; want %d, %v",
				c.limit, n, len(resp.Records), resp.More, c.records, c.more)
		}
	}
	since, pulls := store.Vector{}, 0
	for more := true; more; pulls++ {
		resp, err := sys.ServePull("", since, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Records) == 0 {
			t.Fatalf("pull %d returned no records", pulls+1)
		}
		for _, rec := range resp.Records {
			since[rec.Origin] = max(since[rec.Origin], rec.OriginSeq)
		}
		more = resp.More
	}
	if pulls != n {
		t.Fatalf("drained %d records in %d pulls at limit 1, want %d", n, pulls, n)
	}
}

package core

import (
	"sync"
	"testing"
	"time"

	"soda/internal/store"
)

// The dead-peer escape hatch: a peer that is gone for good (or declared
// silent past Options.PeerDeadAfter) must stop gating WAL folding, and a
// late return of that peer must land on the folded state via the
// catch-up path rather than a record stream it can no longer get.

// TestDecommissionUnblocksFolding: replica "a" of a three-node fleet has
// heard from and been acked by "b", but "c" died before ever pulling.
// Folding is wedged until the operator decommissions "c"; afterwards the
// log folds on b's acks alone, and a resurrected "c" safely adopts the
// folded state.
func TestDecommissionUnblocksFolding(t *testing.T) {
	sys := openReplica(t, t.TempDir(), "a", 2, Options{})
	defer sys.Close()

	// Concurrent introspection while the fold state flips — the -race
	// value of this test.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sys.ReplicationInfo()
				sys.CacheStats()
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)

	applyTestFeedback(t, sys, 2)
	before := sys.StoreStats().WALRecords
	if before == 0 {
		t.Fatal("feedback wrote no WAL records")
	}

	// b is live and fully caught up; c has never been heard from.
	sys.NoteOriginClock("b", sys.ReplicationInfo().Lamport)
	pull(t, sys, "b", sys.AppliedVector())
	if _, err := sys.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	if got := sys.StoreStats().WALRecords; got != before {
		t.Fatalf("snapshot compacted %d records while peer c still gates", before-got)
	}

	if err := sys.DecommissionReplica(""); err == nil {
		t.Fatal("decommissioning an empty id did not error")
	}
	if err := sys.DecommissionReplica("a"); err == nil {
		t.Fatal("self-decommission did not error")
	}
	if err := sys.DecommissionReplica("c"); err != nil {
		t.Fatal(err)
	}
	info := sys.ReplicationInfo()
	if len(info.Decommissioned) != 1 || info.Decommissioned[0] != "c" {
		t.Fatalf("ReplicationInfo.Decommissioned = %v, want [c]", info.Decommissioned)
	}

	// c no longer gates: the quorum shrinks to b, everything folds.
	if _, err := sys.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	if got := sys.StoreStats().WALRecords; got != 0 {
		t.Fatalf("wal records after decommission = %d, want 0 (folding still wedged)", got)
	}

	// Folding keeps working for subsequent feedback, still without c.
	applyTestFeedback(t, sys, 1)
	sys.NoteOriginClock("b", sys.ReplicationInfo().Lamport)
	pull(t, sys, "b", sys.AppliedVector())
	if _, err := sys.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	if got := sys.StoreStats().WALRecords; got != 0 {
		t.Fatalf("wal records after post-decommission feedback = %d, want 0", got)
	}

	// A blank puller — the returning c — is behind the fold point and is
	// told to adopt.
	resp := pull(t, sys, "", store.Vector{})
	if !resp.Behind {
		t.Fatal("blank puller not reported behind after fold")
	}
	c := openReplica(t, t.TempDir(), "c", 2, Options{})
	defer c.Close()
	if err := c.AdoptState(resp.State); err != nil {
		t.Fatal(err)
	}
	assertSameRankings(t, rankingsOf(t, sys), rankingsOf(t, c), "late-returning decommissioned peer after adopt")
}

// TestPeerDeadAfterUnblocksFolding covers both staleness gates: a peer
// never heard from ages against the store-open time, and a peer heard
// from and then silent ages against its last contact. The replica reads
// a fake clock, so both "still gates while fresh" assertions hold however
// slow the machine is.
func TestPeerDeadAfterUnblocksFolding(t *testing.T) {
	const bound = 150 * time.Millisecond
	sys := openReplica(t, t.TempDir(), "a", 1, Options{PeerDeadAfter: bound})
	defer sys.Close()
	clock := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	sys.rep.mu.Lock()
	sys.rep.now = func() time.Time { return clock }
	sys.rep.replStart = clock // as if the store had opened at the fake time
	sys.rep.mu.Unlock()

	applyTestFeedback(t, sys, 2)
	before := sys.StoreStats().WALRecords
	if before == 0 {
		t.Fatal("feedback wrote no WAL records")
	}

	// Within the bound the unheard peer still gates.
	if _, err := sys.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	if got := sys.StoreStats().WALRecords; got != before {
		t.Fatalf("snapshot compacted %d records inside the staleness bound", before-got)
	}

	// Past the bound with no contact at all: the unheard slot is declared
	// dead, the quorum drops to zero and everything folds.
	clock = clock.Add(bound + time.Millisecond)
	if _, err := sys.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	if got := sys.StoreStats().WALRecords; got != 0 {
		t.Fatalf("wal records after staleness bound = %d, want 0", got)
	}

	// The peer shows up, acks, then goes silent: new records are retained
	// while it is fresh, and fold once it ages out again.
	sys.NoteOriginClock("b", sys.ReplicationInfo().Lamport)
	pull(t, sys, "b", sys.AppliedVector())
	applyTestFeedback(t, sys, 1)
	retained := sys.StoreStats().WALRecords
	if retained == 0 {
		t.Fatal("post-ack feedback wrote no WAL records")
	}
	clock = clock.Add(bound) // at the bound, not past it: still fresh
	if _, err := sys.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	if got := sys.StoreStats().WALRecords; got != retained {
		t.Fatalf("snapshot compacted %d records b has not acked while fresh", retained-got)
	}
	clock = clock.Add(time.Millisecond)
	if _, err := sys.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	if got := sys.StoreStats().WALRecords; got != 0 {
		t.Fatalf("wal records after b went silent past the bound = %d, want 0", got)
	}
}

// TestDecommissionRejectsInvalidIDs: an id no replica can have is
// refused, so it never counts as a dead peer. Replica "a" of {a, b, c}
// has b's acks but has never heard from c: a refused id must leave c
// gating folding, and the snapshot compacts nothing c never pulled.
func TestDecommissionRejectsInvalidIDs(t *testing.T) {
	sys := openReplica(t, t.TempDir(), "a", 2, Options{})
	defer sys.Close()
	applyTestFeedback(t, sys, 2)
	sys.NoteOriginClock("b", sys.ReplicationInfo().Lamport)
	pull(t, sys, "b", sys.AppliedVector())
	before := sys.StoreStats().WALRecords
	if before == 0 {
		t.Fatal("feedback wrote no WAL records")
	}
	for _, id := range []string{"b,c", "r2 r3", "c:1"} {
		if err := sys.DecommissionReplica(id); err == nil {
			t.Fatalf("decommissioning %q did not error", id)
		}
	}
	if got := sys.ReplicationInfo().Decommissioned; len(got) != 0 {
		t.Fatalf("Decommissioned = %v after refused ids, want none", got)
	}
	if _, err := sys.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	if got := sys.StoreStats().WALRecords; got != before {
		t.Fatalf("snapshot compacted %d of %d records peer c never pulled", before-got, before)
	}
}

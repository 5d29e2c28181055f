package core

import (
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"soda/internal/backend/memory"
	"soda/internal/store"
)

// The persistence contract: a System that dies and reopens the same data
// directory — from a snapshot, from a WAL replay, or from both — must
// produce byte-identical rankings to the one that wrote it.

const persistTestFP = uint64(0x50DA)

// openReplica builds a System over the shared minibank world and attaches
// a store in dir under replica id id ("" keeps "local") with peers
// configured peers. Returned systems are closed by the caller.
func openReplica(t *testing.T, dir, id string, peers int, opt Options) *System {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Closing the raw store is idempotent: systems the test closed
	// gracefully already released it, "crashed" ones leak their flusher
	// goroutine until here.
	t.Cleanup(func() { st.Close() })
	snap, err := st.LoadSnapshot(persistTestFP)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(memory.New(world.DB), world.Meta, world.Index, opt)
	if err := sys.OpenStore(st, snap, id, peers, persistTestFP); err != nil {
		t.Fatal(err)
	}
	return sys
}

// applyTestFeedback records a deterministic feedback sequence: dislikes
// on the ontology "customer" interpretation and likes on the Zürich
// base-data interpretation, re-searching between calls.
func applyTestFeedback(t *testing.T, sys *System, rounds int) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		a := search(t, sys, "customer")
		if err := sys.Feedback(a.Solutions[0], i%2 == 0); err != nil {
			t.Fatal(err)
		}
		a = search(t, sys, "customers Zürich")
		if err := sys.Feedback(a.Solutions[len(a.Solutions)-1], false); err != nil {
			t.Fatal(err)
		}
	}
}

func rankingsOf(t *testing.T, sys *System) []string {
	t.Helper()
	var out []string
	for _, q := range determinismQueries {
		out = append(out, sqlsOf(t, sys, q)...)
		a := search(t, sys, q)
		for _, sol := range a.Solutions {
			out = append(out, formatScore(sol.Score))
		}
	}
	return out
}

func formatScore(s float64) string {
	// Full float bits: "byte-identical ranking" includes the scores, not
	// just the SQL ordering.
	return strconv.FormatFloat(s, 'x', -1, 64)
}

func assertSameRankings(t *testing.T, a, b []string, context string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: ranking lengths differ: %d vs %d", context, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: ranking entry %d differs:\n%q\nvs\n%q", context, i, a[i], b[i])
		}
	}
}

// TestWALReplayDeterminism: the same WAL produces byte-identical rankings
// — whether replayed on top of a snapshot or cold from an empty feedback
// map — and a second replay does not double-apply.
func TestWALReplayDeterminism(t *testing.T) {
	dir := t.TempDir()
	sys1 := openReplica(t, dir, "", 0, Options{})
	// A snapshot of the empty state, for the first reopen to replay the
	// WAL on top of.
	if _, err := sys1.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	applyTestFeedback(t, sys1, 3)
	want := rankingsOf(t, sys1)
	if err := sys1.rep.store.Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulated crash: the store is NOT closed, so no final snapshot is
	// written — the WAL tail carries all the feedback.

	// Reopen 1: the empty snapshot + WAL tail.
	sys2 := openReplica(t, dir, "", 0, Options{})
	if sys2.StoreStats().ReplayedRecords == 0 {
		t.Fatal("expected WAL records to replay")
	}
	assertSameRankings(t, want, rankingsOf(t, sys2), "snapshot+tail replay")
	if err := sys2.rep.store.Sync(); err != nil {
		t.Fatal(err)
	}

	// Reopen 2: delete the snapshot — a pure WAL replay from scratch must
	// land on the same state.
	if err := os.Remove(filepath.Join(dir, "snapshot.soda")); err != nil {
		t.Fatal(err)
	}
	sys3 := openReplica(t, dir, "", 0, Options{})
	assertSameRankings(t, want, rankingsOf(t, sys3), "cold WAL replay")

	// Reopen 3: sys3's Close folds the WAL into a fresh snapshot and
	// compacts it; opening again must replay nothing and still agree.
	if err := sys3.Close(); err != nil {
		t.Fatal(err)
	}
	sys4 := openReplica(t, dir, "", 0, Options{})
	defer sys4.Close()
	st := sys4.StoreStats()
	if !st.WarmStart {
		t.Fatal("expected warm start from the compacted snapshot")
	}
	if st.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records after compaction, want 0 (no double-apply)", st.ReplayedRecords)
	}
	assertSameRankings(t, want, rankingsOf(t, sys4), "warm reopen")
}

// TestCloseWritesFinalSnapshot: a graceful shutdown folds the WAL tail
// into a snapshot, and the next boot is warm with nothing to replay.
func TestCloseWritesFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	sys1 := openReplica(t, dir, "", 0, Options{})
	applyTestFeedback(t, sys1, 2)
	want := rankingsOf(t, sys1)
	if err := sys1.Close(); err != nil {
		t.Fatal(err)
	}

	sys2 := openReplica(t, dir, "", 0, Options{})
	defer sys2.Close()
	st := sys2.StoreStats()
	if !st.WarmStart || st.ReplayedRecords != 0 || st.WALRecords != 0 {
		t.Fatalf("after graceful close: %+v, want warm start with empty WAL", st)
	}
	assertSameRankings(t, want, rankingsOf(t, sys2), "post-close reopen")
}

// TestSnapshotWriteFailureCounted: an explicit snapshot write that fails
// returns its error and is counted in soda_snapshot_errors_total, like a
// failed background compaction.
func TestSnapshotWriteFailureCounted(t *testing.T) {
	dir := t.TempDir()
	sys := openReplica(t, dir, "", 0, Options{})
	defer sys.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.WriteSnapshot(); err == nil {
		t.Fatal("WriteSnapshot into a removed data dir succeeded")
	}
	if got := sys.metrics.snapshotErrors.Value(); got != 1 {
		t.Fatalf("soda_snapshot_errors_total = %d, want 1", got)
	}
}

// TestAutoCompaction: once the WAL passes compactEvery records the System
// snapshots and truncates it on its own.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	sys := openReplica(t, dir, "", 0, Options{})
	defer sys.Close()
	sol := search(t, sys, "customer").Solutions[0]
	for i := 0; i < compactEvery+2; i++ {
		if err := sys.Feedback(sol, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction runs asynchronously off the feedback call that crossed
	// the threshold; poll briefly for it to land: the observable
	// postcondition is a compaction and the WAL shrinking below the
	// threshold.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := sys.StoreStats()
		if st.Compactions >= 1 && st.WALRecords < compactEvery {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no auto-compaction after %d feedback calls: %+v", compactEvery+2, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentFeedbackSearchSnapshot hammers one persistent System with
// parallel searches, feedback and snapshot writes (run under -race in CI).
func TestConcurrentFeedbackSearchSnapshot(t *testing.T) {
	dir := t.TempDir()
	sys := openReplica(t, dir, "", 0, Options{})
	defer sys.Close()

	const goroutines = 12
	const iters = 30
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch g % 3 {
				case 0: // searcher
					q := determinismQueries[(g+i)%len(determinismQueries)]
					if _, err := sys.Search(q); err != nil {
						errs <- err
						return
					}
				case 1: // feedback giver; stale rejections are expected
					a, err := sys.Search("customer")
					if err != nil {
						errs <- err
						return
					}
					if len(a.Solutions) > 0 {
						_ = sys.Feedback(a.Solutions[0], i%2 == 0)
					}
				default: // snapshotter
					if _, err := sys.WriteSnapshot(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The surviving state must round-trip: close and reopen warm.
	want := rankingsOf(t, sys)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys2 := openReplica(t, dir, "", 0, Options{})
	defer sys2.Close()
	assertSameRankings(t, want, rankingsOf(t, sys2), "post-stress reopen")
}

// TestParallelLookupIdentical pins the satellite: per-term parallel
// lookup produces byte-identical analyses to a sequential scan.
func TestParallelLookupIdentical(t *testing.T) {
	seq := NewSystem(memory.New(world.DB), world.Meta, world.Index, Options{Parallelism: 1})
	par := NewSystem(memory.New(world.DB), world.Meta, world.Index, Options{Parallelism: 8})
	for _, q := range determinismQueries {
		a1, a2 := search(t, seq, q), search(t, par, q)
		if len(a1.Candidates) != len(a2.Candidates) {
			t.Fatalf("%q: candidate term counts differ", q)
		}
		for ti := range a1.Candidates {
			if len(a1.Candidates[ti]) != len(a2.Candidates[ti]) {
				t.Fatalf("%q: term %d candidate counts differ", q, ti)
			}
			for ci := range a1.Candidates[ti] {
				if a1.Candidates[ti][ci].Describe() != a2.Candidates[ti][ci].Describe() ||
					a1.Candidates[ti][ci].Score != a2.Candidates[ti][ci].Score {
					t.Fatalf("%q: term %d candidate %d differs", q, ti, ci)
				}
			}
		}
		s1, s2 := sqlsOf(t, seq, q), sqlsOf(t, par, q)
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("%q: ranked SQL %d differs between sequential and parallel lookup", q, i)
			}
		}
	}
}

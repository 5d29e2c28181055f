package core

// Persistence hooks: a System can attach a store.Store so its durable
// state — relevance feedback, the saved-query library and the replication
// vector — survives restarts ("open the store, replay the tail"). This
// file owns the restore from a snapshot, WAL replay, snapshot writes and
// compaction policy. The inverted index and the metadata graph are not
// persisted: every boot builds them from the world.
//
// All of it is the replica's (cluster.go) and runs under the replica's
// lock. It touches the ranking once, to publish the replayed fold. No
// search waits on anything here: searches take no lock, and
// WriteSnapshot, compaction and adoption encode and fsync the snapshot
// outside the replica's lock too.

import (
	"errors"
	"maps"
	"slices"
	"sort"
	"time"

	"soda/internal/store"
)

// compactEvery is the WAL record count that triggers an automatic
// snapshot + compaction when a persistent store is attached (snapshots
// also happen on Close and on explicit WriteSnapshot).
const compactEvery = 1024

// StoreStats describes the attached store for diagnostics; WarmStart
// reports whether this System's durable state came from a snapshot.
type StoreStats struct {
	store.Stats
	WarmStart bool `json:"warm_start"`
	// ReplayedRecords is how many WAL records were replayed at open on
	// top of the snapshot (or of empty state).
	ReplayedRecords int `json:"replayed_records"`
}

// OpenStore attaches an open store to the System: it names the replica
// (replicaID; "" keeps "local") and the number of configured peers (the
// fold gates require hearing from — and being acknowledged by — that many
// distinct replicas), records the world fingerprint stamped into
// snapshots, restores the folded base from the snapshot (when one was
// loaded), replays the WAL tail in canonical record order — skipping
// records at or below the snapshot's fold watermark, so nothing can
// double-apply — and from then on logs every write through the WAL. With no snapshot (snap == nil) the tail replays onto empty state.
//
// OpenStore must be called once, before the System serves searches.
func (s *System) OpenStore(st *store.Store, snap *store.Snapshot, replicaID string, peers int, fingerprint uint64) error {
	if st == nil {
		return errors.New("core: OpenStore: nil store")
	}
	r := &s.rep
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.store != nil {
		return errors.New("core: store already attached")
	}
	if replicaID != "" {
		r.replicaID = replicaID
	}
	r.fleetPeers, r.fingerprint = peers, fingerprint
	if snap != nil {
		r.installLocked(&snap.ReplicaState)
		r.warmStart = true
	}
	// Replay: the WAL holds records in arrival order; sort them into
	// canonical order and fold on top of the base. The result is the same
	// fold the live system computed before it stopped, however its local
	// and remote records interleaved on the wire. Whether a record is
	// already inside the base is decided by the snapshot's per-origin
	// vector (the base always holds gap-free per-origin prefixes), which
	// the duplicate check below performs against the vector seeded from
	// snap.Origins.
	pending := slices.Clone(st.Replayed())
	sort.Slice(pending, func(i, j int) bool { return pending[i].Pos().Before(pending[j].Pos()) })
	for _, rec := range pending {
		if rec.OriginSeq <= r.vector[rec.Origin] {
			continue // folded into the snapshot base, or a duplicate
		}
		r.tail = append(r.tail, rec)
		r.noteAppliedLocked(rec)
	}
	s.publish(r.refold())
	r.replayedRecords = len(r.tail)
	r.store = st
	s.registerStoreMetrics()
	// Anchor the dead-peer staleness bound: a peer never heard from at
	// all ages against the moment replication started, not the zero time.
	r.replStart = r.now()
	return nil
}

// installLocked makes fs the folded base and restarts the replication
// cursors from its per-origin vector, dropping the tail: the one install
// a warm open (from the snapshot) and an adoption (from a peer) share.
func (r *replica) installLocked(fs *store.ReplicaState) {
	r.base = make(map[feedbackKey]float64, len(fs.Feedback))
	for _, e := range fs.Feedback {
		r.base[keyFromStore(e.Key)] = e.Value
	}
	r.baseQueries = buildQueryMap(fs.Queries)
	r.foldPos = fs.FoldPos
	r.vector = make(store.Vector, len(fs.Origins))
	r.lastLC = make(map[string]uint64, len(fs.Origins))
	r.foldedVector = make(store.Vector, len(fs.Origins))
	r.foldedLastLC = make(map[string]uint64, len(fs.Origins))
	for _, o := range fs.Origins {
		r.vector[o.ID], r.foldedVector[o.ID] = o.Seq, o.Seq
		r.lastLC[o.ID], r.foldedLastLC[o.ID] = o.LC, o.LC
		r.lamport = max(r.lamport, o.LC)
	}
	r.tail = nil
}

// foldedLocked captures the folded base — what a snapshot persists and
// what a peer behind the fold point adopts — without the tail.
func (r *replica) foldedLocked() *store.ReplicaState {
	fs := &store.ReplicaState{FoldPos: r.foldPos, Queries: rawQueries(r.baseQueries)}
	for k, v := range r.base {
		fs.Feedback = append(fs.Feedback, store.FeedbackEntry{Key: storeKey(k), Value: v})
	}
	for id, seq := range r.foldedVector {
		fs.Origins = append(fs.Origins, store.OriginState{ID: id, Seq: seq, LC: r.foldedLastLC[id]})
	}
	return fs
}

// noteAppliedLocked advances the replication cursors for one applied
// record: the per-origin contiguous vector, the per-origin Lamport
// high-water mark, and the local Lamport clock.
func (r *replica) noteAppliedLocked(rec store.Record) {
	r.vector[rec.Origin] = rec.OriginSeq
	r.lastLC[rec.Origin] = max(r.lastLC[rec.Origin], rec.LC)
	r.lamport = max(r.lamport, rec.LC)
}

// refold computes the live ranking from scratch: the tail folded, in
// canonical order, onto a copy of the base. It is the open's replay, the
// adoption's and the out-of-order path — a pulled record sorted into the
// middle of the tail, so the incremental apply would have folded it in the
// wrong order. The maps are new, so the ranking can be published as it
// is.
func (r *replica) refold() *ranking {
	fb, qs := maps.Clone(r.base), maps.Clone(r.baseQueries)
	for _, rec := range r.tail {
		fb = applyRecordTo(fb, rec)
		qs = applyQueryRecordTo(qs, rec)
	}
	return &ranking{feedback: fb, queries: qs}
}

// WriteSnapshot persists the durable state (the folded feedback base and
// saved queries, the fold watermark and vector) and compacts the WAL down
// to the unfolded tail. Safe to call concurrently with
// searches and writes: only the fold advance and the state capture happen
// under the replica's lock — the snapshot value is self-contained (copied
// entries), so the encode and fsync run without stalling later writes.
// Searches never wait on it.
func (s *System) WriteSnapshot() (store.Stats, error) {
	s.rep.mu.Lock()
	if s.rep.store == nil {
		s.rep.mu.Unlock()
		return store.Stats{}, errors.New("core: no store attached")
	}
	snap := s.snapshotLocked()
	st := s.rep.store
	s.rep.mu.Unlock()
	if err := s.persistSnapshot(st, snap); err != nil {
		return store.Stats{}, err
	}
	return st.Stats(), nil
}

// foldLocked advances the folded base over the longest tail prefix that
// is safe to make permanent. A record is safe once (a) no record the
// fleet may still deliver can sort canonically below it — guaranteed past
// the minimum last-heard position across every known remote origin — and
// (b) every peer has acknowledged holding it (via the vector its pulls
// carry), so compacting it away can never strand a peer that still needs
// to pull it. A single replica (no peers) folds everything, which is
// exactly the pre-cluster snapshot behaviour.
func (r *replica) foldLocked(deadAfter time.Duration) {
	k := r.foldableLocked(deadAfter)
	if k == 0 {
		return
	}
	for _, rec := range r.tail[:k] {
		r.base = applyRecordTo(r.base, rec)
		r.baseQueries = applyQueryRecordTo(r.baseQueries, rec)
		r.foldedVector[rec.Origin] = rec.OriginSeq
		r.foldedLastLC[rec.Origin] = max(r.foldedLastLC[rec.Origin], rec.LC)
		r.foldPos = rec.Pos()
	}
	r.tail = append([]store.Record(nil), r.tail[k:]...)
}

// deadPeerLocked reports whether a peer no longer gates folding: it was
// decommissioned by an operator, or — with a positive deadAfter
// (Options.PeerDeadAfter) — nothing has been heard from it for longer than
// that (a peer never heard from at all ages against replStart). Dead peers
// are excluded from the fold watermark and the ack quorum; one that
// returns re-enters through the catch-up path, behind the fold point.
func (r *replica) deadPeerLocked(id string, now time.Time, deadAfter time.Duration) bool {
	if r.decommissioned[id] {
		return true
	}
	if deadAfter <= 0 {
		return false
	}
	last, ok := r.lastContact[id]
	if !ok {
		last = r.replStart
	}
	return now.Sub(last) > deadAfter
}

// foldableLocked counts the tail prefix foldLocked may fold.
func (r *replica) foldableLocked(deadAfter time.Duration) int {
	if len(r.tail) == 0 {
		return 0
	}
	if r.fleetPeers == 0 {
		return len(r.tail)
	}
	now := r.now()
	// Watermark: the minimum last-heard canonical position across the
	// *live* remote origins. Anything the fleet can still send sorts above
	// it — every origin's clocks and sequences only grow, and pulls
	// deliver each origin's records contiguously. Dead origins are
	// excluded: nothing more is coming from them, and a resurrected peer
	// re-enters through the catch-up path rather than the record stream.
	live := 0
	heard := 0
	var w store.Pos
	for o, lc := range r.lastLC {
		if o == r.replicaID {
			continue
		}
		heard++
		if r.deadPeerLocked(o, now, deadAfter) {
			continue
		}
		p := store.Pos{LC: lc, Origin: o, Seq: r.vector[o]}
		if live == 0 || p.Before(w) {
			w = p
		}
		live++
	}
	// The quorum starts at the configured peer count and shrinks by one
	// for each dead peer: origins heard from and then declared dead,
	// decommissioned ids never heard from at all, and — once the staleness
	// bound has elapsed with no contact whatsoever — the remaining unheard
	// slots. Until every *live* configured peer has been heard from at
	// least once the watermark is unknown, so nothing folds.
	deadHeard := heard - live
	unheard := max(r.fleetPeers-heard, 0)
	deadUnheard := 0
	if deadAfter > 0 && now.Sub(r.replStart) > deadAfter {
		deadUnheard = unheard
	} else {
		for id := range r.decommissioned {
			if _, ok := r.lastLC[id]; !ok && id != r.replicaID {
				deadUnheard++
			}
		}
		deadUnheard = min(deadUnheard, unheard)
	}
	required := max(r.fleetPeers-deadHeard-deadUnheard, 0)
	if live < required {
		return 0
	}
	k := 0
	for _, rec := range r.tail {
		if live > 0 && w.Before(rec.Pos()) {
			break
		}
		// Ack gate: at least `required` distinct live replicas must have
		// pulled past this record. Counting coverage (rather than requiring
		// every tracked ack) keeps one stale id — an operator's debug pull,
		// a peer that re-minted its identity — from wedging folding forever;
		// a peer that genuinely misses a compacted record still recovers
		// through the anti-entropy catch-up.
		covered := 0
		for from, av := range r.acks {
			if r.deadPeerLocked(from, now, deadAfter) {
				continue
			}
			if av.Includes(rec.Origin, rec.OriginSeq) {
				covered++
			}
		}
		if covered < required {
			break
		}
		k++
	}
	return k
}

// snapshotLocked folds what is safe to fold, then captures a consistent
// snapshot value: the folded base, its watermark and per-origin vector.
// The caller holds rep.mu (folding mutates the base). The capture is
// cheap — the expensive encode happens when the snapshot is written.
func (s *System) snapshotLocked() *store.Snapshot {
	r := &s.rep
	r.foldLocked(s.Opt.PeerDeadAfter)
	return &store.Snapshot{
		Fingerprint:  r.fingerprint,
		AppliedSeq:   r.store.Stats().NextSeq - 1,
		ReplicaState: *r.foldedLocked(),
	}
}

// persistSnapshot writes snap to st; every snapshot write goes through
// it. A failure other than a closed store (the shutdown race, not a
// fault) is counted in soda_snapshot_errors_total, whichever path hit it:
// a disk that rejects every snapshot means unbounded WAL growth an
// operator must see.
func (s *System) persistSnapshot(st *store.Store, snap *store.Snapshot) error {
	err := st.WriteSnapshot(snap)
	if err != nil && !errors.Is(err, store.ErrClosed) {
		s.metrics.snapshotErrors.Inc()
	}
	return err
}

// maybeCompactLocked snapshots and compacts once the WAL grows past the
// configured threshold. Called with rep.mu held after an append. Only the
// state capture happens under the lock: fsyncing the snapshot and
// rewriting the WAL take long enough that doing it inline would stall
// every later write behind the one unlucky call that crossed the
// threshold. A failed write does not fail the write that triggered it —
// its WAL record is already durable, and records appended while the
// snapshot is written stay in the compacted log (they sort after the
// captured fold watermark) — but it is never silent: the error is logged
// with the store component tag and counted (persistSnapshot).
func (s *System) maybeCompactLocked() {
	r := &s.rep
	if r.store == nil || r.store.WALRecords() < compactEvery {
		return
	}
	if r.fleetPeers > 0 && r.foldableLocked(s.Opt.PeerDeadAfter) == 0 {
		// Nothing is safe to fold yet (a peer unheard-from or behind on
		// acks): a snapshot now would rewrite the same base and compact
		// nothing, over and over, on every write past the threshold. The
		// log keeps growing until the fleet catches up — retention is the
		// price of never stranding a peer.
		return
	}
	if !r.compacting.CompareAndSwap(false, true) {
		return // one in-flight compaction is plenty
	}
	snap := s.snapshotLocked()
	st := r.store
	go func() {
		defer r.compacting.Store(false)
		if err := s.persistSnapshot(st, snap); err != nil && !errors.Is(err, store.ErrClosed) {
			s.log.With("store").Printf("background snapshot write failed (WAL keeps growing until one succeeds): %v", err)
		}
	}()
}

// StoreStats describes the attached store, or nil when the System runs
// without persistence.
func (s *System) StoreStats() *StoreStats {
	r := &s.rep
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.store == nil {
		return nil
	}
	return &StoreStats{Stats: r.store.Stats(), WarmStart: r.warmStart, ReplayedRecords: r.replayedRecords}
}

// Close flushes persistent state and detaches the store: any WAL tail is
// folded into a final snapshot (the graceful-shutdown flush), and the
// store is closed. A System without a store closes trivially. The System
// must not be used after Close.
func (s *System) Close() error {
	r := &s.rep
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.store == nil {
		return nil
	}
	var err error
	if r.store.WALRecords() > 0 {
		err = s.persistSnapshot(r.store, s.snapshotLocked())
	}
	if cerr := r.store.Close(); err == nil {
		err = cerr
	}
	r.store = nil
	return err
}

package core

// Persistence hooks: a System can attach a store.Store so relevance
// feedback survives restarts ("open the store, replay the tail") and the
// expensive derived state — inverted index, metadata graph, feedback map —
// is snapshotted for instant warm starts. The soda layer decides which
// substrates to boot from (snapshot vs cold rebuild); this file owns the
// feedback restore, WAL replay, snapshot writes and compaction policy.

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"soda/internal/store"
)

// defaultCompactEvery is the WAL record count that triggers an automatic
// snapshot + compaction when Options.CompactEvery is 0.
const defaultCompactEvery = 1024

// StoreStats describes the attached store for diagnostics; WarmStart
// reports whether this System booted from a snapshot instead of a cold
// rebuild.
type StoreStats struct {
	store.Stats
	WarmStart bool `json:"warm_start"`
	// ReplayedRecords is how many WAL records were replayed at open on
	// top of the snapshot (or of empty state).
	ReplayedRecords int `json:"replayed_records"`
}

// OpenStore attaches an open store to the System: it restores the folded
// feedback base and its ranking epoch from the snapshot (when one was
// loaded), replays the WAL tail in canonical record order — skipping
// records at or below the snapshot's fold watermark, so nothing can
// double-apply — and from then on logs every feedback change through the
// WAL. When the boot was cold (snap == nil) a fresh snapshot is written
// immediately so the *next* boot is warm.
//
// OpenStore must be called once, before the System serves searches (and
// after SetReplica when the System is part of a fleet). The snapshot's
// Index/Meta sections are the caller's concern: pass them to NewSystem to
// skip the cold rebuild, then hand the same snapshot here.
func (s *System) OpenStore(st *store.Store, snap *store.Snapshot) error {
	if st == nil {
		return errors.New("core: OpenStore: nil store")
	}
	s.fbMu.Lock()
	defer s.fbMu.Unlock()
	if s.store != nil {
		return errors.New("core: store already attached")
	}
	if s.replicaID == "" {
		s.replicaID = "local"
	}
	if snap != nil {
		s.base = make(map[feedbackKey]float64, len(snap.Feedback))
		for _, e := range snap.Feedback {
			s.base[keyFromStore(e.Key)] = e.Value
		}
		s.baseQueries = buildQueryMap(snap.Queries)
		s.baseEpoch = snap.Epoch
		s.foldPos = snap.FoldPos
		for _, o := range snap.Origins {
			s.foldedVector[o.ID] = o.Seq
			s.foldedLastLC[o.ID] = o.LC
			s.vector[o.ID] = o.Seq
			s.lastLC[o.ID] = o.LC
			if o.LC > s.lamport {
				s.lamport = o.LC
			}
		}
		s.warmStart = true
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
	s.feedback = maps.Clone(s.base)
	s.queries = maps.Clone(s.baseQueries)
	applied := 0
	for _, rec := range pending {
		if rec.OriginSeq <= s.vector[rec.Origin] {
			continue // folded into the snapshot base, or a duplicate
		}
		s.tail = append(s.tail, rec)
		s.noteAppliedLocked(rec)
		s.feedback = applyRecordTo(s.feedback, rec)
		s.queries = applyQueryRecordTo(s.queries, rec)
		applied++
	}
	s.epoch.Store(s.baseEpoch + uint64(applied))
	s.replayedRecords = applied
	s.store = st
	s.registerStoreMetrics()
	// Anchor the dead-peer staleness bound: a peer never heard from at
	// all ages against the moment replication started, not the zero time.
	s.replStart = time.Now()
	if snap == nil {
		// Cold boot: pre-bake the snapshot (and compact any replayed WAL)
		// so the next boot opens warm.
		if err := s.writeSnapshotLocked(); err != nil {
			return fmt.Errorf("core: initial snapshot: %w", err)
		}
	}
	return nil
}

// noteAppliedLocked advances the replication cursors for one applied
// record: the per-origin contiguous vector, the per-origin Lamport
// high-water mark, and the local Lamport clock.
func (s *System) noteAppliedLocked(rec store.Record) {
	s.vector[rec.Origin] = rec.OriginSeq
	if rec.LC > s.lastLC[rec.Origin] {
		s.lastLC[rec.Origin] = rec.LC
	}
	if rec.LC > s.lamport {
		s.lamport = rec.LC
	}
}

// refoldLocked recomputes the live feedback map from the folded base plus
// the canonical tail — the out-of-order path: a pulled record sorted into
// the middle of the tail, so the incremental apply would have folded it
// in the wrong order.
func (s *System) refoldLocked() {
	s.feedback = maps.Clone(s.base)
	s.queries = maps.Clone(s.baseQueries)
	for _, rec := range s.tail {
		s.feedback = applyRecordTo(s.feedback, rec)
		s.queries = applyQueryRecordTo(s.queries, rec)
	}
}

// WriteSnapshot persists the current derived state (index, metadata
// graph, folded feedback base and epoch) and compacts the WAL down to the
// unfolded tail. Safe to call concurrently with searches and feedback:
// only the fold advance and the state capture happen under the feedback
// lock — the snapshot value is self-contained (copied feedback entries,
// immutable index/graph), so the expensive encode and fsync run without
// stalling concurrent searches.
func (s *System) WriteSnapshot() (store.Stats, error) {
	s.fbMu.Lock()
	if s.store == nil {
		s.fbMu.Unlock()
		return store.Stats{}, errors.New("core: no store attached")
	}
	snap := s.snapshotLocked()
	st := s.store
	s.fbMu.Unlock()
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
func (s *System) foldLocked() {
	k := s.foldableLocked()
	if k == 0 {
		return
	}
	for _, rec := range s.tail[:k] {
		s.base = applyRecordTo(s.base, rec)
		s.baseQueries = applyQueryRecordTo(s.baseQueries, rec)
		s.foldedVector[rec.Origin] = rec.OriginSeq
		if rec.LC > s.foldedLastLC[rec.Origin] {
			s.foldedLastLC[rec.Origin] = rec.LC
		}
		s.foldPos = rec.Pos()
	}
	s.baseEpoch += uint64(k)
	s.tail = append([]store.Record(nil), s.tail[k:]...)
}

// deadPeerLocked reports whether a peer no longer gates folding: it was
// decommissioned by an operator, or — with Options.PeerDeadAfter set —
// nothing has been heard from it for longer than the bound (a peer never
// heard from at all ages against replStart). Dead peers are excluded from
// the fold watermark and the ack quorum; one that returns re-enters
// through the catch-up path, behind the fold point.
func (s *System) deadPeerLocked(id string, now time.Time) bool {
	if s.decommissioned[id] {
		return true
	}
	if s.Opt.PeerDeadAfter <= 0 {
		return false
	}
	last, ok := s.lastContact[id]
	if !ok {
		last = s.replStart
	}
	return now.Sub(last) > s.Opt.PeerDeadAfter
}

// foldableLocked counts the tail prefix foldLocked may fold.
func (s *System) foldableLocked() int {
	if len(s.tail) == 0 {
		return 0
	}
	if s.fleetPeers == 0 {
		return len(s.tail)
	}
	now := time.Now()
	// Watermark: the minimum last-heard canonical position across the
	// *live* remote origins. Anything the fleet can still send sorts above
	// it — every origin's clocks and sequences only grow, and pulls
	// deliver each origin's records contiguously. Dead origins are
	// excluded: nothing more is coming from them, and a resurrected peer
	// re-enters through the catch-up path rather than the record stream.
	live := 0
	heard := 0
	var w store.Pos
	for o, lc := range s.lastLC {
		if o == s.replicaID {
			continue
		}
		heard++
		if s.deadPeerLocked(o, now) {
			continue
		}
		p := store.Pos{LC: lc, Origin: o, Seq: s.vector[o]}
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
	unheard := s.fleetPeers - heard
	if unheard < 0 {
		unheard = 0
	}
	deadUnheard := 0
	if s.Opt.PeerDeadAfter > 0 && now.Sub(s.replStart) > s.Opt.PeerDeadAfter {
		deadUnheard = unheard
	} else {
		for id := range s.decommissioned {
			if _, ok := s.lastLC[id]; !ok && id != s.replicaID {
				deadUnheard++
			}
		}
		if deadUnheard > unheard {
			deadUnheard = unheard
		}
	}
	required := s.fleetPeers - deadHeard - deadUnheard
	if required < 0 {
		required = 0
	}
	if live < required {
		return 0
	}
	k := 0
	for _, rec := range s.tail {
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
		for from, av := range s.acks {
			if s.deadPeerLocked(from, now) {
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
// The caller holds fbMu for writing (folding mutates the base). The
// capture is cheap — the expensive encode happens when the snapshot is
// written.
func (s *System) snapshotLocked() *store.Snapshot {
	s.foldLocked()
	snap := &store.Snapshot{
		Fingerprint: s.fingerprint,
		Epoch:       s.baseEpoch,
		AppliedSeq:  s.store.Stats().NextSeq - 1,
		FoldPos:     s.foldPos,
		Index:       s.Index(),
		Meta:        s.Meta,
	}
	for id, seq := range s.foldedVector {
		snap.Origins = append(snap.Origins, store.OriginState{ID: id, Seq: seq, LC: s.foldedLastLC[id]})
	}
	for k, v := range s.base {
		snap.Feedback = append(snap.Feedback, store.FeedbackEntry{Key: storeKey(k), Value: v})
	}
	snap.Queries = rawQueries(s.baseQueries)
	return snap
}

// writeSnapshotLocked builds and writes a snapshot; see snapshotLocked
// for the locking contract.
func (s *System) writeSnapshotLocked() error {
	return s.persistSnapshot(s.store, s.snapshotLocked())
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
// configured threshold. Called with fbMu held after an append. Only the
// state capture happens under the lock: encoding and fsyncing a
// warehouse-scale snapshot takes long enough that doing it inline would
// stall every concurrent search behind the one unlucky feedback call
// that crossed the threshold. A failed write does not fail the feedback
// call — the WAL record that triggered it is already durable, and records
// appended while the write runs stay in the compacted log (they sort
// after the captured fold watermark) — but it is never silent: the error
// is logged with the store component tag and counted (persistSnapshot).
func (s *System) maybeCompactLocked() {
	if s.store == nil || s.Opt.CompactEvery <= 0 {
		return
	}
	if s.store.WALRecords() < s.Opt.CompactEvery {
		return
	}
	if s.fleetPeers > 0 && s.foldableLocked() == 0 {
		// Nothing is safe to fold yet (a peer unheard-from or behind on
		// acks): a snapshot now would rewrite the same base and compact
		// nothing, over and over, on every feedback call past the
		// threshold. The log keeps growing until the fleet catches up —
		// retention is the price of never stranding a peer.
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return // one in-flight compaction is plenty
	}
	snap := s.snapshotLocked()
	st := s.store
	go func() {
		defer s.compacting.Store(false)
		if err := s.persistSnapshot(st, snap); err != nil && !errors.Is(err, store.ErrClosed) {
			s.log.With("store").Printf("background snapshot write failed (WAL keeps growing until one succeeds): %v", err)
		}
	}()
}

// SetFingerprint records the world fingerprint stamped into snapshots.
// The soda layer computes it from the world's structure before attaching
// the store.
func (s *System) SetFingerprint(fp uint64) { s.fingerprint = fp }

// WarmStart reports whether this System booted from a snapshot.
func (s *System) WarmStart() bool { return s.warmStart }

// StoreStats describes the attached store, or nil when the System runs
// without persistence.
func (s *System) StoreStats() *StoreStats {
	s.fbMu.RLock()
	defer s.fbMu.RUnlock()
	if s.store == nil {
		return nil
	}
	return &StoreStats{Stats: s.store.Stats(), WarmStart: s.warmStart, ReplayedRecords: s.replayedRecords}
}

// Close flushes persistent state and detaches the store: any WAL tail is
// folded into a final snapshot (the graceful-shutdown flush), and the
// store is closed. A System without a store closes trivially. The System
// must not be used after Close.
func (s *System) Close() error {
	s.fbMu.Lock()
	defer s.fbMu.Unlock()
	if s.store == nil {
		return nil
	}
	var err error
	if s.store.WALRecords() > 0 {
		err = s.writeSnapshotLocked()
	}
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	s.store = nil
	return err
}

package core

// Cluster-facing replication API: a System that is part of a fleet
// exchanges feedback WAL records with its peers and converges on the
// same learned rankings.
//
// The model: every feedback event is a record with a global identity
// (Origin, OriginSeq) and a Lamport clock LC; the triple
// (LC, Origin, OriginSeq) is the record's canonical position, a total
// order every replica agrees on. The feedback state is *defined* as the
// fold of the applied records in canonical order, so it is a
// deterministic function of the applied set — two replicas that have
// exchanged the same records compute bit-identical adjustment maps (and
// therefore byte-identical /search responses), no matter in which order
// the network delivered them.
//
// In memory the fold is split in two: a folded base (persisted by
// snapshots) and a canonical tail of unfolded records. Local events
// always extend the order at the end (their LC exceeds everything seen),
// so they apply incrementally; a pulled record that sorts into the middle
// triggers a re-fold of base+tail. The base only advances over records
// that (a) nothing still in flight can sort below and (b) every peer has
// acknowledged pulling — see foldLocked — which makes WAL compaction safe
// in a fleet: a peer can always pull what it is missing from someone's
// unfolded tail, or, if it fell behind a fold point (fresh replica, lost
// data dir), adopt the peer's folded state wholesale (AdoptClusterState).

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"soda/internal/store"
)

// SetReplica fixes the System's replication identity and the number of
// configured peers (the fold gates require hearing from — and being
// acknowledged by — that many distinct replicas). Must be called before
// OpenStore; a System that never calls it behaves as the single replica
// "local".
func (s *System) SetReplica(id string, peers int) {
	s.fbMu.Lock()
	defer s.fbMu.Unlock()
	s.replicaID = id
	s.fleetPeers = peers
}

func (s *System) replicaIDLocked() string {
	if s.replicaID == "" {
		s.replicaID = "local"
	}
	return s.replicaID
}

// ReplicaID returns the System's replication identity.
func (s *System) ReplicaID() string {
	s.fbMu.RLock()
	defer s.fbMu.RUnlock()
	if s.replicaID == "" {
		return "local"
	}
	return s.replicaID
}

// AppliedVector returns a copy of the replication vector: per origin, the
// highest contiguous OriginSeq applied to this System.
func (s *System) AppliedVector() store.Vector {
	s.fbMu.RLock()
	defer s.fbMu.RUnlock()
	return s.vector.Clone()
}

// Lamport returns the System's current Lamport clock (the newest clock it
// has seen). Pull responses carry it so an idle replica still advances
// its peers' fold watermarks.
func (s *System) Lamport() uint64 {
	s.fbMu.RLock()
	defer s.fbMu.RUnlock()
	return s.lamport
}

// NoteAck records that the named peer has pulled with the given vector —
// proof it holds every record the vector covers. Acks gate folding (and
// therefore WAL compaction): a record is only made permanent once every
// peer could never need to pull it again.
func (s *System) NoteAck(from string, v store.Vector) {
	if from == "" {
		return
	}
	s.fbMu.Lock()
	defer s.fbMu.Unlock()
	if from == s.replicaIDLocked() {
		return
	}
	s.lastContact[from] = time.Now()
	prev := s.acks[from]
	merged := v.Clone()
	if merged == nil {
		merged = make(store.Vector, len(prev))
	}
	for o, seq := range prev {
		if merged[o] < seq {
			merged[o] = seq
		}
	}
	s.acks[from] = merged
}

// NoteOriginClock raises the last-heard Lamport clock for an origin
// without applying records — called by the tailer after a *complete* pull
// round with the peer's reported clock, so an idle peer does not stall
// the fold watermark forever. (It must never be called mid-round: records
// at or below the reported clock could still be in flight.)
func (s *System) NoteOriginClock(origin string, lc uint64) {
	if origin == "" {
		return
	}
	s.fbMu.Lock()
	defer s.fbMu.Unlock()
	if origin != s.replicaIDLocked() {
		s.lastContact[origin] = time.Now()
	}
	if lc > s.lastLC[origin] {
		s.lastLC[origin] = lc
	}
}

// ApplyRemote applies records pulled from a peer. Records must arrive in
// per-origin OriginSeq order (pull responses are canonical, which is
// stronger). Each new record is persisted to the local WAL with its
// original identity — so convergence survives a restart — and folded into
// the live state at its canonical position; duplicates (already covered
// by the vector) are skipped, and a per-origin gap stops that origin's
// sequence for this batch (the next pull refills it). Every applied
// record bumps the ranking epoch, so cached answers and in-flight
// solutions go stale exactly as they do for local feedback.
func (s *System) ApplyRemote(recs []store.Record) (int, error) {
	s.fbMu.Lock()
	defer s.fbMu.Unlock()
	if s.store == nil {
		return 0, errors.New("core: ApplyRemote: no store attached (replication requires a data dir)")
	}
	applied := 0
	refold := false
	now := time.Now()
	defer func() {
		// One re-fold per batch, not per record: a batch of concurrent
		// feedback routinely sorts into the middle of the tail, and
		// cloning the base plus replaying the whole tail for each record
		// would hold fbMu for O(batch × tail) work.
		if refold {
			s.refoldLocked()
		}
		if applied > 0 {
			s.maybeCompactLocked()
		}
	}()
	for _, rec := range recs {
		if rec.Origin == "" || rec.OriginSeq == 0 || rec.LC == 0 {
			return applied, fmt.Errorf("core: remote record without identity: %+v", rec.Pos())
		}
		if rec.OriginSeq <= s.vector[rec.Origin] {
			continue // duplicate: already applied (possibly via another peer)
		}
		if rec.OriginSeq != s.vector[rec.Origin]+1 {
			continue // gap: skip; the vector did not advance, so it will be re-pulled
		}
		stored, err := s.store.Append(rec)
		if err != nil {
			return applied, fmt.Errorf("core: logging remote record: %w", err)
		}
		if !stored.Pos().After(s.foldPos) {
			// The record sorts below our fold watermark — a replica joined
			// mid-stream with a cold clock (see README: fleets should be
			// full-mesh so clocks are exchanged before folding). We cannot
			// unfold the base, so the record applies on top; replicas that
			// had not folded yet order it canonically. Counted for /healthz.
			s.reorders++
		}
		if s.insertTailLocked(stored) && !refold {
			s.feedback = applyRecordTo(s.feedback, stored)
			s.queries = applyQueryRecordTo(s.queries, stored)
		} else {
			refold = true
		}
		s.noteAppliedLocked(stored)
		if stored.Origin != s.replicaIDLocked() {
			s.lastContact[stored.Origin] = now
		}
		s.epoch.Add(1)
		applied++
	}
	return applied, nil
}

// insertTailLocked places the record at its canonical position in the
// tail, reporting whether it extended the tail at the end (in which case
// the caller may apply it incrementally instead of re-folding).
func (s *System) insertTailLocked(rec store.Record) (atEnd bool) {
	pos := rec.Pos()
	n := len(s.tail)
	if n == 0 || s.tail[n-1].Pos().Before(pos) {
		s.tail = append(s.tail, rec)
		return true
	}
	i := sort.Search(n, func(i int) bool { return pos.Before(s.tail[i].Pos()) })
	s.tail = append(s.tail, store.Record{})
	copy(s.tail[i+1:], s.tail[i:n])
	s.tail[i] = rec
	return false
}

// RecordsSince serves one pull: the retained records beyond the
// requester's vector, in canonical order, capped at limit. behind reports
// that the requester's vector predates this replica's fold point for some
// origin — the records it needs no longer exist individually and it must
// adopt the folded state (ClusterState) instead. more reports a truncated
// batch (pull again to drain).
func (s *System) RecordsSince(v store.Vector, limit int) (recs []store.Record, behind, more bool) {
	s.fbMu.RLock()
	defer s.fbMu.RUnlock()
	for o, folded := range s.foldedVector {
		if folded > 0 && v[o] < folded {
			return nil, true, false
		}
	}
	for _, rec := range s.tail {
		if rec.OriginSeq <= v[rec.Origin] {
			continue
		}
		recs = append(recs, rec)
		if limit > 0 && len(recs) >= limit {
			more = true
			break
		}
	}
	return recs, false, more
}

// ClusterState captures the System's replication state for a catch-up
// response.
func (s *System) ClusterState() *store.ReplicaState {
	s.fbMu.RLock()
	defer s.fbMu.RUnlock()
	cs := &store.ReplicaState{
		Epoch:   s.baseEpoch,
		FoldPos: s.foldPos,
		Tail:    append([]store.Record(nil), s.tail...),
	}
	for k, v := range s.base {
		cs.Feedback = append(cs.Feedback, store.FeedbackEntry{Key: storeKey(k), Value: v})
	}
	cs.Queries = rawQueries(s.baseQueries)
	for id, seq := range s.foldedVector {
		cs.Origins = append(cs.Origins, store.OriginState{ID: id, Seq: seq, LC: s.foldedLastLC[id]})
	}
	return cs
}

// AdoptClusterState replaces this replica's folded base with a peer's —
// the catch-up path when the peer compacted past our vector. Our own
// records beyond the adopted fold vector are kept and re-folded on top
// (records below it are already inside the adopted base: a peer only
// folds what the whole fleet acknowledged, which includes us). The
// adopted state is snapshotted immediately so the catch-up survives a
// crash, and the old WAL records it supersedes are compacted away.
// The peer's unfolded tail (cs.Tail) is NOT applied here — feed it
// through ApplyRemote afterwards like any pull batch.
func (s *System) AdoptClusterState(cs *store.ReplicaState) error {
	s.fbMu.Lock()
	if s.store == nil {
		s.fbMu.Unlock()
		return errors.New("core: AdoptClusterState: no store attached")
	}
	adoptedVector := make(store.Vector, len(cs.Origins))
	adoptedLC := make(map[string]uint64, len(cs.Origins))
	for _, o := range cs.Origins {
		adoptedVector[o.ID] = o.Seq
		adoptedLC[o.ID] = o.LC
	}
	// Sanity: adopting must move us forward, never sideways — refuse a
	// state whose fold point is below ours (we would unfold our own base).
	if cs.FoldPos.Before(s.foldPos) {
		s.fbMu.Unlock()
		return fmt.Errorf("core: refusing to adopt state folded at %+v, behind local fold %+v", cs.FoldPos, s.foldPos)
	}
	var keep []store.Record
	for _, rec := range s.tail {
		if rec.OriginSeq > adoptedVector[rec.Origin] {
			keep = append(keep, rec)
		}
	}
	s.base = make(map[feedbackKey]float64, len(cs.Feedback))
	for _, e := range cs.Feedback {
		s.base[keyFromStore(e.Key)] = e.Value
	}
	s.baseQueries = buildQueryMap(cs.Queries)
	s.baseEpoch = cs.Epoch
	s.foldPos = cs.FoldPos
	s.foldedVector = adoptedVector.Clone()
	s.foldedLastLC = make(map[string]uint64, len(adoptedLC))
	s.vector = adoptedVector.Clone()
	s.lastLC = make(map[string]uint64, len(adoptedLC))
	for o, lc := range adoptedLC {
		s.foldedLastLC[o] = lc
		s.lastLC[o] = lc
		if lc > s.lamport {
			s.lamport = lc
		}
	}
	s.tail = nil
	for _, rec := range keep { // keep preserves canonical order
		if rec.OriginSeq != s.vector[rec.Origin]+1 {
			continue // superseded by the adopted vector mid-sequence
		}
		s.tail = append(s.tail, rec)
		s.noteAppliedLocked(rec)
	}
	s.refoldLocked()
	// The epoch only ever moves forward: solutions and cached answers
	// stamped before the adoption must come out stale.
	s.epoch.Add(1)
	// Make the adoption durable: the old WAL records are superseded by
	// the adopted base; a crash before this snapshot would boot from the
	// pre-adoption state and simply catch up again. The snapshot value is
	// captured under the lock but encoded and fsynced outside it, so
	// searches are not stalled behind a warehouse-scale encode while the
	// replica rejoins.
	snap := s.snapshotLocked()
	st := s.store
	s.fbMu.Unlock()
	if err := s.persistSnapshot(st, snap); err != nil {
		return fmt.Errorf("core: persisting adopted state: %w", err)
	}
	return nil
}

// DecommissionReplica permanently removes a peer from the fold quorum:
// it stops gating the watermark and the ack coverage in foldableLocked,
// so folding and WAL compaction advance without ever hearing from it
// again. This is the operator's escape hatch for a static -peers entry
// that is never coming back — without it one dead peer pins the tail (and
// the WAL) forever. Safe even if the peer does return: it finds itself
// behind the fold point (RecordsSince reports behind=true) and adopts the
// folded state through the normal catch-up path, exactly like a fresh
// replica.
func (s *System) DecommissionReplica(id string) error {
	if id == "" {
		return errors.New("core: decommission: empty replica id")
	}
	s.fbMu.Lock()
	defer s.fbMu.Unlock()
	if id == s.replicaIDLocked() {
		return fmt.Errorf("core: refusing to decommission the local replica %q", id)
	}
	s.decommissioned[id] = true
	return nil
}

// ReplicationInfo describes the System's replication state for /healthz.
type ReplicationInfo struct {
	ReplicaID string       `json:"replica_id"`
	Vector    store.Vector `json:"vector"`
	Lamport   uint64       `json:"lamport"`
	// TailRecords is how many applied records are not yet folded into the
	// snapshot base (retained for peers to pull).
	TailRecords int `json:"tail_records"`
	// Reorders counts remote records that arrived below the fold
	// watermark (should stay 0 in a full-mesh fleet; see ApplyRemote).
	Reorders uint64 `json:"reorders,omitempty"`
	// Decommissioned lists peers an operator removed from the fold
	// quorum (sorted; see DecommissionReplica).
	Decommissioned []string `json:"decommissioned,omitempty"`
}

// ReplicationInfo returns the replication diagnostics, or nil when the
// System has no store attached.
func (s *System) ReplicationInfo() *ReplicationInfo {
	s.fbMu.RLock()
	defer s.fbMu.RUnlock()
	if s.store == nil {
		return nil
	}
	id := s.replicaID
	if id == "" {
		id = "local"
	}
	info := &ReplicationInfo{
		ReplicaID:   id,
		Vector:      s.vector.Clone(),
		Lamport:     s.lamport,
		TailRecords: len(s.tail),
		Reorders:    s.reorders,
	}
	for peer := range s.decommissioned {
		info.Decommissioned = append(info.Decommissioned, peer)
	}
	sort.Strings(info.Decommissioned)
	return info
}

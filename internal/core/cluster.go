package core

// Cluster-facing replication API: a System that is part of a fleet
// exchanges feedback WAL records with its peers and converges on the
// same learned rankings.
//
// The model: every write is a record with a global identity
// (Origin, OriginSeq) and a Lamport clock LC; the triple
// (LC, Origin, OriginSeq) is the record's canonical position, a total
// order every replica agrees on. The ranking state is *defined* as the
// fold of the applied records in canonical order, so it is a
// deterministic function of the applied set — two replicas that have
// exchanged the same records compute bit-identical adjustment maps (and
// therefore byte-identical /search responses), no matter in which order
// the network delivered them.
//
// Two types hold this state. The replica (this file), behind its lock,
// owns the durable, replicated side: the store handle, the folded base
// (persisted by snapshots), the canonical tail of unfolded records and
// the per-origin cursors. The ranking (feedback.go) is the immutable
// value the pipeline reads — the live maps, the fold of base+tail, with
// the answers computed under them. Every writer logs under the replica's
// lock and then publishes the next ranking, so no search waits on
// store.Append.
//
// Local writes always extend the order at the end (their LC exceeds
// everything seen), so they apply incrementally; a pulled record that
// sorts into the middle triggers a re-fold of base+tail. The base only
// advances over records that (a) nothing still in flight can sort below
// and (b) every peer has acknowledged pulling — see foldLocked — which
// makes WAL compaction safe in a fleet: a peer can always pull what it is
// missing from someone's unfolded tail, or, if it fell behind a fold point
// (fresh replica, lost data dir), adopt the peer's folded state wholesale
// (AdoptState).

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"soda/internal/cluster"
	"soda/internal/store"
)

// replica is a System's durable and replicated state. mu serialises every
// writer — local writes, pulled batches, adoption, snapshots and
// compaction — and guards every field below but compacting.
type replica struct {
	mu sync.Mutex

	// store is the attached data dir (OpenStore); nil runs in memory only.
	// fingerprint is the world hash stamped into snapshots, warmStart and
	// replayedRecords describe the open.
	store           *store.Store
	compacting      atomic.Bool // an async auto-compaction is in flight
	fingerprint     uint64
	warmStart       bool
	replayedRecords int

	// Replication cursors, maintained only with a store attached. tail
	// holds the applied-but-unfolded records in canonical (LC, origin,
	// originSeq) order; base/baseQueries/foldPos describe the
	// folded prefix the snapshot persists; vector and lastLC track, per
	// origin, the highest contiguous OriginSeq applied and the newest
	// Lamport clock heard; acks remembers each peer's pull vector (the
	// compaction-safe retention gate).
	replicaID    string // "local" unless OpenStore names it
	fleetPeers   int    // configured peer count; 0 = single replica
	lamport      uint64
	vector       store.Vector
	lastLC       map[string]uint64
	tail         []store.Record
	base         map[feedbackKey]float64
	baseQueries  map[string]*savedQueryEntry
	foldPos      store.Pos
	foldedVector store.Vector
	foldedLastLC map[string]uint64
	acks         map[string]store.Vector
	reorders     uint64 // remote records that arrived below the fold watermark

	// Dead-peer bookkeeping for the fold gate's escape hatches:
	// decommissioned peers are permanently out of the quorum (operator
	// action), lastContact timestamps every ack/clock/record heard per
	// origin, and replStart anchors the staleness bound for peers never
	// heard from at all (set when OpenStore attaches the store).
	decommissioned map[string]bool
	lastContact    map[string]time.Time
	replStart      time.Time

	now func() time.Time // the staleness clock: time.Now
}

// ReplicaID returns the System's replication identity ("local" for a
// System without a store).
func (s *System) ReplicaID() string {
	s.rep.mu.Lock()
	defer s.rep.mu.Unlock()
	return s.rep.replicaID
}

// AppliedVector returns a copy of the replication vector: per origin, the
// highest contiguous OriginSeq applied to this System.
func (s *System) AppliedVector() store.Vector {
	s.rep.mu.Lock()
	defer s.rep.mu.Unlock()
	return s.rep.vector.Clone()
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
	r := &s.rep
	r.mu.Lock()
	defer r.mu.Unlock()
	if origin != r.replicaID {
		r.lastContact[origin] = r.now()
	}
	r.lastLC[origin] = max(r.lastLC[origin], lc)
}

// ApplyRemote applies records pulled from a peer. Records must arrive in
// per-origin OriginSeq order (pull responses are canonical, which is
// stronger). Each new record is persisted to the local WAL with its
// original identity — so convergence survives a restart — and folded into
// the live state at its canonical position; duplicates (already covered
// by the vector) are skipped, and a per-origin gap stops that origin's
// sequence for this batch (the next pull refills it). A batch that
// applies anything publishes a new ranking, with an empty answer cache,
// exactly as local feedback does. The batch reaches the ranking in one
// publish, after every append: a search sees all of it or none.
func (s *System) ApplyRemote(recs []store.Record) (int, error) {
	r := &s.rep
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.store == nil {
		return 0, errors.New("core: ApplyRemote: no store attached (replication requires a data dir)")
	}
	var applied []store.Record
	refold := false
	defer func() {
		// One re-fold per batch, not per record: a batch of concurrent
		// feedback routinely sorts into the middle of the tail, and
		// cloning the base plus replaying the whole tail for each record
		// would be O(batch × tail) work.
		if refold {
			s.publish(r.refold())
		} else if len(applied) > 0 {
			s.publish(s.ranking.Load().next(applied...))
		}
		if len(applied) > 0 {
			s.maybeCompactLocked()
		}
	}()
	now := r.now()
	for _, rec := range recs {
		if rec.Origin == "" || rec.OriginSeq == 0 || rec.LC == 0 {
			return len(applied), fmt.Errorf("core: remote record without identity: %+v", rec.Pos())
		}
		if rec.OriginSeq <= r.vector[rec.Origin] {
			continue // duplicate: already applied (possibly via another peer)
		}
		if rec.OriginSeq != r.vector[rec.Origin]+1 {
			continue // gap: skip; the vector did not advance, so it will be re-pulled
		}
		stored, err := r.store.Append(rec)
		if err != nil {
			return len(applied), fmt.Errorf("core: logging remote record: %w", err)
		}
		if !stored.Pos().After(r.foldPos) {
			// The record sorts below our fold watermark — a replica joined
			// mid-stream with a cold clock (see README: fleets should be
			// full-mesh so clocks are exchanged before folding). We cannot
			// unfold the base, so the record applies on top; replicas that
			// had not folded yet order it canonically. Counted for /healthz.
			r.reorders++
		}
		if !r.insertTailLocked(stored) {
			refold = true
		}
		r.noteAppliedLocked(stored)
		if stored.Origin != r.replicaID {
			r.lastContact[stored.Origin] = now
		}
		applied = append(applied, stored)
	}
	return len(applied), nil
}

// insertTailLocked places the record at its canonical position in the
// tail, reporting whether it extended the tail at the end (in which case
// the caller may apply it incrementally instead of re-folding).
func (r *replica) insertTailLocked(rec store.Record) (atEnd bool) {
	pos := rec.Pos()
	i := sort.Search(len(r.tail), func(i int) bool { return pos.Before(r.tail[i].Pos()) })
	r.tail = slices.Insert(r.tail, i, rec)
	return i == len(r.tail)-1
}

// ServePull serves one replication pull (the /cluster/pull endpoint) under
// one replica lock, so the vector and clock it reports cover every record
// it returns. A non-empty from names the requesting replica, and since,
// its applied vector, doubles as that replica's acknowledgement, which
// gates folding (a record is compacted away only once every peer holds
// it). The response carries the retained records beyond since in
// canonical order, capped at limit (More reports that a record the
// batch left out remains: pull again to drain) — or, when since predates this replica's fold point for
// some origin, so that the records it needs no longer exist individually,
// Behind and the folded state to adopt.
func (s *System) ServePull(from string, since store.Vector, limit int) (*cluster.PullResponse, error) {
	r := &s.rep
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.store == nil {
		return nil, errors.New("core: replication requires a persistent data dir (-data-dir)")
	}
	if from != "" {
		if err := store.ValidReplicaID(from); err != nil {
			return nil, err
		}
		if from != r.replicaID {
			r.noteAckLocked(from, since)
		}
	}
	resp := &cluster.PullResponse{Origin: r.replicaID, Vector: r.vector.Clone(), LC: r.lamport}
	for o, folded := range r.foldedVector {
		if folded > 0 && since[o] < folded {
			state := r.foldedLocked()
			state.Tail = slices.Clone(r.tail)
			resp.Behind, resp.State = true, state
			return resp, nil
		}
	}
	for _, rec := range r.tail {
		if rec.OriginSeq <= since[rec.Origin] {
			continue
		}
		if limit > 0 && len(resp.Records) == limit {
			resp.More = true // a record is left beyond the batch
			break
		}
		resp.Records = append(resp.Records, rec)
	}
	return resp, nil
}

// noteAckLocked records that peer from has pulled with vector v — proof it
// holds every record v covers. Acks gate folding (and therefore WAL
// compaction): a record is only made permanent once every peer could never
// need to pull it again.
func (r *replica) noteAckLocked(from string, v store.Vector) {
	r.lastContact[from] = r.now()
	prev := r.acks[from]
	merged := v.Clone()
	if merged == nil {
		merged = make(store.Vector, len(prev))
	}
	for o, seq := range prev {
		if merged[o] < seq {
			merged[o] = seq
		}
	}
	r.acks[from] = merged
}

// AdoptState replaces this replica's folded base with a peer's — the
// catch-up path when the peer compacted past our vector. Our own records
// beyond the adopted fold vector are kept and re-folded on top (records
// below it are already inside the adopted base: a peer only folds what
// the whole fleet acknowledged, which includes us). The adopted state is
// snapshotted immediately so the catch-up survives a crash, and the old
// WAL records it supersedes are compacted away. The peer's unfolded tail
// (cs.Tail) is NOT applied here — feed it through ApplyRemote afterwards
// like any pull batch.
func (s *System) AdoptState(cs *store.ReplicaState) error {
	r := &s.rep
	r.mu.Lock()
	if r.store == nil {
		r.mu.Unlock()
		return errors.New("core: AdoptState: no store attached")
	}
	// Sanity: adopting must move us forward, never sideways — refuse a
	// state whose fold point is below ours (we would unfold our own base).
	if cs.FoldPos.Before(r.foldPos) {
		r.mu.Unlock()
		return fmt.Errorf("core: refusing to adopt state folded at %+v, behind local fold %+v", cs.FoldPos, r.foldPos)
	}
	old := r.tail
	r.installLocked(cs)
	for _, rec := range old { // old is in canonical order
		if rec.OriginSeq != r.vector[rec.Origin]+1 {
			continue // inside the adopted base, or superseded by it mid-sequence
		}
		r.tail = append(r.tail, rec)
		r.noteAppliedLocked(rec)
	}
	s.publish(r.refold())
	// Make the adoption durable: the old WAL records are superseded by
	// the adopted base; a crash before this snapshot would boot from the
	// pre-adoption state and simply catch up again. The snapshot value is
	// captured under the lock but encoded and fsynced outside it, so
	// writers are not stalled behind a warehouse-scale encode while the
	// replica rejoins.
	snap := s.snapshotLocked()
	st := r.store
	r.mu.Unlock()
	if err := s.persistSnapshot(st, snap); err != nil {
		return fmt.Errorf("core: persisting adopted state: %w", err)
	}
	return nil
}

// DecommissionReplica removes a peer, named by a valid replica id, from
// the fold quorum: it stops gating the watermark and the ack coverage in
// foldableLocked, so folding and WAL compaction advance without ever
// hearing from it again. This is the operator's escape hatch for a static
// -peers entry that is never coming back. The set lives in memory: after
// a restart the peer gates folding again until decommissioned anew. Safe
// even if the peer does return: it finds itself behind the fold point
// (ServePull reports Behind) and adopts the folded state through the
// normal catch-up path, exactly like a fresh replica.
func (s *System) DecommissionReplica(id string) error {
	if err := store.ValidReplicaID(id); err != nil {
		return fmt.Errorf("core: decommission: %w", err)
	}
	s.rep.mu.Lock()
	defer s.rep.mu.Unlock()
	if id == s.rep.replicaID {
		return fmt.Errorf("core: refusing to decommission the local replica %q", id)
	}
	s.rep.decommissioned[id] = true
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
	r := &s.rep
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.store == nil {
		return nil
	}
	info := &ReplicationInfo{
		ReplicaID:   r.replicaID,
		Vector:      r.vector.Clone(),
		Lamport:     r.lamport,
		TailRecords: len(r.tail),
		Reorders:    r.reorders,
	}
	info.Decommissioned = slices.Sorted(maps.Keys(r.decommissioned))
	return info
}

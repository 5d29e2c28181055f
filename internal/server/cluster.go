package server

// The replication routes: /cluster/pull, which peers tail, and
// /admin/decommission, which removes a dead peer from the fold quorum.

import (
	"fmt"
	"net/http"
	"strconv"

	"soda/internal/cluster"
	"soda/internal/store"
)

// --- /admin/decommission ------------------------------------------------

// DecommissionResponse confirms a replica was removed from the fold
// quorum.
type DecommissionResponse struct {
	OK      bool   `json:"ok"`
	Replica string `json:"replica"`
}

// handleDecommission removes a peer replica from the feedback fold quorum
// (?replica=<id>) until this daemon restarts — the operator's escape
// hatch for a static -peers entry that is never coming back and would
// otherwise stall WAL folding and compaction. An invalid id is a 400, the
// local replica's own id a 409. See also the daemon's -peer-dead-after
// flag for the automatic variant.
func (s *Server) handleDecommission(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("replica")
	if err := store.ValidReplicaID(id); err != nil {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("replica parameter: %w", err))
		return
	}
	if err := s.sys.Decommission(id); err != nil {
		s.writeError(w, r, http.StatusConflict, err)
		return
	}
	s.log.Printf("replica %q decommissioned from the fold quorum", id)
	s.writeJSON(w, http.StatusOK, DecommissionResponse{OK: true, Replica: id})
}

// --- /cluster/pull ------------------------------------------------------

// handleClusterPull serves one replication pull to a peer replica: every
// retained feedback record beyond the caller's applied vector (?since=,
// in "origin:seq,origin:seq" form), in canonical order, capped at ?limit,
// as WAL record frames. The caller identifies itself with
// ?from=<replica-id>; its vector is its acknowledgement and gates this
// replica's WAL compaction. A caller that fell behind the local fold
// point receives the folded state to adopt (Soda-Behind, a body of
// snapshot sections) instead of records. cluster.WritePull lays out the
// response. Pulling is idempotent and read-only on the feedback state.
func (s *Server) handleClusterPull(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	since, err := cluster.ParseVector(q.Get("since"))
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	limit := cluster.DefaultBatchLimit
	if ls := q.Get("limit"); ls != "" {
		l, err := strconv.Atoi(ls)
		if err != nil || l <= 0 {
			s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad limit %q", ls))
			return
		}
		if l > cluster.MaxBatchLimit {
			l = cluster.MaxBatchLimit
		}
		limit = l
	}
	resp, err := s.sys.ClusterPull(q.Get("from"), since, limit)
	if err != nil {
		// No store attached (or a malformed replica id): the daemon is not
		// replication-capable, which for a fleet peer is a configuration
		// conflict, not a transient failure.
		s.writeError(w, r, http.StatusConflict, err)
		return
	}
	// A write error means the peer hung up; it pulls again next tick.
	_ = cluster.WritePull(w, resp)
}

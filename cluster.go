package soda

// Fleet replication: the tailer's view of the local System, per-peer lag
// gauges, and the status, decommission and pull operations behind
// /healthz, /admin/decommission and /cluster/pull.

import (
	"time"

	"soda/internal/cluster"
	"soda/internal/core"
	"soda/internal/obs"
)

// registerClusterMetrics exposes per-peer replication lag as gauges read
// from the tailer's status at scrape time, each -1 until the first
// successful pull from the peer, so a peer that never answered does not
// read as caught up:
//
//	soda_cluster_peer_records_behind{peer}        records applied by the
//	                                              peer but not yet here
//	soda_cluster_peer_last_contact_seconds{peer}  seconds since the last
//	                                              successful pull
func (s *System) registerClusterMetrics(peers []string) {
	reg := s.sys.MetricsRegistry()
	for _, peer := range peers {
		pl := obs.Label{Name: "peer", Value: peer}
		gauge := func(read func(cluster.PeerStatus) float64) func() float64 {
			return func() float64 {
				st, ok := s.tailer.Status(peer)
				if !ok || st.LastContact.IsZero() {
					return -1
				}
				return read(st)
			}
		}
		reg.GaugeFunc("soda_cluster_peer_records_behind",
			"Feedback records the peer has applied that this replica has not (-1 before first contact).",
			gauge(func(st cluster.PeerStatus) float64 { return float64(st.RecordsBehind) }), pl)
		reg.GaugeFunc("soda_cluster_peer_last_contact_seconds",
			"Seconds since the last successful pull from the peer (-1 before first contact).",
			gauge(func(st cluster.PeerStatus) float64 { return time.Since(st.LastContact).Seconds() }), pl)
	}
}

// ReplicationInfo re-exports the local replication diagnostics (replica
// id, applied vector, unfolded tail size).
type ReplicationInfo = core.ReplicationInfo

// PeerStatus re-exports one peer's replication health (lag in records,
// last contact, last error).
type PeerStatus = cluster.PeerStatus

// ClusterStatus is the /healthz cluster block: the local replication
// state plus per-peer lag.
type ClusterStatus struct {
	ReplicationInfo
	Peers []PeerStatus `json:"peers,omitempty"`
}

// ClusterStatus reports the replication state, or nil for a System
// without a persistent store (replication needs record identities, which
// need a data dir).
func (s *System) ClusterStatus() *ClusterStatus {
	info := s.sys.ReplicationInfo()
	if info == nil {
		return nil
	}
	cs := &ClusterStatus{ReplicationInfo: *info}
	if s.tailer != nil {
		cs.Peers = s.tailer.Peers()
	}
	return cs
}

// ReplicaID returns this System's replication identity ("local" for a
// store-less System).
func (s *System) ReplicaID() string { return s.sys.ReplicaID() }

// Decommission removes a peer replica from the feedback fold quorum until
// this System closes, letting WAL folding and compaction advance past a
// peer that is never coming back (the /admin/decommission endpoint calls
// this; see also Options.PeerDeadAfter for the automatic variant). A
// returning peer adopts the folded state through the normal catch-up
// path. Invalid ids and the local replica's own are refused.
func (s *System) Decommission(replicaID string) error {
	return s.sys.DecommissionReplica(replicaID)
}

// AppliedVector returns the replication vector: per origin, the highest
// contiguous record sequence applied.
func (s *System) AppliedVector() map[string]uint64 { return s.sys.AppliedVector() }

// ClusterPull serves one replication pull (the /cluster/pull endpoint):
// the retained feedback records beyond the requester's vector, or — when
// the requester fell behind this replica's fold point — the folded state
// to adopt. The requester's vector doubles as its acknowledgement, which
// gates local WAL compaction (a record is only compacted away once every
// peer holds it). The response is read at one moment: its vector and
// clock cover every record it carries.
func (s *System) ClusterPull(from string, since map[string]uint64, limit int) (*cluster.PullResponse, error) {
	return s.sys.ServePull(from, since, limit)
}

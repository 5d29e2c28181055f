// Package cluster is the replication layer that lets a fleet of sodad
// replicas learn as one: each replica serves its feedback WAL records
// over /cluster/pull and runs a background tailer that pulls its peers,
// so relevance feedback given to any replica reaches all of them and the
// fleet converges on byte-identical rankings (the determinism argument
// lives in internal/core/cluster.go: feedback state is the fold of the
// applied record set in canonical Lamport order).
//
// The protocol is a single idempotent HTTP GET:
//
//	GET /cluster/pull?since=<vector>&from=<replica-id>&limit=<n>
//
// where <vector> is "origin:seq,origin:seq" — the requester's applied
// vector. The response carries every retained record beyond the vector in
// canonical order (capped at limit, with "more" set when truncated), the
// responder's own vector (for lag accounting) and Lamport clock (so idle
// peers still advance fold watermarks). The requester's vector doubles as
// an acknowledgement: the responder will not compact records the
// requester has not yet covered. When the requester's vector predates the
// responder's fold point — a fresh replica, or one that lost its data
// dir — the response instead carries the responder's folded state
// ("behind" + "state"), which the requester adopts wholesale before
// resuming incremental pulls.
package cluster

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"soda/internal/store"
)

// DefaultInterval is the tailer's default poll interval.
const (
	DefaultIntervalMS = 500
	// DefaultBatchLimit caps records per pull response.
	DefaultBatchLimit = 1024
	// MaxBatchLimit is the server-side ceiling on the limit parameter.
	MaxBatchLimit = 4096
)

// FormatVector renders a vector as "origin:seq,origin:seq", sorted by
// origin for determinism. The empty vector renders as "".
func FormatVector(v store.Vector) string {
	if len(v) == 0 {
		return ""
	}
	origins := make([]string, 0, len(v))
	for o := range v {
		origins = append(origins, o)
	}
	sort.Strings(origins)
	var b strings.Builder
	for i, o := range origins {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(o)
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(v[o], 10))
	}
	return b.String()
}

// ParseVector parses FormatVector's output.
func ParseVector(s string) (store.Vector, error) {
	v := make(store.Vector)
	if s == "" {
		return v, nil
	}
	for _, part := range strings.Split(s, ",") {
		i := strings.LastIndexByte(part, ':')
		if i <= 0 || i == len(part)-1 {
			return nil, fmt.Errorf("cluster: bad vector entry %q (want origin:seq)", part)
		}
		origin := part[:i]
		if err := store.ValidReplicaID(origin); err != nil {
			return nil, fmt.Errorf("cluster: bad vector origin: %w", err)
		}
		seq, err := strconv.ParseUint(part[i+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: bad vector seq in %q: %w", part, err)
		}
		v[origin] = seq
	}
	return v, nil
}

// --- JSON wire types --------------------------------------------------

// WireKey is one feedback entry-point key on the wire.
type WireKey struct {
	Node   string `json:"node,omitempty"`
	Table  string `json:"table,omitempty"`
	Column string `json:"column,omitempty"`
}

// WireRecord is one replicated feedback record on the wire. Op uses the
// store's numeric values (1 like, 2 dislike, 3 reset, 4 set-query,
// 5 delete-query). Payload carries the saved-query ops' opaque body
// (base64 under encoding/json).
type WireRecord struct {
	Origin  string    `json:"origin"`
	Seq     uint64    `json:"seq"`
	LC      uint64    `json:"lc"`
	Op      uint8     `json:"op"`
	Keys    []WireKey `json:"keys,omitempty"`
	Payload []byte    `json:"payload,omitempty"`
}

// WireFeedback is one folded adjustment in a catch-up state payload.
type WireFeedback struct {
	Key   WireKey `json:"key"`
	Value float64 `json:"value"`
}

// WireOrigin is one origin's folded cursor in a catch-up state payload.
type WireOrigin struct {
	ID  string `json:"id"`
	Seq uint64 `json:"seq"`
	LC  uint64 `json:"lc"`
}

// WireState is the anti-entropy payload: the responder's folded base and
// unfolded tail.
type WireState struct {
	Feedback   []WireFeedback     `json:"feedback,omitempty"`
	Queries    []store.SavedQuery `json:"queries,omitempty"`
	Epoch      uint64             `json:"epoch"`
	FoldLC     uint64             `json:"fold_lc"`
	FoldOrigin string             `json:"fold_origin,omitempty"`
	FoldSeq    uint64             `json:"fold_seq"`
	Origins    []WireOrigin       `json:"origins,omitempty"`
	Records    []WireRecord       `json:"records,omitempty"`
}

// PullResponse is the /cluster/pull payload.
type PullResponse struct {
	// Origin is the responder's replica id.
	Origin string `json:"origin"`
	// Vector is the responder's applied vector (lag accounting).
	Vector map[string]uint64 `json:"vector"`
	// LC is the responder's Lamport clock.
	LC uint64 `json:"lc"`
	// Records are the retained records beyond the requester's vector, in
	// canonical order; More means the batch was capped.
	Records []WireRecord `json:"records,omitempty"`
	More    bool         `json:"more,omitempty"`
	// Behind means the requester's vector predates the responder's fold
	// point; State carries the folded state to adopt.
	Behind bool       `json:"behind,omitempty"`
	State  *WireState `json:"state,omitempty"`
}

// --- conversions ------------------------------------------------------

// ToWireRecords converts store records for a response.
func ToWireRecords(recs []store.Record) []WireRecord {
	out := make([]WireRecord, len(recs))
	for i, r := range recs {
		out[i] = WireRecord{Origin: r.Origin, Seq: r.OriginSeq, LC: r.LC, Op: uint8(r.Op), Keys: toWireKeys(r.Keys), Payload: r.Payload}
	}
	return out
}

// FromWireRecords converts pulled records back, validating ops.
func FromWireRecords(recs []WireRecord) ([]store.Record, error) {
	out := make([]store.Record, len(recs))
	for i, r := range recs {
		op := store.Op(r.Op)
		switch op {
		case store.OpLike, store.OpDislike, store.OpReset, store.OpSetQuery, store.OpDelQuery:
		default:
			return nil, fmt.Errorf("cluster: unknown record op %d from %s:%d", r.Op, r.Origin, r.Seq)
		}
		if err := store.ValidReplicaID(r.Origin); err != nil {
			return nil, err
		}
		out[i] = store.Record{Origin: r.Origin, OriginSeq: r.Seq, LC: r.LC, Op: op, Keys: fromWireKeys(r.Keys), Payload: r.Payload}
	}
	return out, nil
}

func toWireKeys(keys []store.Key) []WireKey {
	out := make([]WireKey, len(keys))
	for i, k := range keys {
		out[i] = WireKey(k)
	}
	return out
}

func fromWireKeys(keys []WireKey) []store.Key {
	out := make([]store.Key, len(keys))
	for i, k := range keys {
		out[i] = store.Key(k)
	}
	return out
}

// StateToWire converts a replica's catch-up state for a response.
func StateToWire(st *store.ReplicaState) *WireState {
	ws := &WireState{
		Epoch:      st.Epoch,
		FoldLC:     st.FoldPos.LC,
		FoldOrigin: st.FoldPos.Origin,
		FoldSeq:    st.FoldPos.Seq,
		Queries:    st.Queries,
		Records:    ToWireRecords(st.Tail),
	}
	for _, e := range st.Feedback {
		ws.Feedback = append(ws.Feedback, WireFeedback{Key: WireKey(e.Key), Value: e.Value})
	}
	for _, o := range st.Origins {
		ws.Origins = append(ws.Origins, WireOrigin{ID: o.ID, Seq: o.Seq, LC: o.LC})
	}
	return ws
}

// StateFromWire converts a pulled catch-up state back, validating record
// identities.
func StateFromWire(ws *WireState) (*store.ReplicaState, error) {
	tail, err := FromWireRecords(ws.Records)
	if err != nil {
		return nil, err
	}
	st := &store.ReplicaState{
		Epoch:   ws.Epoch,
		FoldPos: store.Pos{LC: ws.FoldLC, Origin: ws.FoldOrigin, Seq: ws.FoldSeq},
		Queries: ws.Queries,
		Tail:    tail,
	}
	for _, e := range ws.Feedback {
		st.Feedback = append(st.Feedback, store.FeedbackEntry{Key: store.Key(e.Key), Value: e.Value})
	}
	for _, o := range ws.Origins {
		if err := store.ValidReplicaID(o.ID); err != nil {
			return nil, err
		}
		st.Origins = append(st.Origins, store.OriginState{ID: o.ID, Seq: o.Seq, LC: o.LC})
	}
	return st, nil
}

// PullURL builds the pull request URL for a peer base URL.
func PullURL(peer, from string, since store.Vector, limit int) string {
	q := url.Values{}
	q.Set("from", from)
	if vs := FormatVector(since); vs != "" {
		q.Set("since", vs)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	return strings.TrimSuffix(peer, "/") + "/cluster/pull?" + q.Encode()
}

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
// vector. The requester's vector doubles as an acknowledgement: the
// responder will not compact records the requester has not yet covered.
// The response speaks the store's own encodings; WritePull and ReadPull
// are the only code that knows how they are arranged:
//
//   - headers carry the scalars: the responder's replica id (Soda-Origin),
//     applied vector in the same "origin:seq" form (Soda-Vector, for lag
//     accounting) and Lamport clock (Soda-Lc, so idle peers still advance
//     fold watermarks), plus Soda-More when the batch was capped at limit;
//   - the body is every retained record beyond the requester's vector, in
//     canonical order, as the WAL's CRC-framed records (store.EncodeRecords).
//
// When the requester's vector predates the responder's fold point — a
// fresh replica, or one that lost its data dir — the response instead sets
// Soda-Behind, and the body is the responder's folded state as snapshot
// sections (store.EncodeState: feedback, origins, queries and a tail of
// record frames), which the requester adopts wholesale before resuming
// incremental pulls. Such a response also carries Soda-Epoch: 0, a slot
// once holding a ranking epoch, which replicas of older builds still
// require and this one ignores. A bad header, frame or section, a cut body
// or one that reaches maxPullBody fails the whole pull: nothing applies.
package cluster

import (
	"fmt"
	"io"
	"net/http"
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

// PullResponse is one /cluster/pull answer.
type PullResponse struct {
	// Origin is the responder's replica id.
	Origin string
	// Vector is the responder's applied vector (lag accounting).
	Vector store.Vector
	// LC is the responder's Lamport clock.
	LC uint64
	// Records are the retained records beyond the requester's vector, in
	// canonical order; More means the batch was capped.
	Records []store.Record
	More    bool
	// Behind means the requester's vector predates the responder's fold
	// point; State carries the folded state to adopt.
	Behind bool
	State  *store.ReplicaState
}

// The response headers that carry a pull's scalars.
const (
	hdrOrigin = "Soda-Origin"
	hdrVector = "Soda-Vector"
	hdrLC     = "Soda-Lc"
	hdrMore   = "Soda-More"
	hdrBehind = "Soda-Behind"
	// hdrEpoch is written "0" on a behind response and never read.
	hdrEpoch = "Soda-Epoch"
)

// maxPullBody caps a pull response body; feedback records are tiny, so a
// body that reaches it is a protocol error, not data. A variable so tests
// can reach it with a small body.
var maxPullBody = 64 << 20

// WritePull writes resp as a 200 response; ReadPull decodes it.
func WritePull(w http.ResponseWriter, resp *PullResponse) error {
	h := w.Header()
	h.Set(hdrOrigin, resp.Origin)
	h.Set(hdrVector, FormatVector(resp.Vector))
	h.Set(hdrLC, strconv.FormatUint(resp.LC, 10))
	var body []byte
	if resp.Behind {
		h.Set(hdrBehind, "true")
		h.Set(hdrEpoch, "0")
		body = store.EncodeState(resp.State)
	} else {
		if resp.More {
			h.Set(hdrMore, "true")
		}
		body = store.EncodeRecords(resp.Records)
	}
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, err := w.Write(body)
	return err
}

// ReadPull reads and decodes a WritePull response. Any non-200 status,
// bad header, bad or truncated frame or section, trailing bytes, or a
// body that reaches maxPullBody is an error, and then nothing decoded is
// returned: a damaged pull applies nothing.
func ReadPull(r *http.Response) (*PullResponse, error) {
	if r.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(r.Body, 512))
		return nil, fmt.Errorf("status %d: %s", r.StatusCode, msg)
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, int64(maxPullBody)))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	if len(body) == maxPullBody {
		return nil, fmt.Errorf("body reaches the %d-byte limit", maxPullBody)
	}
	h := r.Header
	resp := &PullResponse{
		Origin: h.Get(hdrOrigin),
		More:   h.Get(hdrMore) == "true",
		Behind: h.Get(hdrBehind) == "true",
	}
	if err := store.ValidReplicaID(resp.Origin); err != nil {
		return nil, err
	}
	if resp.Vector, err = ParseVector(h.Get(hdrVector)); err != nil {
		return nil, err
	}
	if resp.LC, err = strconv.ParseUint(h.Get(hdrLC), 10, 64); err != nil {
		return nil, fmt.Errorf("cluster: bad %s header: %w", hdrLC, err)
	}
	if !resp.Behind {
		if resp.Records, err = store.DecodeRecords(body); err != nil {
			return nil, err
		}
		return resp, nil
	}
	if resp.State, err = store.DecodeState(body); err != nil {
		return nil, err
	}
	return resp, nil
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

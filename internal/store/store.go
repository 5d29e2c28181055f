// Package store is SODA's persistent state layer: an append-only feedback
// write-ahead log plus versioned binary snapshots of the durable state
// (the folded feedback map, the replication vector, the saved-query
// library). Together they are "open the store, replay the tail":
// relevance feedback (§6.3) survives daemon restarts. The inverted index
// and the metadata graph are not stored: every boot builds them from the
// world.
//
// Data directory layout:
//
//	feedback.wal   append-only feedback log (crc-framed, fsync-batched)
//	snapshot.soda  latest snapshot (atomic tmp+rename writes)
//	replica-id     this directory's stable replica identity
//
// Corruption anywhere degrades gracefully: a torn WAL tail is truncated, a
// stale or corrupt snapshot is ignored and the WAL replays onto empty
// state.
package store

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"soda/internal/obs"
)

const (
	walFileName       = "feedback.wal"
	snapshotFileName  = "snapshot.soda"
	replicaIDFileName = "replica-id"
)

// ErrClosed reports an operation on a store after Close. Callers racing a
// graceful shutdown (background compaction) match it with errors.Is to
// tell the benign shutdown race from a real persistence failure.
var ErrClosed = errors.New("store: closed")

// Vector is a replication vector: per-origin, the highest contiguous
// OriginSeq applied. Two vectors from different replicas are comparable
// per origin; a replica pulls from a peer by sending its own vector and
// receiving every record the peer holds beyond it.
type Vector map[string]uint64

// Clone returns a private copy of the vector.
func (v Vector) Clone() Vector { return maps.Clone(v) }

// Includes reports whether the vector covers the record identified by
// (origin, seq).
func (v Vector) Includes(origin string, seq uint64) bool { return v[origin] >= seq }

// ReplicaState is a replica's full replication state: the folded feedback
// base with its canonical watermark and per-origin vector, plus the
// unfolded record tail. It is the anti-entropy payload a replica that
// fell behind a peer's fold point adopts wholesale; EncodeState gives its
// byte form.
type ReplicaState struct {
	Feedback []FeedbackEntry
	// Queries is the folded saved-query library at FoldPos.
	Queries []SavedQuery
	FoldPos Pos
	Origins []OriginState
	Tail    []Record
}

// Store is one open data directory. It is safe for concurrent use.
type Store struct {
	dir string
	wal *wal

	// snapMu serialises snapshot writes: concurrent writers would race
	// on the shared temp file, and back-to-back snapshots of the same
	// state are pointless anyway. lastFolded (under snapMu) is the folded
	// vector of the newest snapshot written or loaded — the monotonicity
	// guard: a stale capture must never overwrite a newer snapshot whose
	// compaction already dropped the records between them.
	snapMu     sync.Mutex
	lastFolded Vector

	mu            sync.Mutex
	replayed      []Record // records scanned from the WAL at open
	snapshotBytes int64
	snapshotSeq   uint64
	invalidReason string // why the on-disk snapshot was unusable, if it was

	compactions atomic.Uint64
	closed      atomic.Bool

	// Durability-path instruments (nil until SetMetrics; obs instruments
	// are nil-safe so the hooks below never check).
	appendHist atomic.Pointer[obs.Histogram]
	snapHist   atomic.Pointer[obs.Histogram]
}

// Metrics is the set of durability-path instruments a Store records into.
// All fields are optional; a zero Metrics disables instrumentation.
type Metrics struct {
	// AppendSeconds times each WAL record append (framing + file write,
	// not the deferred fsync).
	AppendSeconds *obs.Histogram
	// FsyncSeconds times each WAL fsync (batched: one per flush interval
	// under load).
	FsyncSeconds *obs.Histogram
	// SnapshotWriteSeconds times each full snapshot persist (encode +
	// WAL sync + atomic file write + WAL compaction).
	SnapshotWriteSeconds *obs.Histogram
}

// SetMetrics wires instruments into the store's durability paths. Safe to
// call at any time; typically once right after Open.
func (st *Store) SetMetrics(m Metrics) {
	st.appendHist.Store(m.AppendSeconds)
	st.snapHist.Store(m.SnapshotWriteSeconds)
	st.wal.setFsyncHist(m.FsyncSeconds)
}

// Stats describes the store for diagnostics (/healthz).
type Stats struct {
	Dir           string `json:"dir"`
	WALRecords    int    `json:"wal_records"`
	WALBytes      int64  `json:"wal_bytes"`
	NextSeq       uint64 `json:"next_seq"`
	SnapshotBytes int64  `json:"snapshot_bytes"`
	SnapshotSeq   uint64 `json:"snapshot_seq"`
	Compactions   uint64 `json:"compactions"`
	// InvalidReason says why the snapshot present at open was discarded
	// ("" when it was usable or absent).
	InvalidReason string `json:"invalid_reason,omitempty"`
}

// Open opens (creating if necessary) the data directory, scans the WAL and
// truncates any torn tail. Snapshot loading is a separate step
// (LoadSnapshot) because the caller decides what fingerprint is valid.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	w, records, err := openWAL(filepath.Join(dir, walFileName))
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	return &Store{dir: dir, wal: w, replayed: records}, nil
}

// Dir returns the data directory path.
func (st *Store) Dir() string { return st.dir }

// LoadSnapshot reads and validates the snapshot on disk against the given
// world fingerprint. A missing, stale or corrupt snapshot returns
// (nil, nil): the caller starts from empty state and the reason is kept
// for Stats.
// Only I/O-level failures of a *valid* store return an error.
//
// Loading also advances the WAL's next sequence number past the
// snapshot's applied sequence, so records appended after a compacted WAL
// can never reuse sequence numbers the snapshot already folded in.
func (st *Store) LoadSnapshot(fingerprint uint64) (*Snapshot, error) {
	data, err := os.ReadFile(filepath.Join(st.dir, snapshotFileName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read snapshot: %w", err)
	}
	snap, derr := decodeSnapshot(data, fingerprint)
	if derr == nil {
		// Seed the write-monotonicity guard from the loaded state (snapMu
		// strictly before st.mu: WriteSnapshot takes them in that order).
		st.snapMu.Lock()
		st.lastFolded = make(Vector, len(snap.Origins))
		for _, o := range snap.Origins {
			st.lastFolded[o.ID] = o.Seq
		}
		st.snapMu.Unlock()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if derr != nil {
		st.invalidReason = derr.Error()
		return nil, nil
	}
	st.snapshotBytes = int64(len(data))
	st.snapshotSeq = snap.AppliedSeq
	st.wal.ensureSeqAfter(snap.AppliedSeq)
	return snap, nil
}

// Replayed returns the WAL records scanned at open, in local sequence
// order (which for replicated logs is arrival order, not canonical
// order). The caller filters out records already folded into its
// snapshot (canonical position at or below Snapshot.FoldPos).
func (st *Store) Replayed() []Record { return st.replayed }

// Append logs one feedback event and returns it with its assigned local
// sequence number. The record's replication identity (Origin, OriginSeq,
// LC) is the caller's responsibility — both locally-created and
// remotely-pulled records are persisted through here, each keeping its
// original identity. Durability is fsync-batched (see package wal docs).
func (st *Store) Append(rec Record) (Record, error) {
	start := time.Now()
	out, err := st.wal.append(rec)
	st.appendHist.Load().Record(time.Since(start))
	return out, err
}

// ReplicaID returns this data directory's stable replica identity,
// creating it on first use. With a non-empty preferred id the directory
// is bound to it; a later open with a *different* preferred id fails
// loudly, because silently changing identity would fork the per-origin
// sequence numbers the rest of the fleet has already applied.
func (st *Store) ReplicaID(preferred string) (string, error) {
	path := filepath.Join(st.dir, replicaIDFileName)
	if data, err := os.ReadFile(path); err == nil {
		id := strings.TrimSpace(string(data))
		if id != "" {
			if preferred != "" && preferred != id {
				return "", fmt.Errorf("store: data dir %s belongs to replica %q, refusing to run as %q (replica ids must be stable)", st.dir, id, preferred)
			}
			return id, nil
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return "", fmt.Errorf("store: read replica id: %w", err)
	}
	id := preferred
	if id == "" {
		var buf [6]byte
		if _, err := rand.Read(buf[:]); err != nil {
			return "", fmt.Errorf("store: generate replica id: %w", err)
		}
		id = hex.EncodeToString(buf[:])
	}
	if err := ValidReplicaID(id); err != nil {
		return "", err
	}
	if err := os.WriteFile(path, []byte(id+"\n"), 0o644); err != nil {
		return "", fmt.Errorf("store: persist replica id: %w", err)
	}
	syncDir(st.dir)
	return id, nil
}

// ValidReplicaID rejects replica ids that would collide with the wire
// framing (vectors are encoded as "origin:seq,origin:seq").
func ValidReplicaID(id string) error {
	if id == "" {
		return errors.New("store: replica id must not be empty")
	}
	if len(id) > 64 {
		return fmt.Errorf("store: replica id %q too long (max 64)", id)
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("store: replica id %q contains %q (allowed: letters, digits, '-', '_', '.')", id, r)
		}
	}
	return nil
}

// Sync forces all appended records to disk.
func (st *Store) Sync() error { return st.wal.sync() }

// WALRecords reports how many records the WAL currently holds — the
// replay debt a restart would pay, and the compaction trigger.
func (st *Store) WALRecords() int {
	n, _, _ := st.wal.stats()
	return n
}

// WriteSnapshot atomically persists snap and compacts the WAL down to
// the records not yet folded into it. "Folded" is decided per origin by
// the snapshot's vector (snap.Origins): the folded base always holds a
// gap-free per-origin prefix, so vector coverage is exact — even for the
// rare record that arrived canonically below the fold watermark and is
// retained in the unfolded tail. In a cluster, records peers may still
// pull stay in the log; single-replica snapshots fold everything and the
// log empties, as before. The caller guarantees snap is a consistent
// view (feedback state and vector captured under its own lock).
func (st *Store) WriteSnapshot(snap *Snapshot) error {
	start := time.Now()
	defer func() { st.snapHist.Load().Record(time.Since(start)) }()
	st.snapMu.Lock()
	defer st.snapMu.Unlock()
	if st.closed.Load() {
		return ErrClosed
	}
	folded := make(Vector, len(snap.Origins))
	for _, o := range snap.Origins {
		folded[o.ID] = o.Seq
	}
	// Monotonicity guard: snapshot captures race their writes (an admin
	// snapshot vs. the async auto-compaction, a final Close flush vs. an
	// in-flight write). If a newer snapshot already landed — and its
	// compaction dropped the WAL records its base covers — writing this
	// older capture would lose those records and rewind the vector, so
	// origin sequences could be reused. The newer snapshot is a superset;
	// skipping the stale write is a clean no-op.
	for o, seq := range st.lastFolded {
		if folded[o] < seq {
			return nil
		}
	}
	data := encodeSnapshot(snap)
	// The WAL must be durable up to AppliedSeq before the snapshot that
	// claims to supersede those records lands.
	if err := st.wal.sync(); err != nil {
		return fmt.Errorf("store: sync wal before snapshot: %w", err)
	}
	if err := writeSnapshotFile(filepath.Join(st.dir, snapshotFileName), data); err != nil {
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	keep := func(rec Record) bool { return rec.OriginSeq > folded[rec.Origin] }
	if err := st.wal.compact(keep); err != nil {
		return fmt.Errorf("store: compact wal: %w", err)
	}
	st.compactions.Add(1)
	st.lastFolded = folded
	st.mu.Lock()
	st.snapshotBytes = int64(len(data))
	st.snapshotSeq = snap.AppliedSeq
	st.mu.Unlock()
	return nil
}

// Stats returns a point-in-time description of the store.
func (st *Store) Stats() Stats {
	records, bytes, nextSeq := st.wal.stats()
	st.mu.Lock()
	defer st.mu.Unlock()
	return Stats{
		Dir:           st.dir,
		WALRecords:    records,
		WALBytes:      bytes,
		NextSeq:       nextSeq,
		SnapshotBytes: st.snapshotBytes,
		SnapshotSeq:   st.snapshotSeq,
		Compactions:   st.compactions.Load(),
		InvalidReason: st.invalidReason,
	}
}

// Close syncs and closes the WAL. The store is unusable afterwards.
func (st *Store) Close() error {
	if st.closed.Swap(true) {
		return nil
	}
	return st.wal.close()
}

func uint64FromFloat(f float64) uint64 { return math.Float64bits(f) }
func floatFromUint64(u uint64) float64 { return math.Float64frombits(u) }

// ensureSeqAfter bumps the WAL's next sequence number so it is strictly
// greater than seq. Needed when the WAL was compacted to empty: its scan
// found no records, but the snapshot has already consumed sequences.
func (w *wal) ensureSeqAfter(seq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.nextSeq <= seq {
		w.nextSeq = seq + 1
	}
}

package store

// The feedback write-ahead log. Every Feedback/ResetFeedback call on a
// System appends one record; on open the log is replayed to reconstruct
// the feedback map the daemon had when it died. Records are
// length-prefixed and CRC-framed, so a torn tail from a crash mid-write is
// detected and truncated instead of poisoning the replay.
//
// Durability is fsync-batched: appends write through to the OS
// immediately, and a background flusher fsyncs at a short interval, so a
// burst of feedback calls costs one disk sync, not one per call. Close
// (and snapshot compaction) force a sync, so a graceful shutdown loses
// nothing; a hard crash loses at most the last flush interval.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"soda/internal/obs"
)

// Op discriminates WAL record types.
type Op uint8

// WAL record operations.
const (
	// OpLike / OpDislike apply a feedback delta to every key.
	OpLike    Op = 1
	OpDislike Op = 2
	// OpReset clears the whole feedback map.
	OpReset Op = 3
	// OpSetQuery upserts a saved parameterized query; the record's Payload
	// is EncodeSavedQuery's output.
	OpSetQuery Op = 4
	// OpDelQuery removes a saved query; the Payload is the query name.
	OpDelQuery Op = 5
)

// validOp reports whether the op is one this reader understands. Unknown
// ops hard-fail the decode: silently dropping a record would fork the
// folded state between replicas running different versions.
func validOp(op Op) bool {
	switch op {
	case OpLike, OpDislike, OpReset, OpSetQuery, OpDelQuery:
		return true
	}
	return false
}

// Key identifies one feedback entry point on disk: a metadata node (Node
// set) or a base-data column (Table/Column set).
type Key struct {
	Node   string
	Table  string
	Column string
}

// Record is one replayable feedback event.
//
// Seq is the local WAL sequence: strictly increasing per log file, never
// reused, and purely a storage concern (torn-tail detection, monotonicity
// of the scan).
//
// Origin, OriginSeq and LC are the record's replication identity. Origin
// names the replica that created the record; OriginSeq is that replica's
// own 1-based, gap-free counter — together they identify the record
// globally, so a record exchanged between replicas is applied exactly
// once. LC is a Lamport clock (strictly greater than every clock the
// origin had seen when it created the record); the triple
// (LC, Origin, OriginSeq) is the record's canonical position, a total
// order shared by every replica, and the feedback state is defined as the
// fold of the applied records in canonical order — which is what makes a
// fleet of replicas converge byte-identically on the same record set.
type Record struct {
	Seq       uint64
	Origin    string
	OriginSeq uint64
	LC        uint64
	Op        Op
	Keys      []Key
	// Payload carries the op-specific body for record types that are not
	// key-shaped: the encoded saved query for OpSetQuery, the query name
	// for OpDelQuery. Empty for the feedback ops.
	Payload []byte
}

// Pos is a record's canonical replication position.
type Pos struct {
	LC     uint64
	Origin string
	Seq    uint64 // OriginSeq
}

// Pos returns the record's canonical position.
func (r Record) Pos() Pos { return Pos{LC: r.LC, Origin: r.Origin, Seq: r.OriginSeq} }

// Before reports whether p sorts strictly before q in canonical order.
func (p Pos) Before(q Pos) bool {
	if p.LC != q.LC {
		return p.LC < q.LC
	}
	if p.Origin != q.Origin {
		return p.Origin < q.Origin
	}
	return p.Seq < q.Seq
}

// After reports whether p sorts strictly after q.
func (p Pos) After(q Pos) bool { return q.Before(p) }

// IsZero reports whether p is the zero position (before every real
// record: real records have LC >= 1).
func (p Pos) IsZero() bool { return p.LC == 0 && p.Origin == "" && p.Seq == 0 }

// walSyncInterval is how long an appended record may sit unsynced before
// the background flusher forces it to disk.
const walSyncInterval = 25 * time.Millisecond

// walMaxRecordSize caps a single record's payload, guarding replay against
// corrupt length prefixes.
const walMaxRecordSize = 1 << 24

// wal is the append-only log file plus its replay/compaction logic.
type wal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	nextSeq uint64 // seq the next append will use
	records int    // records currently in the file
	bytes   int64
	dirty   bool // written but not yet fsynced
	// failed poisons the log after an unrecoverable file-state error (a
	// partial write that could not be rewound, a compaction whose
	// reopen failed): appends must error loudly rather than silently
	// land somewhere the next replay will never read.
	failed error

	// fsyncHist, when set, times each f.Sync (nil-safe no-op otherwise).
	fsyncHist *obs.Histogram

	flushStop chan struct{}
	flushDone chan struct{}
}

// setFsyncHist wires the fsync-latency instrument (under the log's own
// lock, so a concurrent flush tick never sees a torn pointer).
func (w *wal) setFsyncHist(h *obs.Histogram) {
	w.mu.Lock()
	w.fsyncHist = h
	w.mu.Unlock()
}

// openWAL opens (or creates) the log at path, scans it for valid records,
// truncates any torn tail, and starts the background flusher. The scanned
// records are returned for replay.
func openWAL(path string) (*wal, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	records, goodOffset, err := scanWAL(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// A torn or corrupt tail is dropped: everything after the last valid
	// record is overwritten by the next append anyway, and leaving garbage
	// in the middle of the file would corrupt the *next* replay.
	if err := f.Truncate(goodOffset); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(goodOffset, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &wal{
		f:         f,
		path:      path,
		nextSeq:   1,
		records:   len(records),
		bytes:     goodOffset,
		flushStop: make(chan struct{}),
		flushDone: make(chan struct{}),
	}
	if n := len(records); n > 0 {
		w.nextSeq = records[n-1].Seq + 1
	}
	go w.flushLoop()
	return w, records, nil
}

// scanWAL reads every well-formed record from the start of f. It stops —
// without error — at the first truncated, checksum-failing or undecodable
// frame, or at a local Seq that does not increase, and reports the offset
// of the last good byte.
func scanWAL(f *os.File) (records []Record, goodOffset int64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, err
	}
	var lastSeq uint64
	rest := data
	for len(rest) > 0 {
		payload, next, err := takeFrame(rest)
		if err != nil {
			break // torn or corrupt tail
		}
		rec, err := decodeRecord(payload)
		if err != nil || rec.Seq <= lastSeq {
			break // framing is fine, content isn't: stop trusting
		}
		lastSeq = rec.Seq
		records = append(records, rec)
		rest = next
	}
	return records, int64(len(data) - len(rest)), nil
}

// append assigns the next local sequence number to the record (its
// replication identity — Origin/OriginSeq/LC — is the caller's), frames
// it and writes it through to the file. Durability is provided by the
// flusher (or an explicit sync).
func (w *wal) append(rec Record) (Record, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return Record{}, errors.New("store: wal is closed")
	}
	if w.failed != nil {
		return Record{}, w.failed
	}
	rec.Seq = w.nextSeq
	frame := appendFrame(nil, rec)
	if len(frame)-8 > walMaxRecordSize {
		// A record the scanner would reject must never be written: replay
		// stops at the first bad frame, so persisting it would silently
		// orphan everything appended after it. Oversized records can only
		// come from a misbehaving replication peer.
		return Record{}, fmt.Errorf("store: record payload %d bytes exceeds limit %d", len(frame)-8, walMaxRecordSize)
	}
	if n, err := w.f.Write(frame); err != nil {
		if n > 0 {
			// Rewind past the torn bytes: replay stops at the first bad
			// frame, so leaving garbage mid-file would make every later
			// successful append invisible to the next boot.
			if _, serr := w.f.Seek(w.bytes, io.SeekStart); serr != nil {
				w.failed = fmt.Errorf("store: wal unusable after partial append (seek: %w)", serr)
			} else if terr := w.f.Truncate(w.bytes); terr != nil {
				w.failed = fmt.Errorf("store: wal unusable after partial append (truncate: %w)", terr)
			}
		}
		return Record{}, fmt.Errorf("store: wal append: %w", err)
	}
	w.nextSeq++
	w.records++
	w.bytes += int64(len(frame))
	w.dirty = true
	return rec, nil
}

// appendFrame appends rec as one WAL frame: a little-endian u32 payload
// length, the payload's IEEE CRC32, then the encoded record.
func appendFrame(buf []byte, rec Record) []byte {
	start := len(buf)
	buf = appendRecord(append(buf, 0, 0, 0, 0, 0, 0, 0, 0), rec)
	payload := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// takeFrame slices the next frame's payload off b, checking its length
// against the bytes left and its checksum. Every frame reader — the WAL
// scan and DecodeRecords — goes through it.
func takeFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < 8 {
		return nil, nil, errors.New("store: truncated frame header")
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	if length == 0 || length > walMaxRecordSize {
		return nil, nil, fmt.Errorf("store: bad frame length %d", length)
	}
	if uint64(length) > uint64(len(b)-8) {
		return nil, nil, fmt.Errorf("store: frame of %d bytes truncated at %d", length, len(b)-8)
	}
	payload = b[8 : 8+length]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, nil, errors.New("store: frame checksum mismatch")
	}
	return payload, b[8+length:], nil
}

// EncodeRecords encodes recs as a stream of WAL frames — the body of a
// replication pull batch and the tail of a catch-up state.
func EncodeRecords(recs []Record) []byte {
	var buf []byte
	for _, rec := range recs {
		buf = appendFrame(buf, rec)
	}
	return buf
}

// DecodeRecords decodes EncodeRecords' output received from a peer.
// Unlike the WAL scan, it fails on any bad, truncated or trailing frame,
// so a damaged stream yields no records at all. The sender's local Seq
// means nothing here and is zeroed.
func DecodeRecords(b []byte) ([]Record, error) {
	var recs []Record
	for len(b) > 0 {
		payload, rest, err := takeFrame(b)
		if err != nil {
			return nil, err
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return nil, err
		}
		rec.Seq = 0
		recs = append(recs, rec)
		b = rest
	}
	return recs, nil
}

// sync forces everything appended so far to disk.
func (w *wal) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *wal) syncLocked() error {
	if w.f == nil || !w.dirty {
		return nil
	}
	start := time.Now()
	err := w.f.Sync()
	w.fsyncHist.Record(time.Since(start))
	if err != nil {
		return err
	}
	w.dirty = false
	return nil
}

// flushLoop batches fsyncs: however many records arrive inside one
// interval cost a single disk sync.
func (w *wal) flushLoop() {
	defer close(w.flushDone)
	t := time.NewTicker(walSyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = w.sync()
		case <-w.flushStop:
			return
		}
	}
}

// compact rewrites the log keeping only records the predicate accepts —
// called after a snapshot folded the rest into durable state. Keeping is
// per-record, not a sequence prefix: with replication, records arrive in
// network order, so a retained (unfolded) record can carry a smaller
// local Seq than a folded one. Kept records preserve their original local
// sequence numbers and relative order, so the scan's monotonicity check
// still holds. The rewrite goes through a temp file and a rename, so a
// crash mid-compaction leaves either the old or the new log, never a
// mangled one.
func (w *wal) compact(keep func(Record) bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("store: wal is closed")
	}
	records, _, err := scanWAL(w.f)
	if err != nil {
		return err
	}
	tmpPath := w.path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var kept int
	var bytes int64
	for _, rec := range records {
		if !keep(rec) {
			continue
		}
		frame := appendFrame(nil, rec)
		if _, err := tmp.Write(frame); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return err
		}
		kept++
		bytes += int64(len(frame))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, w.path); err != nil {
		os.Remove(tmpPath)
		return err
	}
	f, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		// The rename already happened: w.f now points at an unlinked
		// inode, so anything appended there would vanish on restart.
		// Poison the log so those appends fail loudly instead.
		w.failed = fmt.Errorf("store: wal unusable after compaction (reopen: %w)", err)
		return w.failed
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		w.failed = fmt.Errorf("store: wal unusable after compaction (seek: %w)", err)
		return w.failed
	}
	syncDir(filepath.Dir(w.path))
	old := w.f
	w.f = f
	w.records = kept
	w.bytes = bytes
	w.dirty = false
	return old.Close()
}

// close stops the flusher, syncs and closes the file.
func (w *wal) close() error {
	close(w.flushStop)
	<-w.flushDone
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

func (w *wal) stats() (records int, bytes int64, nextSeq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records, w.bytes, w.nextSeq
}

// syncDir fsyncs a directory so a rename within it is durable. Errors are
// ignored: not every platform supports directory fsync, and the rename
// itself already happened.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// --- record payload encoding -----------------------------------------

// opIdentityFlag marks a record encoded with replication identity
// (Origin/OriginSeq/LC) after the op byte. Every writer sets it; a frame
// without it fails the decode, because an identity-less record has no
// canonical position and nothing downstream may admit one.
// opPayloadFlag marks a record carrying an op-specific Payload between
// the identity fields and the key list (saved-query records).
const (
	opIdentityFlag = 0x80
	opPayloadFlag  = 0x40
)

func appendRecord(buf []byte, rec Record) []byte {
	buf = binary.AppendUvarint(buf, rec.Seq)
	opByte := byte(rec.Op) | opIdentityFlag
	if len(rec.Payload) > 0 {
		opByte |= opPayloadFlag
	}
	buf = append(buf, opByte)
	buf = appendString(buf, rec.Origin)
	buf = binary.AppendUvarint(buf, rec.OriginSeq)
	buf = binary.AppendUvarint(buf, rec.LC)
	if len(rec.Payload) > 0 {
		buf = binary.AppendUvarint(buf, uint64(len(rec.Payload)))
		buf = append(buf, rec.Payload...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(rec.Keys)))
	for _, k := range rec.Keys {
		buf = appendString(buf, k.Node)
		buf = appendString(buf, k.Table)
		buf = appendString(buf, k.Column)
	}
	return buf
}

func decodeRecord(payload []byte) (Record, error) {
	var rec Record
	rest := payload
	var err error
	if rec.Seq, rest, err = takeUvarint(rest); err != nil {
		return rec, fmt.Errorf("store: record seq: %w", err)
	}
	if len(rest) == 0 {
		return rec, errors.New("store: record missing op")
	}
	opByte := rest[0]
	rest = rest[1:]
	rec.Op = Op(opByte &^ (opIdentityFlag | opPayloadFlag))
	if !validOp(rec.Op) {
		return rec, fmt.Errorf("store: unknown record op %d", rec.Op)
	}
	if opByte&opIdentityFlag == 0 {
		return rec, errors.New("store: record has no replication identity")
	}
	if rec.Origin, rest, err = takeString(rest); err != nil {
		return rec, fmt.Errorf("store: record origin: %w", err)
	}
	if err := ValidReplicaID(rec.Origin); err != nil {
		return rec, err
	}
	if rec.OriginSeq, rest, err = takeUvarint(rest); err != nil {
		return rec, fmt.Errorf("store: record origin seq: %w", err)
	}
	if rec.LC, rest, err = takeUvarint(rest); err != nil {
		return rec, fmt.Errorf("store: record clock: %w", err)
	}
	if opByte&opPayloadFlag != 0 {
		var body string
		if body, rest, err = takeString(rest); err != nil {
			return rec, fmt.Errorf("store: record payload: %w", err)
		}
		rec.Payload = []byte(body)
	}
	n, rest, err := takeCount(rest, 3)
	if err != nil {
		return rec, fmt.Errorf("store: record key count: %w", err)
	}
	rec.Keys = make([]Key, n)
	for i := range rec.Keys {
		if rec.Keys[i].Node, rest, err = takeString(rest); err != nil {
			return rec, err
		}
		if rec.Keys[i].Table, rest, err = takeString(rest); err != nil {
			return rec, err
		}
		if rec.Keys[i].Column, rest, err = takeString(rest); err != nil {
			return rec, err
		}
	}
	if len(rest) != 0 {
		return rec, errors.New("store: trailing bytes in record")
	}
	return rec, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func takeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errors.New("bad uvarint")
	}
	return v, b[n:], nil
}

// takeCount reads an element count and rejects one that the remaining
// input cannot hold at minSize bytes per element, so no decoder sizes an
// allocation from a count alone.
func takeCount(b []byte, minSize int) (int, []byte, error) {
	n, rest, err := takeUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(rest)/minSize) {
		return 0, nil, fmt.Errorf("count %d exceeds the %d bytes left", n, len(rest))
	}
	return int(n), rest, nil
}

func takeString(b []byte) (string, []byte, error) {
	l, rest, err := takeUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if l > uint64(len(rest)) {
		return "", nil, errors.New("string length exceeds payload")
	}
	return string(rest[:l]), rest[l:], nil
}

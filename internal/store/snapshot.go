package store

// Versioned binary snapshots of the expensive derived state: the inverted
// index, the metadata graph and the feedback map with its epoch. A
// snapshot plus the WAL tail is the system's complete durable state — on
// open, a valid snapshot replaces the cold index/graph rebuild entirely
// ("open the store, replay the tail" instead of "rebuild the world every
// boot").
//
// Layout (little-endian):
//
//	magic    "SODASNP1" (8 bytes)
//	version  u16         — readers accept exactly snapshotVersion
//	fingerprint u64      — structural hash of the world the snapshot
//	                       belongs to; a mismatch (different world, config
//	                       or schema) falls back to a cold rebuild
//	epoch    u64         — ranking epoch of the folded feedback base
//	appliedSeq u64       — highest local WAL sequence assigned at snapshot
//	                       time (keeps sequences from being reused)
//	sections u32
//	per section:
//	  name   u8-len + bytes
//	  length u64
//	  crc32  u32 (IEEE, over the payload)
//	  payload
//
// Every failure mode — missing file, short file, bad magic, unknown
// version, fingerprint mismatch, checksum mismatch, undecodable payload —
// degrades to a cold rebuild; a snapshot can make a boot slow, never
// wrong.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"soda/internal/invidx"
	"soda/internal/metagraph"
)

const (
	snapshotMagic = "SODASNP1"
	// Version 2 added the replication framing: the fold watermark and the
	// per-origin vector ("origins" section). Any other version is a
	// foreign file: the reader rejects it and the caller rebuilds cold.
	snapshotVersion = uint16(2)

	sectionIndex    = "invidx"
	sectionMeta     = "metagraph"
	sectionFeedback = "feedback"
	sectionOrigins  = "origins"
	// sectionQueries holds the folded saved-query library. Additive: a
	// snapshot without it decodes to an empty library (readers that
	// predate it skip the unknown section).
	sectionQueries = "queries"

	// snapshotMaxSection caps a section payload readers will allocate.
	snapshotMaxSection = 1 << 31
)

// FeedbackEntry is one accumulated adjustment in the feedback section.
type FeedbackEntry struct {
	Key   Key
	Value float64
}

// OriginState is one origin's folded replication state: the highest
// OriginSeq and Lamport clock among that origin's records folded into the
// snapshot's feedback base.
type OriginState struct {
	ID  string
	Seq uint64
	LC  uint64
}

// Snapshot is the decoded durable state. Feedback is the *folded base* —
// the fold of every applied record at or below FoldPos in canonical
// order; records above the watermark stay in the WAL and are replayed on
// top at open. For a single replica the watermark is always the last
// record and the base is the full state, exactly as before clustering.
type Snapshot struct {
	Fingerprint uint64
	// Epoch is the ranking epoch of the folded base (the live epoch is
	// the base epoch plus one per replayed WAL record).
	Epoch uint64
	// AppliedSeq is the highest local WAL sequence ever assigned at
	// snapshot time; it keeps sequence numbers from being reused when the
	// compacted log is empty.
	AppliedSeq uint64
	// FoldPos is the canonical fold watermark: WAL records at or below it
	// are already folded into Feedback and are skipped on replay.
	FoldPos Pos
	// Origins is the folded per-origin vector (and Lamport clocks), the
	// starting point the replayed WAL tail extends.
	Origins  []OriginState
	Index    *invidx.Index
	Meta     *metagraph.Graph
	Feedback []FeedbackEntry
	// Queries is the folded saved-query library at FoldPos; set/delete
	// records above the watermark replay on top, like feedback.
	Queries []SavedQuery
}

// encodeSnapshot serialises snap into a byte buffer.
func encodeSnapshot(snap *Snapshot) ([]byte, error) {
	var idxBuf, metaBuf bytes.Buffer
	if err := snap.Index.Encode(&idxBuf); err != nil {
		return nil, fmt.Errorf("store: encode index: %w", err)
	}
	if err := snap.Meta.Encode(&metaBuf); err != nil {
		return nil, fmt.Errorf("store: encode metagraph: %w", err)
	}
	fbBuf := encodeFeedback(snap.Feedback)
	orgBuf := encodeOrigins(snap.FoldPos, snap.Origins)
	qBuf := encodeQueries(snap.Queries)

	var out bytes.Buffer
	out.WriteString(snapshotMagic)
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], snapshotVersion)
	out.Write(u16[:])
	var u64 [8]byte
	for _, v := range []uint64{snap.Fingerprint, snap.Epoch, snap.AppliedSeq} {
		binary.LittleEndian.PutUint64(u64[:], v)
		out.Write(u64[:])
	}
	sections := []struct {
		name    string
		payload []byte
	}{
		{sectionIndex, idxBuf.Bytes()},
		{sectionMeta, metaBuf.Bytes()},
		{sectionFeedback, fbBuf},
		{sectionOrigins, orgBuf},
		{sectionQueries, qBuf},
	}
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(sections)))
	out.Write(u32[:])
	for _, s := range sections {
		out.WriteByte(byte(len(s.name)))
		out.WriteString(s.name)
		binary.LittleEndian.PutUint64(u64[:], uint64(len(s.payload)))
		out.Write(u64[:])
		binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(s.payload))
		out.Write(u32[:])
		out.Write(s.payload)
	}
	return out.Bytes(), nil
}

// decodeSnapshot parses and validates a snapshot file's bytes. wantFP is
// the fingerprint of the world the caller is booting; any validation
// failure returns an error describing why the snapshot is unusable.
func decodeSnapshot(r io.Reader, wantFP uint64) (*Snapshot, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("short header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	var u16 [2]byte
	if _, err := io.ReadFull(br, u16[:]); err != nil {
		return nil, fmt.Errorf("short version: %w", err)
	}
	if v := binary.LittleEndian.Uint16(u16[:]); v != snapshotVersion {
		return nil, fmt.Errorf("format version %d (reader speaks %d)", v, snapshotVersion)
	}
	snap := &Snapshot{}
	var u64 [8]byte
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, u64[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(u64[:]), nil
	}
	var err error
	if snap.Fingerprint, err = readU64(); err != nil {
		return nil, fmt.Errorf("short fingerprint: %w", err)
	}
	if snap.Fingerprint != wantFP {
		return nil, fmt.Errorf("world fingerprint %x does not match %x", snap.Fingerprint, wantFP)
	}
	if snap.Epoch, err = readU64(); err != nil {
		return nil, fmt.Errorf("short epoch: %w", err)
	}
	if snap.AppliedSeq, err = readU64(); err != nil {
		return nil, fmt.Errorf("short appliedSeq: %w", err)
	}
	var u32 [4]byte
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return nil, fmt.Errorf("short section count: %w", err)
	}
	nSections := binary.LittleEndian.Uint32(u32[:])
	if nSections > 64 {
		return nil, fmt.Errorf("section count %d exceeds limit", nSections)
	}
	// Slice out every section's payload first, then verify and decode the
	// sections concurrently: the index and the metadata graph are the two
	// expensive payloads, and decoding them in parallel bounds the warm
	// start by the slower of the two instead of their sum.
	type section struct {
		name    string
		wantSum uint32
		payload []byte
	}
	sections := make([]section, 0, nSections)
	seen := map[string]bool{}
	for i := uint32(0); i < nSections; i++ {
		nameLen, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("section %d name length: %w", i, err)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, fmt.Errorf("section %d name: %w", i, err)
		}
		length, err := readU64()
		if err != nil {
			return nil, fmt.Errorf("section %q length: %w", name, err)
		}
		if length > snapshotMaxSection {
			return nil, fmt.Errorf("section %q length %d exceeds limit", name, length)
		}
		if _, err := io.ReadFull(br, u32[:]); err != nil {
			return nil, fmt.Errorf("section %q crc: %w", name, err)
		}
		wantSum := binary.LittleEndian.Uint32(u32[:])
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, fmt.Errorf("section %q payload: %w", name, err)
		}
		if seen[string(name)] {
			// Duplicates never come from a valid writer, and decoding two
			// copies concurrently would race on the same Snapshot field.
			return nil, fmt.Errorf("duplicate section %q", name)
		}
		seen[string(name)] = true
		sections = append(sections, section{string(name), wantSum, payload})
	}
	for _, name := range []string{sectionIndex, sectionMeta, sectionFeedback, sectionOrigins} {
		if !seen[name] {
			return nil, fmt.Errorf("missing section %q", name)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(sections))
	for i := range sections {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := sections[i]
			if crc32.ChecksumIEEE(s.payload) != s.wantSum {
				errs[i] = fmt.Errorf("section %q checksum mismatch", s.name)
				return
			}
			var err error
			switch s.name {
			case sectionIndex:
				snap.Index, err = invidx.DecodeIndex(s.payload)
			case sectionMeta:
				snap.Meta, err = metagraph.ReadGraph(bytes.NewReader(s.payload))
			case sectionFeedback:
				snap.Feedback, err = decodeFeedback(s.payload)
			case sectionOrigins:
				snap.FoldPos, snap.Origins, err = decodeOrigins(s.payload)
			case sectionQueries:
				snap.Queries, err = decodeQueries(s.payload)
			default:
				// Unknown sections within a known version are skipped:
				// they carry additive data a newer writer included.
			}
			if err != nil {
				errs[i] = fmt.Errorf("section %q: %w", s.name, err)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// encodeFeedback serialises the adjustments sorted by key, so snapshots
// of the same state are byte-identical.
func encodeFeedback(entries []FeedbackEntry) []byte {
	sorted := make([]FeedbackEntry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i].Key, sorted[j].Key
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		return a.Column < b.Column
	})
	buf := binary.AppendUvarint(nil, uint64(len(sorted)))
	for _, e := range sorted {
		buf = appendString(buf, e.Key.Node)
		buf = appendString(buf, e.Key.Table)
		buf = appendString(buf, e.Key.Column)
		var f [8]byte
		binary.LittleEndian.PutUint64(f[:], uint64FromFloat(e.Value))
		buf = append(buf, f[:]...)
	}
	return buf
}

func decodeFeedback(payload []byte) ([]FeedbackEntry, error) {
	n, rest, err := takeUvarint(payload)
	if err != nil {
		return nil, fmt.Errorf("feedback count: %w", err)
	}
	if n > walMaxRecordSize {
		return nil, fmt.Errorf("feedback count %d exceeds limit", n)
	}
	entries := make([]FeedbackEntry, n)
	for i := range entries {
		if entries[i].Key.Node, rest, err = takeString(rest); err != nil {
			return nil, err
		}
		if entries[i].Key.Table, rest, err = takeString(rest); err != nil {
			return nil, err
		}
		if entries[i].Key.Column, rest, err = takeString(rest); err != nil {
			return nil, err
		}
		if len(rest) < 8 {
			return nil, fmt.Errorf("feedback entry %d: short value", i)
		}
		entries[i].Value = floatFromUint64(binary.LittleEndian.Uint64(rest[:8]))
		rest = rest[8:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("trailing bytes in feedback section")
	}
	return entries, nil
}

// encodeOrigins serialises the fold watermark and the folded per-origin
// vector, sorted by origin id for determinism.
func encodeOrigins(fold Pos, origins []OriginState) []byte {
	sorted := make([]OriginState, len(origins))
	copy(sorted, origins)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	buf := binary.AppendUvarint(nil, fold.LC)
	buf = appendString(buf, fold.Origin)
	buf = binary.AppendUvarint(buf, fold.Seq)
	buf = binary.AppendUvarint(buf, uint64(len(sorted)))
	for _, o := range sorted {
		buf = appendString(buf, o.ID)
		buf = binary.AppendUvarint(buf, o.Seq)
		buf = binary.AppendUvarint(buf, o.LC)
	}
	return buf
}

func decodeOrigins(payload []byte) (Pos, []OriginState, error) {
	var fold Pos
	var err error
	rest := payload
	if fold.LC, rest, err = takeUvarint(rest); err != nil {
		return fold, nil, fmt.Errorf("fold watermark lc: %w", err)
	}
	if fold.Origin, rest, err = takeString(rest); err != nil {
		return fold, nil, fmt.Errorf("fold watermark origin: %w", err)
	}
	if fold.Seq, rest, err = takeUvarint(rest); err != nil {
		return fold, nil, fmt.Errorf("fold watermark seq: %w", err)
	}
	n, rest, err := takeUvarint(rest)
	if err != nil {
		return fold, nil, fmt.Errorf("origin count: %w", err)
	}
	if n > walMaxRecordSize {
		return fold, nil, fmt.Errorf("origin count %d exceeds limit", n)
	}
	origins := make([]OriginState, n)
	for i := range origins {
		if origins[i].ID, rest, err = takeString(rest); err != nil {
			return fold, nil, err
		}
		if origins[i].Seq, rest, err = takeUvarint(rest); err != nil {
			return fold, nil, err
		}
		if origins[i].LC, rest, err = takeUvarint(rest); err != nil {
			return fold, nil, err
		}
	}
	if len(rest) != 0 {
		return fold, nil, fmt.Errorf("trailing bytes in origins section")
	}
	return fold, origins, nil
}

// writeSnapshotFile writes the encoded snapshot atomically: temp file,
// fsync, rename, directory fsync.
func writeSnapshotFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

package store

// Versioned binary snapshots of the durable state: the folded feedback
// map, the fold watermark with the per-origin vector, and the saved-query
// library. A snapshot plus the WAL tail is the system's complete durable
// state; the inverted index and the metadata graph are derived from the
// world, which every boot builds, so no snapshot carries them.
//
// Layout (little-endian):
//
//	magic    "SODASNP1" (8 bytes)
//	version  u16         — readers accept exactly snapshotVersion
//	fingerprint u64      — structural hash of the world the snapshot
//	                       belongs to; a mismatch (different world, config
//	                       or schema) boots from empty state
//	reserved u64         — written 0, ignored on read (once a ranking
//	                       epoch; kept so the layout, and version 2,
//	                       stay readable by older and newer builds alike)
//	appliedSeq u64       — highest local WAL sequence assigned at snapshot
//	                       time (keeps sequences from being reused)
//	sections u32
//	per section:
//	  name   u8-len + bytes
//	  length u64
//	  crc32  u32 (IEEE, over the payload)
//	  payload
//
// The writer emits the feedback, origins and queries sections. The reader
// skips a section it does not know after checking its checksum, so a
// snapshot that also carries the "invidx" and "metagraph" sections older
// writers included opens with its durable state intact.
//
// Every failure mode — missing file, short file, bad magic, unknown
// version, fingerprint mismatch, checksum mismatch, undecodable payload —
// leaves the snapshot unused: the boot replays the WAL onto empty state.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

const (
	snapshotMagic = "SODASNP1"
	// Version 2 added the replication framing: the fold watermark and the
	// per-origin vector ("origins" section). Any other version is a
	// foreign file: the reader rejects it.
	snapshotVersion = uint16(2)

	sectionFeedback = "feedback"
	sectionOrigins  = "origins"
	// sectionQueries holds the folded saved-query library. A snapshot
	// without it decodes to an empty library.
	sectionQueries = "queries"
	// sectionTail holds a catch-up state's unfolded records as WAL frames;
	// snapshots never carry it (their tail is the WAL itself).
	sectionTail = "tail"
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

// Snapshot is the decoded durable state: the folded base, stamped with
// the world it belongs to. The base is the fold of every applied record
// at or below FoldPos in canonical order; records above the watermark
// stay in the WAL and are replayed on top at open. For a single replica
// the watermark is always the last record and the base is the full
// state. Tail is unused: a snapshot's tail is the WAL.
type Snapshot struct {
	Fingerprint uint64
	// AppliedSeq is the highest local WAL sequence ever assigned at
	// snapshot time; it keeps sequence numbers from being reused when the
	// compacted log is empty.
	AppliedSeq uint64
	// ReplicaState holds the folded feedback and saved queries, the fold
	// watermark and the per-origin vector the replayed WAL tail extends.
	ReplicaState
}

// encodeSnapshot serialises snap.
func encodeSnapshot(snap *Snapshot) []byte {
	out := []byte(snapshotMagic)
	out = binary.LittleEndian.AppendUint16(out, snapshotVersion)
	for _, v := range []uint64{snap.Fingerprint, 0, snap.AppliedSeq} {
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	out = binary.LittleEndian.AppendUint32(out, 3) // sections
	return appendDurable(out, &snap.ReplicaState)
}

// decodeSnapshot parses and validates a snapshot file's bytes. wantFP is
// the fingerprint of the world the caller is booting; any validation
// failure returns an error describing why the snapshot is unusable.
func decodeSnapshot(data []byte, wantFP uint64) (*Snapshot, error) {
	const headerLen = len(snapshotMagic) + 2 + 3*8 + 4
	if len(data) < headerLen {
		return nil, fmt.Errorf("short header (%d bytes)", len(data))
	}
	if magic := data[:len(snapshotMagic)]; string(magic) != snapshotMagic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	rest := data[len(snapshotMagic):]
	if v := binary.LittleEndian.Uint16(rest); v != snapshotVersion {
		return nil, fmt.Errorf("format version %d (reader speaks %d)", v, snapshotVersion)
	}
	rest = rest[2:]
	snap := &Snapshot{
		Fingerprint: binary.LittleEndian.Uint64(rest[0:]),
		AppliedSeq:  binary.LittleEndian.Uint64(rest[16:]), // rest[8:16] is the reserved slot
	}
	if snap.Fingerprint != wantFP {
		return nil, fmt.Errorf("world fingerprint %x does not match %x", snap.Fingerprint, wantFP)
	}
	nSections := binary.LittleEndian.Uint32(rest[24:])
	seen, err := decodeSections(rest[28:], &snap.ReplicaState)
	if err != nil {
		return nil, err
	}
	if len(seen) != int(nSections) {
		return nil, fmt.Errorf("%d sections, header says %d", len(seen), nSections)
	}
	for _, name := range []string{sectionFeedback, sectionOrigins} {
		if !seen[name] {
			return nil, fmt.Errorf("missing section %q", name)
		}
	}
	return snap, nil
}

// section is one named, checksummed payload: the unit of a snapshot file
// and of a catch-up state (EncodeState).
type section struct {
	name    string
	sum     uint32
	payload []byte
}

// appendSection appends one section: name (u8 length + bytes), payload
// length (u64), IEEE CRC32 of the payload (u32), payload.
func appendSection(buf []byte, name string, payload []byte) []byte {
	buf = append(buf, byte(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// takeSection slices the next section off b. A length the remaining input
// cannot hold is an error, so nothing is sized from it.
func takeSection(b []byte) (section, []byte, error) {
	if len(b) == 0 || len(b) < 1+int(b[0])+12 {
		return section{}, nil, errors.New("truncated section header")
	}
	nameLen := int(b[0])
	s := section{name: string(b[1 : 1+nameLen])}
	b = b[1+nameLen:]
	length := binary.LittleEndian.Uint64(b)
	s.sum = binary.LittleEndian.Uint32(b[8:])
	b = b[12:]
	if length > uint64(len(b)) {
		return section{}, nil, fmt.Errorf("section %q length %d exceeds the %d bytes left", s.name, length, len(b))
	}
	s.payload = b[:length]
	return s, b[length:], nil
}

// appendDurable appends the folded state's three sections: feedback,
// origins (with the fold watermark) and queries.
func appendDurable(buf []byte, st *ReplicaState) []byte {
	buf = appendSection(buf, sectionFeedback, encodeFeedback(st.Feedback))
	buf = appendSection(buf, sectionOrigins, encodeOrigins(st.FoldPos, st.Origins))
	return appendSection(buf, sectionQueries, encodeQueries(st.Queries))
}

// decodeSections decodes the sections b consists of into st and returns
// their names. Each must pass its checksum and decoder, none may appear
// twice, and nothing may follow the last. A section other than the
// durable three and the tail is skipped after its checksum.
func decodeSections(b []byte, st *ReplicaState) (map[string]bool, error) {
	seen := map[string]bool{}
	for len(b) > 0 {
		s, rest, err := takeSection(b)
		if err != nil {
			return nil, err
		}
		b = rest
		if seen[s.name] {
			return nil, fmt.Errorf("duplicate section %q", s.name)
		}
		seen[s.name] = true
		if crc32.ChecksumIEEE(s.payload) != s.sum {
			return nil, fmt.Errorf("section %q checksum mismatch", s.name)
		}
		switch s.name {
		case sectionFeedback:
			st.Feedback, err = decodeFeedback(s.payload)
		case sectionOrigins:
			st.FoldPos, st.Origins, err = decodeOrigins(s.payload)
		case sectionQueries:
			st.Queries, err = decodeQueries(s.payload)
		case sectionTail:
			st.Tail, err = DecodeRecords(s.payload)
		}
		if err != nil {
			return nil, fmt.Errorf("section %q: %w", s.name, err)
		}
	}
	return seen, nil
}

// EncodeState encodes a catch-up state as snapshot sections: the folded
// feedback, origins (with the fold watermark) and queries, plus a "tail"
// section holding the unfolded records as WAL frames.
func EncodeState(st *ReplicaState) []byte {
	return appendSection(appendDurable(nil, st), sectionTail, EncodeRecords(st.Tail))
}

// DecodeState decodes EncodeState's output received from a peer. Every
// section must be present exactly once and pass its checksum and decoder,
// no other section may appear, and nothing may follow the last one.
func DecodeState(b []byte) (*ReplicaState, error) {
	st := &ReplicaState{}
	seen, err := decodeSections(b, st)
	if err != nil {
		return nil, fmt.Errorf("store: state: %w", err)
	}
	want := []string{sectionFeedback, sectionOrigins, sectionQueries, sectionTail}
	for _, name := range want {
		if !seen[name] {
			return nil, fmt.Errorf("store: state: missing section %q", name)
		}
	}
	if len(seen) != len(want) {
		return nil, fmt.Errorf("store: state: %d sections, want %d", len(seen), len(want))
	}
	return st, nil
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
	n, rest, err := takeCount(payload, 3+8)
	if err != nil {
		return nil, fmt.Errorf("feedback count: %w", err)
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
	n, rest, err := takeCount(rest, 3)
	if err != nil {
		return fold, nil, fmt.Errorf("origin count: %w", err)
	}
	origins := make([]OriginState, n)
	for i := range origins {
		if origins[i].ID, rest, err = takeString(rest); err != nil {
			return fold, nil, err
		}
		if err := ValidReplicaID(origins[i].ID); err != nil {
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

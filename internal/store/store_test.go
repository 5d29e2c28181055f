package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

const testFP = uint64(0xDEADBEEFCAFE)

// rec builds a locally-identified record the way a single replica would:
// OriginSeq and LC advance together.
func rec(op Op, n uint64, keys ...Key) Record {
	return Record{Origin: "r1", OriginSeq: n, LC: n, Op: op, Keys: keys}
}

func testSnapshot(appliedSeq uint64) *Snapshot {
	return &Snapshot{
		Fingerprint: testFP,
		AppliedSeq:  appliedSeq,
		ReplicaState: ReplicaState{
			FoldPos: Pos{LC: appliedSeq, Origin: "r1", Seq: appliedSeq},
			Origins: []OriginState{{ID: "r1", Seq: appliedSeq, LC: appliedSeq}},
			Feedback: []FeedbackEntry{
				{Key: Key{Node: "ont:customer"}, Value: 0.5},
				{Key: Key{Table: "addresses", Column: "city"}, Value: -0.25},
			},
		},
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestWALAppendAndReplay(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	keys := []Key{{Node: "ont:customer"}, {Table: "parties", Column: "name"}}
	r1, err := st.Append(rec(OpLike, 1, keys...))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := st.Append(rec(OpDislike, 2, keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	r3, err := st.Append(rec(OpReset, 3))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Seq != 1 || r2.Seq != 2 || r3.Seq != 3 {
		t.Fatalf("seqs = %d,%d,%d want 1,2,3", r1.Seq, r2.Seq, r3.Seq)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, dir)
	got := st2.Replayed()
	want := []Record{
		{Seq: 1, Origin: "r1", OriginSeq: 1, LC: 1, Op: OpLike, Keys: keys},
		{Seq: 2, Origin: "r1", OriginSeq: 2, LC: 2, Op: OpDislike, Keys: keys[:1]},
		{Seq: 3, Origin: "r1", OriginSeq: 3, LC: 3, Op: OpReset, Keys: []Key{}},
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g := got[i]
		g.Keys = append([]Key{}, g.Keys...)
		if !reflect.DeepEqual(g, want[i]) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// New appends continue the local sequence.
	r4, err := st2.Append(rec(OpLike, 4))
	if err != nil {
		t.Fatal(err)
	}
	if r4.Seq != 4 {
		t.Fatalf("seq after reopen = %d, want 4", r4.Seq)
	}
}

func TestWALPreservesRemoteIdentity(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	remote := Record{Origin: "r9", OriginSeq: 7, LC: 42, Op: OpLike, Keys: []Key{{Node: "x"}}}
	stored, err := st.Append(remote)
	if err != nil {
		t.Fatal(err)
	}
	if stored.Seq != 1 {
		t.Fatalf("local seq = %d, want 1", stored.Seq)
	}
	st.Close()

	st2 := mustOpen(t, dir)
	got := st2.Replayed()
	if len(got) != 1 {
		t.Fatalf("replayed %d records, want 1", len(got))
	}
	if got[0].Origin != "r9" || got[0].OriginSeq != 7 || got[0].LC != 42 {
		t.Fatalf("remote identity lost: %+v", got[0])
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	if _, err := st.Append(rec(OpLike, 1, Key{Node: "a"})); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(rec(OpDislike, 2, Key{Node: "b"})); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walFileName)
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	goodSize := info.Size()
	// Simulate a crash mid-append: a partial frame at the tail.
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xAB}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2 := mustOpen(t, dir)
	if n := len(st2.Replayed()); n != 2 {
		t.Fatalf("replayed %d records after torn tail, want 2", n)
	}
	info, err = os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != goodSize {
		t.Fatalf("torn tail not truncated: size %d, want %d", info.Size(), goodSize)
	}
}

func TestWALCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	for i := uint64(1); i <= 3; i++ {
		if _, err := st.Append(rec(OpLike, i, Key{Node: "a"})); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walFileName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the second record; the first survives, the
	// corrupt one and everything after it are dropped.
	recLen := len(data) / 3
	data[recLen+10] ^= 0xFF
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpen(t, dir)
	if n := len(st2.Replayed()); n != 1 {
		t.Fatalf("replayed %d records past corruption, want 1", n)
	}
}

// TestWALRejectsIdentitylessRecord hand-builds CRC-valid frames whose
// record has no usable identity: an op byte without opIdentityFlag, and
// an origin that is not a valid replica id. Nothing downstream may admit
// such a record, so the decode fails and the scan treats the frame like
// any other undecodable one: replay stops before it and the tail is
// truncated away. DecodeRecords, which reads pulled records, rejects the
// same frames.
func TestWALRejectsIdentitylessRecord(t *testing.T) {
	noFlag := binary.AppendUvarint(nil, 2) // seq
	noFlag = append(noFlag, byte(OpLike))  // no opIdentityFlag
	noFlag = binary.AppendUvarint(noFlag, 1)
	for _, field := range []string{"b", "", ""} { // one key: node, table, column
		noFlag = appendString(noFlag, field)
	}
	badOrigin := appendRecord(nil, Record{Seq: 2, Origin: "bad id", OriginSeq: 1, LC: 2, Op: OpLike, Keys: []Key{{Node: "b"}}})

	for name, payload := range map[string][]byte{"no identity": noFlag, "bad origin": badOrigin} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st := mustOpen(t, dir)
			if _, err := st.Append(rec(OpLike, 1, Key{Node: "a"})); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			walPath := filepath.Join(dir, walFileName)
			good, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}

			if _, err := decodeRecord(payload); err == nil {
				t.Fatal("decodeRecord accepted a record without a usable identity")
			}
			frame := make([]byte, 8+len(payload))
			binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
			copy(frame[8:], payload)
			if _, err := DecodeRecords(frame); err == nil {
				t.Fatal("DecodeRecords accepted a record without a usable identity")
			}
			if err := os.WriteFile(walPath, append(good, frame...), 0o644); err != nil {
				t.Fatal(err)
			}

			st2 := mustOpen(t, dir)
			got := st2.Replayed()
			if len(got) != 1 || got[0].Origin != "r1" {
				t.Fatalf("replayed %+v, want only the identified record", got)
			}
			if info, err := os.Stat(walPath); err != nil || info.Size() != int64(len(good)) {
				t.Fatalf("unidentified frame not truncated away: %v, %v", info, err)
			}
		})
	}
}

// TestDecodersBoundCountsByInput feeds every count-prefixed decoder a few
// bytes that claim 16M elements. Each must fail before it allocates for
// the claim.
func TestDecodersBoundCountsByInput(t *testing.T) {
	const huge = 1 << 24
	count := func(prefix []byte) []byte { return binary.AppendUvarint(prefix, huge) }
	record := binary.AppendUvarint(nil, 1)
	record = append(record, byte(OpLike)|opIdentityFlag)
	record = appendString(record, "r1")
	record = binary.AppendUvarint(binary.AppendUvarint(record, 1), 1)
	origins := binary.AppendUvarint(appendString(binary.AppendUvarint(nil, 1), "r1"), 1)
	query := appendString(appendString(appendString(nil, "q"), ""), "SELECT ?")
	section := binary.LittleEndian.AppendUint64(append([]byte{4}, "tail"...), 1<<31)
	section = binary.LittleEndian.AppendUint32(section, 0)

	decoders := map[string]func() error{
		"decodeRecord":     func() error { _, err := decodeRecord(count(record)); return err },
		"decodeFeedback":   func() error { _, err := decodeFeedback(count(nil)); return err },
		"decodeOrigins":    func() error { _, _, err := decodeOrigins(count(origins)); return err },
		"decodeQueries":    func() error { _, err := decodeQueries(count(nil)); return err },
		"DecodeSavedQuery": func() error { _, err := DecodeSavedQuery(count(query)); return err },
		"DecodeState":      func() error { _, err := DecodeState(section); return err },
	}
	for name, decode := range decoders {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s accepted a count its input cannot hold", name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s allocated %d bytes before failing", name, alloc)
		}
	}
}

func TestWriteSnapshotMonotonicityGuard(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	for i := uint64(1); i <= 4; i++ {
		if _, err := st.Append(rec(OpLike, i, Key{Node: "a"})); err != nil {
			t.Fatal(err)
		}
	}
	stale := testSnapshot(2) // captured first: folds events 1-2
	newer := testSnapshot(4) // captured later: folds events 1-4
	if err := st.WriteSnapshot(newer); err != nil {
		t.Fatal(err)
	}
	if st.WALRecords() != 0 {
		t.Fatalf("wal records after newer snapshot = %d, want 0", st.WALRecords())
	}
	// The racing stale write must be a no-op: the snapshot stays at
	// applied sequence 4.
	if err := st.WriteSnapshot(stale); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().SnapshotSeq; got != 4 {
		t.Fatalf("stale snapshot overwrote a newer one: applied seq %d, want 4", got)
	}
	st.Close()

	// The guard also seeds from a loaded snapshot.
	st2 := mustOpen(t, dir)
	if _, err := st2.LoadSnapshot(testFP); err != nil {
		t.Fatal(err)
	}
	if err := st2.WriteSnapshot(stale); err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats().SnapshotSeq; got != 4 {
		t.Fatalf("stale snapshot overwrote after reopen: applied seq %d, want 4", got)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	want := testSnapshot(42)
	if err := st.WriteSnapshot(want); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, dir)
	got, err := st2.LoadSnapshot(testFP)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatalf("snapshot did not load: %+v", st2.Stats())
	}
	if got.AppliedSeq != 42 || st2.Stats().SnapshotSeq != 42 {
		t.Fatalf("applied seq = %d (stats %d), want 42", got.AppliedSeq, st2.Stats().SnapshotSeq)
	}
	if got.FoldPos != want.FoldPos {
		t.Fatalf("fold watermark = %+v, want %+v", got.FoldPos, want.FoldPos)
	}
	if !reflect.DeepEqual(got.Origins, want.Origins) {
		t.Fatalf("origins = %+v, want %+v", got.Origins, want.Origins)
	}
	// The encoder sorts entries by key for determinism; compare as sets.
	asMap := func(entries []FeedbackEntry) map[Key]float64 {
		m := make(map[Key]float64, len(entries))
		for _, e := range entries {
			m[e.Key] = e.Value
		}
		return m
	}
	if !reflect.DeepEqual(asMap(got.Feedback), asMap(want.Feedback)) {
		t.Fatalf("feedback = %+v, want %+v", got.Feedback, want.Feedback)
	}
	// Seq numbers continue past the snapshot even though the WAL is empty.
	r, err := st2.Append(rec(OpLike, 43))
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq != 43 {
		t.Fatalf("first seq after snapshot = %d, want 43", r.Seq)
	}
}

// parentSnapshot lays out a version-2 snapshot as writers that also kept
// the derived state did: the header, with a ranking epoch in the reserved
// slot, then five sections, the "invidx" and "metagraph" ones first.
// Their payloads here are arbitrary bytes.
func parentSnapshot(snap *Snapshot, epoch uint64) []byte {
	out := []byte(snapshotMagic)
	out = binary.LittleEndian.AppendUint16(out, 2)
	for _, v := range []uint64{snap.Fingerprint, epoch, snap.AppliedSeq} {
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	out = binary.LittleEndian.AppendUint32(out, 5)
	out = appendSection(out, "invidx", bytes.Repeat([]byte{0xAB, 0x00, 0x7F}, 1000))
	out = appendSection(out, "metagraph", []byte("not a graph encoding"))
	return appendDurable(out, &snap.ReplicaState)
}

// TestSnapshotUpgradeKeepsDurableState opens a data directory whose
// snapshot still carries the derived-state sections: the reader skips
// them, ignores the epoch in the reserved header slot, and restores
// feedback, saved queries, fold position, origins and the applied
// sequence.
func TestSnapshotUpgradeKeepsDurableState(t *testing.T) {
	dir := t.TempDir()
	def := "100000"
	want := testSnapshot(23)
	want.Origins = append(want.Origins, OriginState{ID: "r2", Seq: 4, LC: 19})
	want.Queries = []SavedQuery{{Name: "big earners", SQL: "SELECT * FROM individuals WHERE salary >= ?",
		Params: []SavedParam{{Name: "min salary", Type: "float", Default: &def}}}}
	if err := os.WriteFile(filepath.Join(dir, snapshotFileName), parentSnapshot(want, 11), 0o644); err != nil {
		t.Fatal(err)
	}
	st := mustOpen(t, dir)
	defer st.Close()
	got, err := st.LoadSnapshot(testFP)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatalf("snapshot did not load: %s", st.Stats().InvalidReason)
	}
	if got.AppliedSeq != 23 || got.FoldPos != want.FoldPos {
		t.Fatalf("applied seq %d, fold %+v; want 23, %+v", got.AppliedSeq, got.FoldPos, want.FoldPos)
	}
	if !reflect.DeepEqual(got.Origins, want.Origins) {
		t.Fatalf("origins = %+v, want %+v", got.Origins, want.Origins)
	}
	if !reflect.DeepEqual(got.Queries, want.Queries) {
		t.Fatalf("queries = %+v, want %+v", got.Queries, want.Queries)
	}
	// The encoder sorts feedback by key: node "ont:customer" sorts after
	// the column entry's empty node.
	if wantFB := []FeedbackEntry{want.Feedback[1], want.Feedback[0]}; !reflect.DeepEqual(got.Feedback, wantFB) {
		t.Fatalf("feedback = %+v, want %+v", got.Feedback, wantFB)
	}
	if r, err := st.Append(rec(OpLike, 24)); err != nil || r.Seq != 24 {
		t.Fatalf("first seq after the snapshot = %d (%v), want 24", r.Seq, err)
	}
}

// TestSnapshotHoldsOnlyDurableSections reads back the section names of a
// written snapshot.
func TestSnapshotHoldsOnlyDurableSections(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	if err := st.WriteSnapshot(testSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	data, err := os.ReadFile(filepath.Join(dir, snapshotFileName))
	if err != nil {
		t.Fatal(err)
	}
	const headerLen = len(snapshotMagic) + 2 + 3*8 + 4
	if n := binary.LittleEndian.Uint32(data[headerLen-4:]); n != 3 {
		t.Fatalf("header counts %d sections, want 3", n)
	}
	var names []string
	for rest := data[headerLen:]; len(rest) > 0; {
		var s section
		if s, rest, err = takeSection(rest); err != nil {
			t.Fatal(err)
		}
		names = append(names, s.name)
	}
	if want := []string{"feedback", "origins", "queries"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("sections %v, want %v", names, want)
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	if err := st.WriteSnapshot(testSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	path := filepath.Join(dir, snapshotFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpen(t, dir)
	snap, err := st2.LoadSnapshot(testFP)
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatal("corrupt snapshot must not load")
	}
	if st2.Stats().InvalidReason == "" {
		t.Fatal("invalid reason missing from stats")
	}
}

func TestSnapshotRejectsWrongFingerprintAndVersion(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	if err := st.WriteSnapshot(testSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := mustOpen(t, dir)
	if snap, _ := st2.LoadSnapshot(testFP + 1); snap != nil {
		t.Fatal("snapshot for another world must not load")
	}
	st2.Close()

	// Change the on-disk format version: readers speak exactly one version,
	// so a future file and a pre-cluster v1 file alike rebuild cold.
	path := filepath.Join(dir, snapshotFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint16{snapshotVersion + 1, 1} {
		binary.LittleEndian.PutUint16(data[len(snapshotMagic):], v)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st3 := mustOpen(t, dir)
		if snap, _ := st3.LoadSnapshot(testFP); snap != nil {
			t.Fatalf("snapshot with format version %d must not load", v)
		}
		if reason := st3.Stats().InvalidReason; !strings.Contains(reason, "format version") {
			t.Fatalf("version %d: invalid reason = %q", v, reason)
		}
		st3.Close()
	}
}

func TestWriteSnapshotCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	for i := uint64(1); i <= 5; i++ {
		if _, err := st.Append(rec(OpLike, i, Key{Node: "a"})); err != nil {
			t.Fatal(err)
		}
	}
	if st.WALRecords() != 5 {
		t.Fatalf("wal records = %d, want 5", st.WALRecords())
	}
	if err := st.WriteSnapshot(testSnapshot(5)); err != nil {
		t.Fatal(err)
	}
	if st.WALRecords() != 0 {
		t.Fatalf("wal records after compaction = %d, want 0", st.WALRecords())
	}
	// Records appended after the snapshot survive a reopen and carry
	// fresh sequence numbers.
	r6, err := st.Append(rec(OpDislike, 6, Key{Node: "b"}))
	if err != nil {
		t.Fatal(err)
	}
	if r6.Seq != 6 {
		t.Fatalf("post-compaction seq = %d, want 6", r6.Seq)
	}
	st.Close()

	st2 := mustOpen(t, dir)
	if n := len(st2.Replayed()); n != 1 {
		t.Fatalf("replayed %d records after compaction, want 1", n)
	}
	if st2.Replayed()[0].Seq != 6 {
		t.Fatalf("surviving record seq = %d, want 6", st2.Replayed()[0].Seq)
	}
}

// TestCompactionRetainsUnfoldedRemoteRecords is the compaction-safe
// retention contract: records not covered by the snapshot's folded
// vector survive compaction even when their local WAL sequence is
// *smaller* than that of a folded record (replication delivers records
// in network order, not canonical order).
func TestCompactionRetainsUnfoldedRemoteRecords(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	// Local seq 1: a high-position remote record. Local seq 2: a
	// low-position one. Fold only the low one.
	high := Record{Origin: "r2", OriginSeq: 9, LC: 30, Op: OpLike, Keys: []Key{{Node: "hi"}}}
	low := Record{Origin: "r3", OriginSeq: 1, LC: 5, Op: OpLike, Keys: []Key{{Node: "lo"}}}
	if _, err := st.Append(high); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(low); err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot(2)
	snap.FoldPos = Pos{LC: 5, Origin: "r3", Seq: 1}         // folds `low` only
	snap.Origins = []OriginState{{ID: "r3", Seq: 1, LC: 5}} // vector covers r3:1, not r2:9
	if err := st.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if st.WALRecords() != 1 {
		t.Fatalf("wal records after partial fold = %d, want 1", st.WALRecords())
	}
	st.Close()

	st2 := mustOpen(t, dir)
	got := st2.Replayed()
	if len(got) != 1 || got[0].Origin != "r2" || got[0].OriginSeq != 9 {
		t.Fatalf("retained records = %+v, want the unfolded r2 record", got)
	}
}

func TestReplicaIDPersistsAndValidates(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	id, err := st.ReplicaID("")
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("generated replica id is empty")
	}
	again, err := st.ReplicaID("")
	if err != nil || again != id {
		t.Fatalf("replica id not stable: %q then %q (%v)", id, again, err)
	}
	// The directory is bound to its identity: a different preferred id
	// must be refused, the same one accepted.
	if _, err := st.ReplicaID("other"); err == nil {
		t.Fatal("conflicting replica id accepted")
	}
	if got, err := st.ReplicaID(id); err != nil || got != id {
		t.Fatalf("matching preferred id rejected: %q, %v", got, err)
	}
	st.Close()

	dir2 := t.TempDir()
	st2 := mustOpen(t, dir2)
	if _, err := st2.ReplicaID("has space"); err == nil {
		t.Fatal("invalid replica id accepted")
	}
	if got, err := st2.ReplicaID("replica-7.eu"); err != nil || got != "replica-7.eu" {
		t.Fatalf("preferred id = %q, %v", got, err)
	}
}

func TestSnapshotEncodingDeterministic(t *testing.T) {
	if !bytes.Equal(encodeSnapshot(testSnapshot(9)), encodeSnapshot(testSnapshot(9))) {
		t.Fatal("snapshot encoding is not deterministic")
	}
}

func TestPosOrdering(t *testing.T) {
	ordered := []Pos{
		{},
		{LC: 1, Origin: "a", Seq: 1},
		{LC: 1, Origin: "b", Seq: 1},
		{LC: 2, Origin: "a", Seq: 2},
		{LC: 2, Origin: "a", Seq: 3},
		{LC: 3, Origin: "a", Seq: 4},
	}
	for i := range ordered {
		for j := range ordered {
			if got := ordered[i].Before(ordered[j]); got != (i < j) {
				t.Fatalf("Before(%+v, %+v) = %v, want %v", ordered[i], ordered[j], got, i < j)
			}
		}
	}
	if !(Pos{}).IsZero() || (Pos{LC: 1}).IsZero() {
		t.Fatal("IsZero misclassifies")
	}
}

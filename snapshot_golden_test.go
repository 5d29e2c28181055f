package soda

// Snapshot-byte golden: the bytes a snapshot stores for each world's
// derived state — the metadata graph's binary encoding, the inverted
// index's encoding — and the world fingerprint that guards a snapshot
// against a different world must hash to the digests in
// testdata/snapshot_digests.golden. A change to how either structure is
// built (its bake, its triple store) must leave all three unchanged.
// Regenerate (only when the encoding or a world is meant to change) with
//
//	go test -run TestSnapshotBytesGolden -update

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soda/internal/rdf"
)

// encodingDigest is the first 16 hex digits of the sha256 of what encode
// writes, and its length in bytes.
func encodingDigest(t *testing.T, encode func(*bytes.Buffer) error) string {
	t.Helper()
	var b bytes.Buffer
	if err := encode(&b); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b.Bytes())
	return fmt.Sprintf("%s %d", hex.EncodeToString(sum[:8]), b.Len())
}

func TestSnapshotBytesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the warehouse world")
	}
	var got []string
	for _, w := range []*World{MiniBank(), Warehouse(WarehouseConfig{})} {
		meta := encodingDigest(t, func(b *bytes.Buffer) error { return w.Meta().Encode(b) })
		index := encodingDigest(t, func(b *bytes.Buffer) error { return w.Index().Encode(b) })
		got = append(got,
			fmt.Sprintf("%s meta %s", w.Name(), meta),
			fmt.Sprintf("%s index %s", w.Name(), index),
			fmt.Sprintf("%s fingerprint %016x", w.Name(), worldFingerprint(w)))
	}
	text := strings.Join(got, "\n") + "\n"

	path := filepath.Join("testdata", "snapshot_digests.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if text != string(want) {
		t.Fatalf("snapshot bytes changed:\ngot\n%swant\n%s", text, want)
	}
}

// TestGraphIDsGolden pins what the snapshot bytes do not show of how the
// metadata graph was built: the dictionary's ID order and the node order,
// both of which Warm's ID-indexed tables follow. Regenerate with
//
//	go test -run TestGraphIDsGolden -update
func TestGraphIDsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the warehouse world")
	}
	var got []string
	for _, w := range []*World{MiniBank(), Warehouse(WarehouseConfig{})} {
		g := w.Meta().G
		d := g.Dict()
		terms := sha256.New()
		for id := rdf.ID(1); int(id) <= d.Len(); id++ {
			fmt.Fprintf(terms, "%s\x1f", d.Term(id))
		}
		nodes := sha256.New()
		for _, id := range g.NodeIDs() {
			fmt.Fprintf(nodes, "%d\x1f", id)
		}
		got = append(got,
			fmt.Sprintf("%s dict %x %d", w.Name(), terms.Sum(nil)[:8], d.Len()),
			fmt.Sprintf("%s nodes %x %d", w.Name(), nodes.Sum(nil)[:8], len(g.NodeIDs())))
	}
	text := strings.Join(got, "\n") + "\n"

	path := filepath.Join("testdata", "graph_ids.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if text != string(want) {
		t.Fatalf("graph IDs changed:\ngot\n%swant\n%s", text, want)
	}
}

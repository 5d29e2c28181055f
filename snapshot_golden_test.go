package soda

// Snapshot-byte golden: the metadata graph and the inverted index every
// boot builds, and the world fingerprint that guards a snapshot against
// a different world, must hash to the digests in
// testdata/snapshot_digests.golden. The graph is hashed as its N-Triples
// export, in insertion order; the index as a dump through its read API,
// every term in sorted order with its Hits. A change to how either
// structure is built (its bake, its triple store) must leave all three
// unchanged. Regenerate (only when a world is meant to change) with
//
//	go test -run TestSnapshotBytesGolden -update

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soda/internal/invidx"
	"soda/internal/rdf"
)

// digest is the first 16 hex digits of the sha256 of what write writes,
// and its length in bytes.
func digest(t *testing.T, write func(io.Writer) error) string {
	t.Helper()
	var b bytes.Buffer
	if err := write(&b); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b.Bytes())
	return fmt.Sprintf("%s %d", hex.EncodeToString(sum[:8]), b.Len())
}

// dumpIndex writes every term of x, sorted, with the column hits Hits
// reports for it: table, column and values, in the order Hits gives them.
func dumpIndex(w io.Writer, x *invidx.Index) error {
	for _, term := range x.Terms() {
		if _, err := fmt.Fprintf(w, "%s\n", term); err != nil {
			return err
		}
		for _, h := range x.Hits(term) {
			if _, err := fmt.Fprintf(w, "\t%s.%s\x1f%s\n", h.Table, h.Column, strings.Join(h.Values, "\x1f")); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestSnapshotBytesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the warehouse world")
	}
	var got []string
	for _, w := range []*World{MiniBank(), Warehouse(WarehouseConfig{})} {
		meta := digest(t, func(b io.Writer) error { return rdf.WriteNTriples(b, w.Meta().G) })
		index := digest(t, func(b io.Writer) error { return dumpIndex(b, w.Index()) })
		got = append(got,
			fmt.Sprintf("%s ntriples %s", w.Name(), meta),
			fmt.Sprintf("%s hits %s", w.Name(), index),
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
		t.Fatalf("graph, index or fingerprint changed:\ngot\n%swant\n%s", text, want)
	}
}

// TestGraphIDsGolden pins what the N-Triples digest does not show of how
// the metadata graph was built: the dictionary's ID order and the node order,
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

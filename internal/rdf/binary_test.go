package rdf

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func buildBinaryTestGraph() *Graph {
	g := NewGraph()
	g.Add(NewIRI("tbl:parties"), NewIRI("type"), NewIRI("PhysicalTable"))
	g.Add(NewIRI("tbl:parties"), NewIRI("label"), NewText("parties"))
	g.Add(NewIRI("tbl:parties"), NewIRI("label"), NewText("Zürich & \"quotes\"\nnewline"))
	g.Add(NewIRI("col:parties.id"), NewIRI("type"), NewIRI("PhysicalColumn"))
	g.Add(NewIRI("tbl:parties"), NewIRI("column"), NewIRI("col:parties.id"))
	g.Add(NewIRI("ont:customer"), NewIRI("classifies"), NewIRI("tbl:parties"))
	g.Add(NewIRI("ont:customer"), NewIRI("label"), NewText(""))
	return g
}

func TestBinaryRoundTripPreservesOrder(t *testing.T) {
	g := buildBinaryTestGraph()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := slices.Collect(g.All()), slices.Collect(g2.All())
	if len(a) != len(b) {
		t.Fatalf("triple count %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("triple %d: %v != %v (insertion order must survive)", i, a[i], b[i])
		}
	}
	// Re-encoding the decoded graph is byte-identical: the encoding is a
	// pure function of insertion order.
	var buf2 bytes.Buffer
	if err := WriteBinary(&buf2, g2); err != nil {
		t.Fatal(err)
	}
	var buf1 bytes.Buffer
	if err := WriteBinary(&buf1, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("re-encoded graph differs from original encoding")
	}
}

func TestBinaryRejectsCorruptInput(t *testing.T) {
	g := buildBinaryTestGraph()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Truncations at every prefix length must error, never panic.
	for cut := 0; cut < len(full); cut += 3 {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	// A wild term index must be rejected.
	if _, err := ReadBinary(strings.NewReader("\xff\xff\xff\xff\xff\xff\xff\xff\x7f")); err == nil {
		t.Fatal("oversized term count decoded without error")
	}
}

// BenchmarkReadBinary measures the snapshot-decode hot path on a graph
// large enough (≈60k triples) for the bulk-construction strategy to
// matter; BenchmarkWarmStart at the repo root measures the end-to-end
// boot this feeds.
func BenchmarkReadBinary(b *testing.B) {
	g := NewGraph()
	for i := 0; i < 10000; i++ {
		tbl := NewIRI(fmt.Sprintf("tbl:t%d", i%400))
		col := NewIRI(fmt.Sprintf("col:t%d.c%d", i%400, i%13))
		g.Add(tbl, NewIRI("column"), col)
		g.Add(col, NewIRI("type"), NewIRI("PhysicalColumn"))
		g.Add(col, NewIRI("label"), NewText(fmt.Sprintf("column %d", i)))
		g.Add(tbl, NewIRI("label"), NewText(fmt.Sprintf("table %d", i%400)))
		g.Add(NewIRI(fmt.Sprintf("ont:term%d", i%900)), NewIRI("classifies"), tbl)
		g.Add(NewIRI(fmt.Sprintf("ont:term%d", i%900)), NewIRI("label"), NewText(fmt.Sprintf("term %d", i%900)))
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// A header that claims far more terms or triples than the input holds is
// rejected before it sizes an allocation: a crafted snapshot must make a
// boot slow, never crash it.
func TestBinaryOversizedCountsAllocateLittle(t *testing.T) {
	cases := map[string][]byte{
		// No terms, then 2^26 triples, padded to 8 bytes.
		"triples": {0x00, 0x80, 0x80, 0x80, 0x20, 0, 0, 0},
		// 2^26 terms.
		"terms": {0x80, 0x80, 0x80, 0x20, 0, 0, 0, 0},
		// One IRI term whose value claims 2^26 bytes.
		"term length": {0x01, 0x00, 0x80, 0x80, 0x80, 0x20, 0, 0},
	}
	for name, in := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: allocated %d bytes before failing, want under 1 MB", name, got)
		}
	}
}

func TestBinaryRoundTripPreservesNodeOrder(t *testing.T) {
	g := buildBinaryTestGraph()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	// A reader without Len takes the read-fully path.
	g2, err := ReadBinary(struct{ io.Reader }{&buf})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Nodes(), g2.Nodes()) {
		t.Fatalf("Nodes after decode = %v, want %v", g2.Nodes(), g.Nodes())
	}
}

// FuzzReadBinary: no input panics the decoder, and whatever it accepts
// re-encodes to a fixpoint — encode(decode(encode(decode(x)))) equals
// encode(decode(x)) byte for byte.
func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteBinary(&seed, buildBinaryTestGraph()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{0x00, 0x80, 0x80, 0x80, 0x20, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var e1, e2 bytes.Buffer
		if err := WriteBinary(&e1, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadBinary(bytes.NewReader(e1.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of an encoded graph failed: %v", err)
		}
		if err := WriteBinary(&e2, g2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e1.Bytes(), e2.Bytes()) {
			t.Fatal("encode→decode→encode is not byte-identical")
		}
	})
}

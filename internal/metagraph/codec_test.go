package metagraph

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadGraph feeds arbitrary bytes to the snapshot decoder of the
// metadata graph: it must never panic, and a graph it accepts must
// re-encode to a fixpoint (encode → decode → encode is byte-identical)
// with the same label index after the round trip.
func FuzzReadGraph(f *testing.F) {
	b, _ := buildSample()
	var seed bytes.Buffer
	if err := b.Graph().Encode(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadGraph(bytes.NewReader(data))
		if err != nil {
			return
		}
		var e1, e2 bytes.Buffer
		if err := g.Encode(&e1); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadGraph(bytes.NewReader(e1.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of an encoded graph failed: %v", err)
		}
		if err := g2.Encode(&e2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e1.Bytes(), e2.Bytes()) {
			t.Fatal("encode→decode→encode is not byte-identical")
		}
		if !reflect.DeepEqual(g.labelIndex, g2.labelIndex) {
			t.Fatal("label index changed across a round trip")
		}
	})
}

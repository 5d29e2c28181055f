package metagraph

// Snapshot serialisation of the metadata graph. The triple store carries
// all durable state; the label (classification) index is derived and is
// rebuilt on load, in an order provably identical to the one the
// builder's incremental label calls produced — lookup results, and therefore rankings, are
// byte-identical across a snapshot round trip.

import (
	"io"

	"soda/internal/invidx"
	"soda/internal/rdf"
)

// Encode serialises the graph's triples in insertion order using the rdf
// binary encoding.
func (g *Graph) Encode(w io.Writer) error {
	return rdf.WriteBinary(w, g.G)
}

// ReadGraph decodes a graph written by Encode and rebuilds the label
// index.
func ReadGraph(r io.Reader) (*Graph, error) {
	rg, err := rdf.ReadBinary(r)
	if err != nil {
		return nil, err
	}
	return FromTriples(rg), nil
}

// FromTriples wraps an existing triple store, reconstructing the label
// index from its label triples. The builder appends a node to a
// normalised label's list when it first writes a label triple of that
// form for the node, so scanning label triples in insertion order and
// keeping each (normalised label, node) once reproduces the original
// index order.
func FromTriples(rg *rdf.Graph) *Graph {
	d := rg.Dict()
	labels := rg.PairIDs(d.Lookup(rdf.NewIRI(PredLabel)))
	g := &Graph{G: rg, labelIndex: make(map[string][]rdf.Term, labels.Len())}
	type entry struct {
		key  string
		node rdf.ID
	}
	seen := make(map[entry]struct{}, labels.Len())
	for s, o, ok := labels.Next(); ok; s, o, ok = labels.Next() {
		key := invidx.Normalize(d.Term(o).Value())
		e := entry{key, s}
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		g.labelIndex[key] = append(g.labelIndex[key], d.Term(s))
	}
	return g
}

package rdf_test

import (
	"testing"

	"soda/internal/minibank"
	"soda/internal/rdf"
)

// TestObjectMatchesObjectsMiniBank checks Object against the first element
// of Objects for every (subject, predicate) pair of the MiniBank metadata
// graph, and for a predicate each subject does not carry.
func TestObjectMatchesObjectsMiniBank(t *testing.T) {
	g := minibank.BuildNoIndex(minibank.Default()).Meta.G
	absent := rdf.NewIRI("soda:no-such-predicate")
	pairs := 0
	for tr := range g.All() {
		for _, p := range []rdf.Term{tr.P, absent} {
			objs := g.Objects(tr.S, p)
			o, ok := g.Object(tr.S, p)
			if ok != (len(objs) > 0) || (ok && o != objs[0]) {
				t.Fatalf("Object(%v, %v) = %v, %v; Objects = %v", tr.S, p, o, ok, objs)
			}
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatal("MiniBank metadata graph has no triples")
	}
}

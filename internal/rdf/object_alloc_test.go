//go:build !race

// The race detector instruments allocations, so the zero-alloc guard only
// runs in non-race builds.

package rdf

import (
	"fmt"
	"testing"
)

// TestGraphObjectZeroAllocs pins Object as a walk to the first match: no
// slice is built, whether the node's edges are scanned linearly or looked
// up through its per-predicate index.
func TestGraphObjectZeroAllocs(t *testing.T) {
	g := NewGraph()
	small, big, p := NewIRI("small"), NewIRI("big"), NewIRI("p")
	g.Add(small, NewIRI("q"), NewIRI("x"))
	g.Add(small, p, NewText("first"))
	g.Add(small, p, NewText("second"))
	for i := 0; i < adjIndexThreshold+4; i++ {
		g.Add(big, NewIRI(fmt.Sprintf("q%d", i%3)), NewIRI(fmt.Sprintf("o%d", i)))
	}
	g.Add(big, p, NewText("first"))
	g.Add(big, p, NewText("second"))
	if g.out[g.dict.Lookup(small)].byPred != nil || g.out[g.dict.Lookup(big)].byPred == nil {
		t.Fatal("fixture: want one node below and one above adjIndexThreshold")
	}
	for _, s := range []Term{small, big} {
		allocs := testing.AllocsPerRun(100, func() {
			if o, ok := g.Object(s, p); !ok || o != NewText("first") {
				t.Fatalf("Object(%v, p) = %v, %v", s, o, ok)
			}
		})
		if allocs != 0 {
			t.Errorf("Object(%v, p) allocates %.1f times per call, want 0", s, allocs)
		}
	}
}

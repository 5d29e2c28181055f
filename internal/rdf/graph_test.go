package rdf

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	iri := NewIRI("soda:parties")
	if !iri.IsIRI() || iri.IsText() || iri.Kind() != IRI {
		t.Fatalf("NewIRI produced wrong kind: %v", iri.Kind())
	}
	if iri.Value() != "soda:parties" {
		t.Fatalf("Value = %q, want soda:parties", iri.Value())
	}
	txt := NewText("parties")
	if !txt.IsText() || txt.IsIRI() || txt.Kind() != Text {
		t.Fatalf("NewText produced wrong kind: %v", txt.Kind())
	}
	if got := txt.String(); got != "t:parties" {
		t.Fatalf("String = %q, want t:parties", got)
	}
	if got := iri.String(); got != "soda:parties" {
		t.Fatalf("String = %q, want soda:parties", got)
	}
}

func TestTermIsZero(t *testing.T) {
	var zero Term
	if !zero.IsZero() {
		t.Fatal("zero Term should report IsZero")
	}
	if NewIRI("x").IsZero() {
		t.Fatal("non-zero IRI should not report IsZero")
	}
	// NewText("") is a degenerate but distinct value: kind Text.
	if NewText("x").IsZero() {
		t.Fatal("text term should not report IsZero")
	}
}

func TestTripleString(t *testing.T) {
	tr := Triple{NewIRI("x"), NewIRI("tablename"), NewText("parties")}
	if got, want := tr.String(), "( x tablename t:parties )"; got != want {
		t.Fatalf("Triple.String = %q, want %q", got, want)
	}
}

func TestKindString(t *testing.T) {
	if IRI.String() != "iri" || Text.String() != "text" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(9).String() != "kind(9)" {
		t.Fatalf("unknown kind string = %q", Kind(9).String())
	}
}

func TestDictInternLookup(t *testing.T) {
	d := NewDict()
	a := d.Intern(NewIRI("a"))
	b := d.Intern(NewIRI("b"))
	if a == b {
		t.Fatal("distinct terms interned to same ID")
	}
	if d.Intern(NewIRI("a")) != a {
		t.Fatal("re-interning changed the ID")
	}
	if d.Lookup(NewIRI("a")) != a {
		t.Fatal("Lookup disagreed with Intern")
	}
	if d.Lookup(NewIRI("missing")) != NoID {
		t.Fatal("Lookup of missing term should be NoID")
	}
	if d.Term(a) != NewIRI("a") {
		t.Fatal("Term round-trip failed")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	// Same value, different kinds must intern separately.
	if d.Intern(NewText("a")) == a {
		t.Fatal("text and IRI with same value interned to same ID")
	}
}

func TestDictTermPanicsOnForeignID(t *testing.T) {
	d := NewDict()
	defer func() {
		if recover() == nil {
			t.Fatal("Term(0) should panic")
		}
	}()
	d.Term(NoID)
}

func TestGraphAddAndHas(t *testing.T) {
	g := NewGraph()
	s, p, o := NewIRI("s"), NewIRI("p"), NewIRI("o")
	if !g.Add(s, p, o) {
		t.Fatal("first Add should report new")
	}
	if g.Add(s, p, o) {
		t.Fatal("duplicate Add should report not-new")
	}
	if !g.Has(s, p, o) {
		t.Fatal("Has should find inserted triple")
	}
	if g.Has(s, p, NewIRI("other")) {
		t.Fatal("Has found a triple never inserted")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
}

func TestGraphAddPanicsOnTextSubject(t *testing.T) {
	g := NewGraph()
	defer func() {
		if recover() == nil {
			t.Fatal("Add with text subject should panic")
		}
	}()
	g.Add(NewText("bad"), NewIRI("p"), NewIRI("o"))
}

func TestGraphObjectsSubjects(t *testing.T) {
	g := NewGraph()
	s, p := NewIRI("table1"), NewIRI("column")
	c1, c2 := NewIRI("col1"), NewIRI("col2")
	g.Add(s, p, c1)
	g.Add(s, p, c2)
	g.Add(NewIRI("table2"), p, c1)

	objs := g.Objects(s, p)
	if !reflect.DeepEqual(objs, []Term{c1, c2}) {
		t.Fatalf("Objects = %v, want [col1 col2]", objs)
	}
	subs := g.Subjects(p, c1)
	if !reflect.DeepEqual(subs, []Term{s, NewIRI("table2")}) {
		t.Fatalf("Subjects = %v", subs)
	}
	if got := g.Objects(NewIRI("absent"), p); got != nil {
		t.Fatalf("Objects of absent subject = %v, want nil", got)
	}
	if got := g.Subjects(p, NewIRI("absent")); got != nil {
		t.Fatalf("Subjects of absent object = %v, want nil", got)
	}
	if got := g.Objects(s, NewIRI("absentpred")); got != nil {
		t.Fatalf("Objects with absent predicate = %v, want nil", got)
	}
}

func TestGraphObjectFirst(t *testing.T) {
	g := NewGraph()
	s, p := NewIRI("x"), NewIRI("tablename")
	if _, ok := g.Object(s, p); ok {
		t.Fatal("Object on empty graph should report absence")
	}
	g.Add(s, p, NewText("parties"))
	g.Add(s, p, NewText("ignored_second"))
	o, ok := g.Object(s, p)
	if !ok || o != NewText("parties") {
		t.Fatalf("Object = %v, %v; want first inserted label", o, ok)
	}
}

func TestGraphOutgoingIncomingOrder(t *testing.T) {
	g := NewGraph()
	s := NewIRI("s")
	for i := 0; i < 5; i++ {
		g.Add(s, NewIRI(fmt.Sprintf("p%d", i)), NewIRI(fmt.Sprintf("o%d", i)))
	}
	var got []string
	g.Outgoing(s, func(p, o Term) bool {
		got = append(got, p.Value()+"->"+o.Value())
		return true
	})
	want := []string{"p0->o0", "p1->o1", "p2->o2", "p3->o3", "p4->o4"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Outgoing order = %v, want %v", got, want)
	}

	o := NewIRI("hub")
	for i := 0; i < 3; i++ {
		g.Add(NewIRI(fmt.Sprintf("s%d", i)), NewIRI("pt"), o)
	}
	var in []string
	g.Incoming(o, func(p, s Term) bool {
		in = append(in, s.Value())
		return true
	})
	if !reflect.DeepEqual(in, []string{"s0", "s1", "s2"}) {
		t.Fatalf("Incoming order = %v", in)
	}
}

func TestGraphIterationEarlyStop(t *testing.T) {
	g := NewGraph()
	s := NewIRI("s")
	g.Add(s, NewIRI("p"), NewIRI("o1"))
	g.Add(s, NewIRI("p"), NewIRI("o2"))
	count := 0
	g.Outgoing(s, func(p, o Term) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("Outgoing did not stop early: %d visits", count)
	}
	count = 0
	g.Incoming(NewIRI("o1"), func(p, s Term) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("Incoming did not stop early: %d visits", count)
	}
}

func TestGraphDegrees(t *testing.T) {
	g := NewGraph()
	s := NewIRI("s")
	g.Add(s, NewIRI("p"), NewIRI("o"))
	g.Add(s, NewIRI("q"), NewIRI("o"))
	if g.OutDegree(s) != 2 {
		t.Fatalf("OutDegree = %d, want 2", g.OutDegree(s))
	}
	if g.InDegree(NewIRI("o")) != 2 {
		t.Fatalf("InDegree = %d, want 2", g.InDegree(NewIRI("o")))
	}
	if g.OutDegree(NewIRI("absent")) != 0 || g.InDegree(NewIRI("absent")) != 0 {
		t.Fatal("degrees of absent nodes should be 0")
	}
}

func TestGraphWithPredicate(t *testing.T) {
	g := NewGraph()
	p := NewIRI("foreign_key")
	g.Add(NewIRI("a"), p, NewIRI("b"))
	g.Add(NewIRI("c"), p, NewIRI("d"))
	g.Add(NewIRI("a"), NewIRI("other"), NewIRI("b"))
	trs := slices.Collect(g.WithPredicate(p))
	want := []Triple{{NewIRI("a"), p, NewIRI("b")}, {NewIRI("c"), p, NewIRI("d")}}
	if !reflect.DeepEqual(trs, want) {
		t.Fatalf("WithPredicate = %v, want %v", trs, want)
	}
	for tr := range g.WithPredicate(NewIRI("absent")) {
		t.Fatalf("WithPredicate of an absent predicate yielded %v", tr)
	}
	for tr := range g.WithPredicate(p) {
		if tr != want[0] {
			t.Fatalf("WithPredicate yielded %v first, want %v", tr, want[0])
		}
		break // an iteration stopped early must not yield again
	}
}

func TestGraphNodes(t *testing.T) {
	g := NewGraph()
	g.Add(NewIRI("a"), NewIRI("p"), NewIRI("b"))
	g.Add(NewIRI("b"), NewIRI("p"), NewText("label"))
	g.Add(NewIRI("a"), NewIRI("q"), NewIRI("c"))
	nodes := g.Nodes()
	want := []Term{NewIRI("a"), NewIRI("b"), NewIRI("c")}
	// Predicates are not nodes; text labels are not nodes.
	if !reflect.DeepEqual(nodes, want) {
		t.Fatalf("Nodes = %v, want %v", nodes, want)
	}
}

// property: for any set of triples, every added triple is findable through
// all three indexes, and Len equals the number of distinct triples.
func TestGraphIndexesAgreeQuick(t *testing.T) {
	type spec struct {
		S, P, O uint8
	}
	f := func(specs []spec) bool {
		g := NewGraph()
		distinct := make(map[Triple]struct{})
		for _, sp := range specs {
			s := NewIRI(fmt.Sprintf("s%d", sp.S%16))
			p := NewIRI(fmt.Sprintf("p%d", sp.P%8))
			o := NewIRI(fmt.Sprintf("o%d", sp.O%16))
			g.Add(s, p, o)
			distinct[Triple{s, p, o}] = struct{}{}
		}
		if g.Len() != len(distinct) {
			return false
		}
		for tr := range distinct {
			if !g.Has(tr.S, tr.P, tr.O) {
				return false
			}
			if !containsTerm(g.Objects(tr.S, tr.P), tr.O) {
				return false
			}
			if !containsTerm(g.Subjects(tr.P, tr.O), tr.S) {
				return false
			}
			found := false
			for got := range g.WithPredicate(tr.P) {
				if got == tr {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// property: out-degree of every node equals the number of triples with that
// subject; likewise for in-degree/objects.
func TestGraphDegreeInvariantQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		outCount := make(map[Term]int)
		inCount := make(map[Term]int)
		for i := 0; i < int(n); i++ {
			s := NewIRI(fmt.Sprintf("s%d", rng.Intn(10)))
			p := NewIRI(fmt.Sprintf("p%d", rng.Intn(4)))
			o := NewIRI(fmt.Sprintf("o%d", rng.Intn(10)))
			if g.Add(s, p, o) {
				outCount[s]++
				inCount[o]++
			}
		}
		for s, c := range outCount {
			if g.OutDegree(s) != c {
				return false
			}
		}
		for o, c := range inCount {
			if g.InDegree(o) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func containsTerm(ts []Term, want Term) bool {
	for _, t := range ts {
		if t == want {
			return true
		}
	}
	return false
}

// property: the ID-level accessors agree with the Term-level ones, and
// the cached node order is the first-appearance order of subjects and
// objects over All. Names are shared across positions, so predicates
// also occur as nodes, self-loops occur, and busy nodes pass
// adjIndexThreshold.
func TestGraphIDAccessorsAgreeQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		name := func() string { return fmt.Sprintf("n%d", rng.Intn(5)) }
		for i := 0; i < int(n); i++ {
			o := NewIRI(name())
			if rng.Intn(3) == 0 {
				o = NewText(name())
			}
			g.Add(NewIRI(name()), NewIRI(name()), o)
		}
		var want []Term
		seen := make(map[Term]bool)
		for tr := range g.All() {
			for _, x := range []Term{tr.S, tr.O} {
				if x.IsIRI() && !seen[x] {
					seen[x] = true
					want = append(want, x)
				}
			}
		}
		if !reflect.DeepEqual(g.Nodes(), want) || len(g.NodeIDs()) != len(want) {
			return false
		}
		d := g.Dict()
		terms := func(it Ends) []Term {
			var out []Term
			for id, ok := it.Next(); ok; id, ok = it.Next() {
				out = append(out, d.Term(id))
			}
			return out
		}
		for id := ID(1); int(id) <= d.Len(); id++ {
			x := d.Term(id)
			for p := ID(1); int(p) <= d.Len(); p++ {
				pt := d.Term(p)
				if !pt.IsIRI() {
					continue
				}
				if !reflect.DeepEqual(terms(g.ObjectIDs(id, p)), g.Objects(x, pt)) ||
					!reflect.DeepEqual(terms(g.SubjectIDs(p, id)), g.Subjects(pt, x)) {
					return false
				}
				var pairs []Triple
				it := g.PairIDs(p)
				for s, o, ok := it.Next(); ok; s, o, ok = it.Next() {
					if !g.HasIDs(s, p, o) {
						return false
					}
					pairs = append(pairs, Triple{d.Term(s), pt, d.Term(o)})
				}
				if !reflect.DeepEqual(pairs, slices.Collect(g.WithPredicate(pt))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

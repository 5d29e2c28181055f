package pattern

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"soda/internal/rdf"
)

// buildSchemaGraph builds a small graph in the shape of the paper's
// examples: a physical table "parties" with columns, plus a foreign key.
func buildSchemaGraph() *rdf.Graph {
	g := rdf.NewGraph()
	iri, text := rdf.NewIRI, rdf.NewText

	g.Add(iri("tbl:parties"), iri("tablename"), text("parties"))
	g.Add(iri("tbl:parties"), iri("type"), iri("physical_table"))
	g.Add(iri("tbl:individuals"), iri("tablename"), text("individuals"))
	g.Add(iri("tbl:individuals"), iri("type"), iri("physical_table"))

	g.Add(iri("col:parties.id"), iri("columnname"), text("id"))
	g.Add(iri("col:parties.id"), iri("type"), iri("physical_column"))
	g.Add(iri("tbl:parties"), iri("column"), iri("col:parties.id"))

	g.Add(iri("col:individuals.id"), iri("columnname"), text("id"))
	g.Add(iri("col:individuals.id"), iri("type"), iri("physical_column"))
	g.Add(iri("tbl:individuals"), iri("column"), iri("col:individuals.id"))

	// FK individuals.id -> parties.id
	g.Add(iri("col:individuals.id"), iri("foreign_key"), iri("col:parties.id"))

	// A non-column node with a columnname label but wrong type — must not
	// match the Column pattern.
	g.Add(iri("fake:col"), iri("columnname"), text("ghost"))
	return g
}

var (
	tablePat = MustParse("table", `
		( ?x tablename t:?y ) &
		( ?x type physical_table )`)
	columnPat = MustParse("column", `
		( ?x columnname t:?y ) &
		( ?x type physical_column ) &
		( ?z column ?x )`)
	fkPat = MustParse("foreignkey", `
		( ?x foreign_key ?y ) &
		( ?x matches-column ) &
		( ?y matches-column )`)
)

func newTestMatcher(g *rdf.Graph) *Matcher {
	reg := NewRegistry()
	reg.Register(tablePat)
	reg.Register(columnPat)
	reg.Register(fkPat)
	return NewMatcher(g, reg)
}

func TestTablePatternMatches(t *testing.T) {
	g := buildSchemaGraph()
	m := newTestMatcher(g)

	bs := m.Match(tablePat, rdf.NewIRI("tbl:parties"))
	if len(bs) != 1 {
		t.Fatalf("table pattern bindings = %d, want 1", len(bs))
	}
	y, ok := bs[0].Get("y")
	if !ok || y != rdf.NewText("parties") {
		t.Fatalf("y = %v, want t:parties", y)
	}
	x, _ := bs[0].Get("x")
	if x != rdf.NewIRI("tbl:parties") {
		t.Fatalf("x = %v", x)
	}
}

func TestTablePatternRejectsNonTable(t *testing.T) {
	g := buildSchemaGraph()
	m := newTestMatcher(g)
	if m.Matches(tablePat, rdf.NewIRI("col:parties.id")) {
		t.Fatal("table pattern matched a column node")
	}
	if m.Matches(tablePat, rdf.NewIRI("absent")) {
		t.Fatal("table pattern matched an absent node")
	}
}

func TestColumnPatternRequiresIncomingColumnEdge(t *testing.T) {
	g := buildSchemaGraph()
	m := newTestMatcher(g)
	if !m.Matches(columnPat, rdf.NewIRI("col:parties.id")) {
		t.Fatal("column pattern should match a real column")
	}
	// fake:col has a columnname label but neither type nor incoming edge.
	if m.Matches(columnPat, rdf.NewIRI("fake:col")) {
		t.Fatal("column pattern matched a fake column")
	}
}

func TestColumnPatternBindsOwnerTable(t *testing.T) {
	g := buildSchemaGraph()
	m := newTestMatcher(g)
	bs := m.Match(columnPat, rdf.NewIRI("col:individuals.id"))
	if len(bs) != 1 {
		t.Fatalf("bindings = %d, want 1", len(bs))
	}
	z, _ := bs[0].Get("z")
	if z != rdf.NewIRI("tbl:individuals") {
		t.Fatalf("z = %v, want tbl:individuals", z)
	}
}

func TestForeignKeyPatternWithReferences(t *testing.T) {
	g := buildSchemaGraph()
	m := newTestMatcher(g)
	bs := m.Match(fkPat, rdf.NewIRI("col:individuals.id"))
	if len(bs) != 1 {
		t.Fatalf("fk bindings = %d, want 1", len(bs))
	}
	y, _ := bs[0].Get("y")
	if y != rdf.NewIRI("col:parties.id") {
		t.Fatalf("fk target = %v", y)
	}
	// The referenced column pattern's variables (z) must not leak.
	if _, leaked := bs[0].Get("z"); leaked {
		t.Fatal("referenced pattern binding leaked into outer match")
	}
	// parties.id has no outgoing foreign_key edge.
	if m.Matches(fkPat, rdf.NewIRI("col:parties.id")) {
		t.Fatal("fk pattern matched the primary-key side")
	}
}

func TestVariableConsistencyWithinMatch(t *testing.T) {
	// ( ?x p ?y ) & ( ?x q ?y ) must bind the same y in both clauses.
	g := rdf.NewGraph()
	iri := rdf.NewIRI
	g.Add(iri("a"), iri("p"), iri("b"))
	g.Add(iri("a"), iri("q"), iri("c")) // different object: no match
	p := MustParse("consistent", `( ?x p ?y ) & ( ?x q ?y )`)
	m := NewMatcher(g, nil)
	if m.Matches(p, iri("a")) {
		t.Fatal("variable y was allowed two different assignments")
	}
	g.Add(iri("a"), iri("q"), iri("b"))
	if !m.Matches(p, iri("a")) {
		t.Fatal("pattern should match once (a q b) exists")
	}
}

func TestInheritanceChildPattern(t *testing.T) {
	// Paper §4.2.1: the inheritance node must have a parent and two
	// distinct children... actually the pattern requires two
	// inheritance_child edges, which the same child can satisfy only if
	// two distinct children exist because ?c1 and ?c2 may bind equal
	// values; the paper's intent is an explicit inheritance node shape.
	g := rdf.NewGraph()
	iri := rdf.NewIRI
	g.Add(iri("inh:party"), iri("type"), iri("inheritance_node"))
	g.Add(iri("inh:party"), iri("inheritance_parent"), iri("tbl:parties"))
	g.Add(iri("inh:party"), iri("inheritance_child"), iri("tbl:individuals"))
	g.Add(iri("inh:party"), iri("inheritance_child"), iri("tbl:organizations"))

	p := MustParse("inheritance-child", `
		( ?y inheritance_child ?x ) &
		( ?y type inheritance_node ) &
		( ?y inheritance_parent ?p ) &
		( ?y inheritance_child ?c1 ) &
		( ?y inheritance_child ?c2 )`)
	m := NewMatcher(g, nil)
	bs := m.Match(p, iri("tbl:individuals"))
	if len(bs) == 0 {
		t.Fatal("inheritance child pattern should match individuals")
	}
	parent, _ := bs[0].Get("p")
	if parent != iri("tbl:parties") {
		t.Fatalf("parent = %v, want tbl:parties", parent)
	}
	if m.Matches(p, iri("tbl:parties")) {
		t.Fatal("pattern matched the parent as a child")
	}
}

func TestFindAllTables(t *testing.T) {
	g := buildSchemaGraph()
	m := newTestMatcher(g)
	bs := m.FindAll(tablePat)
	var names []string
	for _, b := range bs {
		y, _ := b.Get("y")
		names = append(names, y.Value())
	}
	if !reflect.DeepEqual(names, []string{"parties", "individuals"}) {
		t.Fatalf("FindAll tables = %v", names)
	}
}

func TestMatchNameAndMissingPattern(t *testing.T) {
	g := buildSchemaGraph()
	m := newTestMatcher(g)
	if !m.MatchesName("table", rdf.NewIRI("tbl:parties")) {
		t.Fatal("MatchesName failed for registered pattern")
	}
	if m.MatchesName("nope", rdf.NewIRI("tbl:parties")) {
		t.Fatal("MatchesName matched an unregistered pattern")
	}
	if NewMatcher(g, nil).MatchesName("table", rdf.NewIRI("tbl:parties")) {
		t.Fatal("nil registry should never match by name")
	}
}

func TestRefDepthLimit(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.NewIRI("a"), rdf.NewIRI("p"), rdf.NewIRI("a"))
	reg := NewRegistry()
	// self-referential pattern: must terminate, not match.
	reg.Register(MustParse("loop", `( ?x p ?x ) & ( ?x matches-loop )`))
	m := NewMatcher(g, reg)
	if m.MatchesName("loop", rdf.NewIRI("a")) {
		t.Fatal("self-referential pattern should fail at depth limit")
	}
}

func TestUnboundRefEnumerates(t *testing.T) {
	g := buildSchemaGraph()
	m := newTestMatcher(g)
	// ?t is introduced only by the ref clause: matcher must enumerate
	// candidate nodes satisfying "table".
	p := MustParse("anytable", `( ?t matches-table ) & ( ?t tablename t:?n )`)
	bs := m.Match(p, rdf.NewIRI("whatever"))
	if len(bs) != 2 {
		t.Fatalf("unbound ref matched %d nodes, want 2", len(bs))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                      // empty
		"( ?x p )",                              // two elems but not matches-
		"( ?x p ?y ?z )",                        // four elems
		"( ?x p ?y ) ( ?x q ?y )",               // missing &
		"( ?x p ?y ) &",                         // trailing &
		"( ?x p ?y",                             // unclosed
		"?x p ?y )",                             // missing open
		"( ?x ?p ?y )",                          // variable predicate
		"( ? p ?y )",                            // empty var name
		"( t:? p ?y )",                          // empty text var name
		"( ?x matches- )",                       // empty ref name
		"( ?x t:pred ?y )",                      // text predicate
		"( ?x p ?v ) & ( ?x q t:?v )",           // ?v and t:?v: one name, two kinds
		"( ?x p t:?v ) & ( ?v matches-column )", // the same through a reference
	}
	for _, src := range cases {
		if _, err := Parse("bad", src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `( ?x tablename t:?y ) &
( ?x type physical_table ) &
( ?x matches-column ) &
( ?x label t:fixed )`
	p := MustParse("rt", src)
	if got := p.String(); got != src {
		t.Fatalf("String round-trip:\n got %q\nwant %q", got, src)
	}
	// Reparse the printed form: must be identical.
	p2 := MustParse("rt", p.String())
	if !reflect.DeepEqual(p, p2) {
		t.Fatal("reparse of printed pattern differs")
	}
}

func TestParseComments(t *testing.T) {
	p := MustParse("c", `
		# the table pattern
		( ?x tablename t:?y ) & # trailing comment
		( ?x type physical_table )`)
	if len(p.Clauses) != 2 {
		t.Fatalf("clauses = %d, want 2", len(p.Clauses))
	}
}

func TestPatternVars(t *testing.T) {
	p := MustParse("v", `( ?x p t:?y ) & ( ?z matches-table ) & ( ?x q static )`)
	if got := p.Vars(); !reflect.DeepEqual(got, []string{"x", "y", "z"}) {
		t.Fatalf("Vars = %v", got)
	}
}

func TestRegistryOrderAndReplace(t *testing.T) {
	reg := NewRegistry()
	reg.Register(MustParse("a", `( ?x p ?y )`))
	reg.Register(MustParse("b", `( ?x p ?y )`))
	reg.Register(MustParse("a", `( ?x q ?y )`)) // replace
	if got := reg.Names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Names = %v", got)
	}
	if reg.Get("a").Clauses[0].Pred != "q" {
		t.Fatal("Register did not replace pattern a")
	}
}

func TestRegisterUnnamedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register of unnamed pattern should panic")
		}
	}()
	NewRegistry().Register(&Pattern{})
}

func TestElemString(t *testing.T) {
	cases := map[Elem]string{
		Var("x"):     "?x",
		TextVar("y"): "t:?y",
		IRI("uri"):   "uri",
		Text("lbl"):  "t:lbl",
	}
	for e, want := range cases {
		if got := e.String(); got != want {
			t.Errorf("Elem.String = %q, want %q", got, want)
		}
	}
}

// property: a match binding always satisfies every triple clause literally.
func TestMatchBindingsSatisfyClausesQuick(t *testing.T) {
	g := buildSchemaGraph()
	m := newTestMatcher(g)
	nodes := g.Nodes()
	pats := []*Pattern{tablePat, columnPat, fkPat}

	f := func(nodeIdx, patIdx uint8) bool {
		node := nodes[int(nodeIdx)%len(nodes)]
		p := pats[int(patIdx)%len(pats)]
		for _, b := range m.Match(p, node) {
			for _, c := range p.Clauses {
				if c.Kind != TripleClause {
					continue
				}
				s, okS := resolve(c.S, b)
				o, okO := resolve(c.O, b)
				if !okS || !okO {
					return false // all triple vars must be bound
				}
				if !g.Has(s, rdf.NewIRI(c.Pred), o) {
					return false
				}
			}
			if got, ok := b.Get("x"); !ok || got != node {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// property: Matches is consistent with len(Match) > 0 for arbitrary nodes.
func TestMatchesConsistentQuick(t *testing.T) {
	g := buildSchemaGraph()
	m := newTestMatcher(g)
	nodes := g.Nodes()
	f := func(nodeIdx, patIdx uint8) bool {
		node := nodes[int(nodeIdx)%len(nodes)]
		var p *Pattern
		switch patIdx % 3 {
		case 0:
			p = tablePat
		case 1:
			p = columnPat
		default:
			p = fkPat
		}
		return m.Matches(p, node) == (len(m.Match(p, node)) > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPaperSyntaxExamplesParse(t *testing.T) {
	// The three patterns given verbatim in §4.2.1 (variables rewritten
	// with the ? convention) must parse.
	srcs := map[string]string{
		"table": `( ?x tablename t:?y ) &
			( ?x type physical_table )`,
		"column": `( ?x columnname t:?y ) &
			( ?x type physical_column ) &
			( ?z column ?x )`,
		"foreignkey": `( ?x foreign_key ?y ) &
			( ?x matches-column ) &
			( ?y matches-column )`,
		"inheritance-child": `( ?y inheritance_child ?x ) &
			( ?y type inheritance_node ) &
			( ?y inheritance_parent ?p ) &
			( ?y inheritance_child ?c1 ) &
			( ?y inheritance_child ?c2 )`,
	}
	for name, src := range srcs {
		if _, err := Parse(name, src); err != nil {
			t.Errorf("paper pattern %s failed to parse: %v", name, err)
		}
	}
	if !strings.Contains(tablePat.String(), "physical_table") {
		t.Fatal("sanity: printed table pattern lost its type clause")
	}
}

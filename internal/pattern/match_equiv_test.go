package pattern

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"soda/internal/rdf"
)

// compareWithOracle checks that the compiled matcher and the Term-level
// oracle agree on every entry point — same bindings, same order — for
// each pattern at each node, and for each registered name.
func compareWithOracle(t testing.TB, g *rdf.Graph, reg *Registry, pats []*Pattern, nodes []rdf.Term) {
	t.Helper()
	m, o := NewMatcher(g, reg), newOracle(g, reg)
	var names []string
	if reg != nil {
		names = append(reg.Names(), "unregistered")
	}
	for _, p := range pats {
		if got, want := m.FindAll(p), o.FindAll(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("FindAll(%s):\n got %v\nwant %v", p.Name, got, want)
		}
		for _, n := range nodes {
			if got, want := m.Match(p, n), o.Match(p, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("Match(%s, %v):\n got %v\nwant %v\npattern:\n%s", p.Name, n, got, want, p)
			}
			if got, want := m.Matches(p, n), o.Matches(p, n); got != want {
				t.Fatalf("Matches(%s, %v) = %v, want %v", p.Name, n, got, want)
			}
		}
	}
	for _, name := range names {
		for _, n := range nodes {
			if got, want := m.MatchName(name, n), o.MatchName(name, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("MatchName(%s, %v):\n got %v\nwant %v", name, n, got, want)
			}
			if got, want := m.MatchesName(name, n), o.MatchesName(name, n); got != want {
				t.Fatalf("MatchesName(%s, %v) = %v, want %v", name, n, got, want)
			}
		}
	}
}

// probeNodes is every graph node plus a node the graph lacks and a text
// label the graph holds, which Match accepts as x as readily as a node.
func probeNodes(g *rdf.Graph) []rdf.Term {
	nodes := append(g.Nodes(), rdf.NewIRI("absent:node"))
	for tr := range g.All() {
		if tr.O.IsText() {
			return append(nodes, tr.O)
		}
	}
	return nodes
}

func TestCompiledMatchesOracleSchemaGraph(t *testing.T) {
	g := buildSchemaGraph()
	reg := NewRegistry()
	// "anytype" never mentions x, so it holds even for an x the graph
	// lacks.
	anytype := MustParse("anytype", `( ?a type ?k )`)
	for _, p := range []*Pattern{tablePat, columnPat, fkPat, anytype} {
		reg.Register(p)
	}
	pats := []*Pattern{tablePat, columnPat, fkPat,
		MustParse("anytable", `( ?t matches-table ) & ( ?t tablename t:?n )`),
		MustParse("textref", `( ?x columnname t:?n ) & ( t:?n matches-column )`),
		MustParse("constref", `( tbl:parties matches-table ) & ( ?x type ?k )`),
		MustParse("missingref", `( absent:const matches-anything ) & ( ?x type ?k )`),
		MustParse("missingrefconst", `( absent:const matches-anytype ) & ( ?x type ?k )`),
		MustParse("missingconst", `( ?x type absent:type )`),
		MustParse("missingpred", `( ?x absent:pred ?y )`),
		MustParse("missingtext", `( ?x tablename t:nobody )`),
		MustParse("loopback", `( ?y column ?x ) & ( ?y column ?x )`),
		MustParse("scan", `( ?a foreign_key ?b ) & ( ?b columnname t:?n )`),
		MustParse("selfedge", `( ?a column ?a )`),
		// More variables than a stack frame holds: the frames move to the heap.
		MustParse("wide", `( ?x column ?c ) & ( ?c columnname t:?n ) & ( ?c type ?ct ) &
			( ?x type ?xt ) & ( ?x tablename t:?tn ) & ( ?t2 column ?c2 ) &
			( ?c2 columnname t:?n2 ) & ( ?c2 type ?ct2 ) & ( ?c matches-column )`),
	}
	compareWithOracle(t, g, reg, pats, probeNodes(g))
}

func TestCompiledMatchesOracleRefDepth(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 12; i++ {
		g.Add(rdf.NewIRI(fmt.Sprintf("n%d", i)), rdf.NewIRI("p"), rdf.NewIRI(fmt.Sprintf("n%d", i+1)))
	}
	g.Add(rdf.NewIRI("a"), rdf.NewIRI("p"), rdf.NewIRI("a"))
	reg := NewRegistry()
	reg.Register(MustParse("loop", `( ?x p ?x ) & ( ?x matches-loop )`))
	// A chain of references ten deep: only nodes with a long enough path
	// get past the first few links before the depth cap cuts them off.
	for i := 0; i < 10; i++ {
		reg.Register(MustParse(fmt.Sprintf("chain%d", i), fmt.Sprintf(`( ?x p ?y ) & ( ?y matches-chain%d )`, i+1)))
	}
	reg.Register(MustParse("chain10", `( ?x p ?y )`))
	reg.Register(MustParse("shallow", `( ?x p ?y ) & ( ?y matches-chain7 )`))
	var pats []*Pattern
	for _, name := range reg.Names() {
		pats = append(pats, reg.Get(name))
	}
	compareWithOracle(t, g, reg, pats, probeNodes(g))
}

// randomPattern draws a pattern over a small vocabulary: node and text
// variables, constants the graph may or may not hold, and references to
// registry patterns r<from>..r<nRefs-1> or to the missing r<nRefs>.
// References only point forward, so an unbound reference element cannot
// multiply its node enumeration all the way to the depth cap;
// TestCompiledMatchesOracleRefDepth covers cycles.
func randomPattern(rng *rand.Rand, name string, from, nRefs int) *Pattern {
	nodeElem := func() Elem {
		switch rng.Intn(6) {
		case 0:
			return IRI(fmt.Sprintf("n%d", rng.Intn(7))) // n6 is never in the graph
		default:
			return Var([]string{"x", "y", "z", "w"}[rng.Intn(4)])
		}
	}
	anyElem := func() Elem {
		switch rng.Intn(8) {
		case 0:
			return Text(fmt.Sprintf("l%d", rng.Intn(4))) // l3 is never in the graph
		case 1, 2:
			return TextVar([]string{"s", "u"}[rng.Intn(2)])
		default:
			return nodeElem()
		}
	}
	p := &Pattern{Name: name}
	for n := 1 + rng.Intn(4); len(p.Clauses) < n; {
		if rng.Intn(5) == 0 {
			ref := fmt.Sprintf("r%d", from+rng.Intn(nRefs+1-from))
			elem := nodeElem()
			if rng.Intn(6) == 0 {
				elem = TextVar("s")
			}
			p.Clauses = append(p.Clauses, Clause{Kind: RefClause, Ref: elem, RefName: ref})
			continue
		}
		pred := fmt.Sprintf("p%d", rng.Intn(4)) // p3 is never in the graph
		p.Clauses = append(p.Clauses, Clause{Kind: TripleClause, S: nodeElem(), Pred: pred, O: anyElem()})
	}
	return p
}

func randomGraph(rng *rand.Rand) *rdf.Graph {
	g := rdf.NewGraph()
	for n := rng.Intn(30); n > 0; n-- {
		s := rdf.NewIRI(fmt.Sprintf("n%d", rng.Intn(6)))
		p := rdf.NewIRI(fmt.Sprintf("p%d", rng.Intn(3)))
		o := rdf.NewIRI(fmt.Sprintf("n%d", rng.Intn(6)))
		if rng.Intn(3) == 0 {
			o = rdf.NewText(fmt.Sprintf("l%d", rng.Intn(3)))
		}
		g.Add(s, p, o)
	}
	return g
}

func TestCompiledMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const nRefs = 3
	for trial := 0; trial < 400; trial++ {
		g := randomGraph(rng)
		reg := NewRegistry()
		for i := 0; i < nRefs; i++ {
			reg.Register(randomPattern(rng, fmt.Sprintf("r%d", i), i+1, nRefs))
		}
		pats := []*Pattern{reg.Get("r0"), reg.Get("r1"), reg.Get("r2")}
		for i := 0; i < 4; i++ {
			pats = append(pats, randomPattern(rng, fmt.Sprintf("ad-hoc%d", i), 0, nRefs))
		}
		compareWithOracle(t, g, reg, pats, probeNodes(g))
		compareWithOracle(t, g, nil, pats[3:], probeNodes(g))
	}
}

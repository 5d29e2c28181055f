package pattern

// The Term-level matcher the compiled one (match.go) replaced, kept as the
// oracle the equivalence tests compare against: it solves clauses over
// rdf.Terms, clones a Binding per extension and enumerates every solution.

import (
	"soda/internal/rdf"
)

// oracle evaluates patterns against a metadata graph, resolving pattern
// references through a registry.
type oracle struct {
	g   *rdf.Graph
	reg *Registry
}

func newOracle(g *rdf.Graph, reg *Registry) *oracle {
	return &oracle{g: g, reg: reg}
}

// Match assigns the variable "x" to node and solves the pattern's clauses
// against the graph (paper §4.2.1: "To match a pattern on a given graph, we
// assign the variable x to the current node and try to match each triple in
// the pattern to the graph accordingly."). It returns every consistent
// binding; an empty slice means the pattern does not match at node.
func (m *oracle) Match(p *Pattern, node rdf.Term) []Binding {
	initial := Binding{"x": node}
	return m.solve(p.Clauses, initial, 0)
}

// Matches reports whether the pattern matches at node, without collecting
// all bindings.
func (m *oracle) Matches(p *Pattern, node rdf.Term) bool {
	return len(m.solve(p.Clauses, Binding{"x": node}, 0)) > 0
}

// MatchName is Match with registry lookup by pattern name. It returns nil
// if no such pattern is registered.
func (m *oracle) MatchName(name string, node rdf.Term) []Binding {
	if m.reg == nil {
		return nil
	}
	p := m.reg.Get(name)
	if p == nil {
		return nil
	}
	return m.Match(p, node)
}

// MatchesName reports whether the named pattern matches at node.
func (m *oracle) MatchesName(name string, node rdf.Term) bool {
	return len(m.MatchName(name, node)) > 0
}

// FindAll returns, for every graph node where the pattern matches, the
// first binding found. Nodes are visited in first-appearance order so the
// result is deterministic.
func (m *oracle) FindAll(p *Pattern) []Binding {
	var out []Binding
	for _, node := range m.g.Nodes() {
		if bs := m.solve(p.Clauses, Binding{"x": node}, 0); len(bs) > 0 {
			out = append(out, bs[0])
		}
	}
	return out
}

// solve backtracks through clauses extending binding; it returns every
// complete consistent binding.
func (m *oracle) solve(clauses []Clause, binding Binding, depth int) []Binding {
	if len(clauses) == 0 {
		return []Binding{binding}
	}
	head, rest := clauses[0], clauses[1:]
	var results []Binding
	for _, extended := range m.solveClause(head, binding, depth) {
		results = append(results, m.solve(rest, extended, depth)...)
	}
	return results
}

// solveClause returns every extension of binding that satisfies the clause.
func (m *oracle) solveClause(c Clause, binding Binding, depth int) []Binding {
	if c.Kind == RefClause {
		return m.solveRef(c, binding, depth)
	}
	pred := rdf.NewIRI(c.Pred)

	sTerm, sBound := resolve(c.S, binding)
	oTerm, oBound := resolve(c.O, binding)

	switch {
	case sBound && oBound:
		if m.g.Has(sTerm, pred, oTerm) {
			return []Binding{binding}
		}
		return nil

	case sBound:
		var out []Binding
		for _, o := range m.g.Objects(sTerm, pred) {
			if b, ok := bind(c.O, o, binding); ok {
				out = append(out, b)
			}
		}
		return out

	case oBound:
		var out []Binding
		for _, s := range m.g.Subjects(pred, oTerm) {
			if b, ok := bind(c.S, s, binding); ok {
				out = append(out, b)
			}
		}
		return out

	default:
		// Both ends unbound: scan the predicate index.
		var out []Binding
		for tr := range m.g.WithPredicate(pred) {
			b, ok := bind(c.S, tr.S, binding)
			if !ok {
				continue
			}
			b2, ok := bind(c.O, tr.O, b)
			if !ok {
				continue
			}
			out = append(out, b2)
		}
		return out
	}
}

// solveRef handles "( ?x matches-name )" clauses: the referenced pattern is
// evaluated with its own variable scope, seeded only with x := the referred
// element's value (existential semantics — referenced bindings do not leak
// into the outer pattern, matching how the paper composes Column inside
// Foreign Key).
func (m *oracle) solveRef(c Clause, binding Binding, depth int) []Binding {
	if depth >= maxRefDepth || m.reg == nil {
		return nil
	}
	ref := m.reg.Get(c.RefName)
	if ref == nil {
		return nil
	}
	term, bound := resolve(c.Ref, binding)
	if bound {
		if len(m.solve(ref.Clauses, Binding{"x": term}, depth+1)) > 0 {
			return []Binding{binding}
		}
		return nil
	}
	// Unbound reference element: enumerate candidate nodes. This is rare
	// (authors order selective clauses first) but must be correct.
	var out []Binding
	for _, node := range m.g.Nodes() {
		if len(m.solve(ref.Clauses, Binding{"x": node}, depth+1)) == 0 {
			continue
		}
		if b, ok := bind(c.Ref, node, binding); ok {
			out = append(out, b)
		}
	}
	return out
}

// resolve returns the concrete term for an element under binding, if any.
func resolve(e Elem, binding Binding) (rdf.Term, bool) {
	switch e.Kind {
	case IRIElem:
		return rdf.NewIRI(e.Name), true
	case TextElem:
		return rdf.NewText(e.Name), true
	default:
		t, ok := binding[e.Name]
		return t, ok
	}
}

// bind extends binding with e := t if kinds are compatible. Constants must
// equal t; node variables accept only IRIs; text variables only labels.
func bind(e Elem, t rdf.Term, binding Binding) (Binding, bool) {
	switch e.Kind {
	case IRIElem:
		if t.IsIRI() && t.Value() == e.Name {
			return binding, true
		}
		return nil, false
	case TextElem:
		if t.IsText() && t.Value() == e.Name {
			return binding, true
		}
		return nil, false
	case VarElem:
		if !t.IsIRI() {
			return nil, false
		}
	case TextVarElem:
		if !t.IsText() {
			return nil, false
		}
	}
	if prev, ok := binding[e.Name]; ok {
		// "within one match, a variable keeps its URI" (§4.2.1)
		if prev == t {
			return binding, true
		}
		return nil, false
	}
	b := make(Binding, len(binding)+1)
	for k, v := range binding {
		b[k] = v
	}
	b[e.Name] = t
	return b, true
}

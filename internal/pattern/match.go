package pattern

import (
	"soda/internal/rdf"
)

// maxRefDepth bounds recursion through RefClauses so that an accidentally
// self-referential registry cannot loop forever.
const maxRefDepth = 8

// unbound marks an empty variable slot. rdf.NoID cannot: Match binds x to
// whatever node it is given, and a node the graph lacks is bound, to NoID.
const unbound rdf.ID = -1

// Matcher evaluates patterns against a metadata graph, resolving pattern
// references through a registry.
//
// NewMatcher compiles every registered pattern against the graph once:
// predicates and constants become dictionary IDs, variables become
// numbered slots, and "matches-" references point at the referenced
// pattern's compiled plan. Solving then backtracks over an ID slot array,
// walking the graph's adjacency lists without hashing a Term per step.
// The graph and the registry must therefore not change once the matcher
// exists; SODA builds its metadata graph before the System that matches
// on it, and nothing mutates it afterwards. A Matcher is safe for
// concurrent use.
type Matcher struct {
	g      *rdf.Graph
	reg    *Registry
	plans  map[*Pattern]*plan // every registered pattern, compiled
	byName map[string]*plan
	width  int // the most slots any registered plan uses
}

// plan is one pattern compiled against the matcher's graph.
type plan struct {
	steps []step
	names []string // variable name by slot; slot 0 is "x"
	never bool     // some clause can never hold: the pattern matches nowhere
}

// step is one compiled clause: a triple clause, or a reference when ref
// is set. A reference to a pattern the registry lacks leaves ref nil and
// marks the plan never, so no such step is ever solved.
type step struct {
	pred rdf.ID
	s, o operand
	ref  *plan   // the referenced pattern's plan
	elem operand // the element a reference tests
}

// operand is one element of a compiled clause.
type operand struct {
	slot int    // variable slot, or -1 for a constant
	id   rdf.ID // the constant's ID; rdf.NoID when the graph lacks it
	text bool   // the variable ranges over text labels (t:?v), not nodes
}

// NewMatcher returns a matcher over g using reg to resolve RefClauses.
// reg may be nil if the evaluated patterns contain no references.
func NewMatcher(g *rdf.Graph, reg *Registry) *Matcher {
	m := &Matcher{g: g, reg: reg, plans: make(map[*Pattern]*plan), byName: make(map[string]*plan)}
	if reg == nil {
		return m
	}
	// Allocate every plan first so references, cyclic ones included, can
	// link to them while each is compiled.
	for _, name := range reg.Names() {
		pl := &plan{}
		m.plans[reg.Get(name)] = pl
		m.byName[name] = pl
	}
	for _, name := range reg.Names() {
		pl := m.byName[name]
		*pl = *m.compile(reg.Get(name))
		m.width = max(m.width, len(pl.names))
	}
	return m
}

// compile compiles p against the graph, linking its references to the
// registered plans.
func (m *Matcher) compile(p *Pattern) *plan {
	dict := m.g.Dict()
	pl := &plan{names: []string{"x"}}
	slots := map[string]int{"x": 0}
	elem := func(e Elem) operand {
		switch e.Kind {
		case IRIElem:
			return operand{slot: -1, id: dict.Lookup(rdf.NewIRI(e.Name))}
		case TextElem:
			return operand{slot: -1, id: dict.Lookup(rdf.NewText(e.Name))}
		}
		k, ok := slots[e.Name]
		if !ok {
			k = len(pl.names)
			slots[e.Name] = k
			pl.names = append(pl.names, e.Name)
		}
		return operand{slot: k, text: e.Kind == TextVarElem}
	}
	for _, c := range p.Clauses {
		if c.Kind == RefClause {
			// A constant the graph lacks still names a node to test: the
			// referenced pattern may not mention x at all.
			st := step{ref: m.byName[c.RefName], elem: elem(c.Ref)}
			pl.never = pl.never || st.ref == nil
			pl.steps = append(pl.steps, st)
			continue
		}
		st := step{pred: dict.Lookup(rdf.NewIRI(c.Pred)), s: elem(c.S), o: elem(c.O)}
		pl.never = pl.never || st.pred == rdf.NoID || st.s.missing() || st.o.missing()
		pl.steps = append(pl.steps, st)
	}
	return pl
}

// planFor returns p's compiled plan: the registered one, or a fresh
// compilation for a pattern the registry does not hold.
func (m *Matcher) planFor(p *Pattern) *plan {
	if pl, ok := m.plans[p]; ok {
		return pl
	}
	return m.compile(p)
}

// Match assigns the variable "x" to node and solves the pattern's clauses
// against the graph (paper §4.2.1: "To match a pattern on a given graph, we
// assign the variable x to the current node and try to match each triple in
// the pattern to the graph accordingly."). It returns every consistent
// binding; an empty slice means the pattern does not match at node.
func (m *Matcher) Match(p *Pattern, node rdf.Term) []Binding {
	var r run
	r.solveAt(m, m.planFor(p), node, wantAll)
	return r.out
}

// Matches reports whether the pattern matches at node. It stops at the
// first solution and builds no binding.
func (m *Matcher) Matches(p *Pattern, node rdf.Term) bool {
	var r run
	r.solveAt(m, m.planFor(p), node, wantAny)
	return r.found
}

// MatchName is Match with registry lookup by pattern name. It returns nil
// if no such pattern is registered.
func (m *Matcher) MatchName(name string, node rdf.Term) []Binding {
	if p := m.registered(name); p != nil {
		return m.Match(p, node)
	}
	return nil
}

// MatchesName reports whether the named pattern matches at node.
func (m *Matcher) MatchesName(name string, node rdf.Term) bool {
	if p := m.registered(name); p != nil {
		return m.Matches(p, node)
	}
	return false
}

func (m *Matcher) registered(name string) *Pattern {
	if m.reg == nil {
		return nil
	}
	return m.reg.Get(name)
}

// FindAll returns, for every graph node where the pattern matches, the
// first binding found. Nodes are visited in first-appearance order so the
// result is deterministic.
func (m *Matcher) FindAll(p *Pattern) []Binding {
	pl := m.planFor(p)
	if pl.never {
		return nil
	}
	var r run
	r.init(m, pl, wantFirst)
	dict := m.g.Dict()
	for _, node := range m.g.NodeIDs() {
		r.x = dict.Term(node)
		r.solveFrom(pl, node)
	}
	return r.out
}

// want says what a run collects at depth 0.
type want uint8

const (
	wantAny   want = iota // whether a solution exists
	wantFirst             // the first solution's binding
	wantAll               // every solution's binding
)

// frameWidth is how many slots a frame holds without a heap arena; every
// shipped pattern fits.
const frameWidth = 8

// run is the state of one top-level evaluation: the slot frames, one per
// reference depth, and what has been collected. It lives on the caller's
// stack; only a plan wider than frameWidth moves its frames to the heap.
type run struct {
	m     *Matcher
	want  want
	width int
	buf   [(maxRefDepth + 1) * frameWidth]rdf.ID
	heap  []rdf.ID
	x     rdf.Term // the node x is bound to, as given
	out   []Binding
	found bool
}

func (r *run) init(m *Matcher, pl *plan, w want) {
	r.m, r.want, r.width = m, w, frameWidth
	if n := max(m.width, len(pl.names)); n > frameWidth {
		r.width = n
		r.heap = make([]rdf.ID, (maxRefDepth+1)*n)
	}
}

// solveAt evaluates pl with x bound to node.
func (r *run) solveAt(m *Matcher, pl *plan, node rdf.Term, w want) {
	if pl.never {
		return
	}
	r.init(m, pl, w)
	r.x = node
	r.solveFrom(pl, m.g.Dict().Lookup(node))
}

// solveFrom solves pl at depth 0 with x bound to the node with ID x.
func (r *run) solveFrom(pl *plan, x rdf.ID) {
	slots := r.frame(pl, 0, x)
	r.solve(pl, 0, slots, 0)
}

// frame returns depth's slot frame for pl, every slot unbound but x.
func (r *run) frame(pl *plan, depth int, x rdf.ID) []rdf.ID {
	arena := r.buf[:]
	if r.heap != nil {
		arena = r.heap
	}
	f := arena[depth*r.width : depth*r.width+len(pl.names)]
	for i := range f {
		f[i] = unbound
	}
	f[0] = x
	return f
}

// solve backtracks through pl's steps from i. It reports whether the run
// should stop: at depth 0 once it has what it wants, below it (a
// reference's existence check) at the first solution.
func (r *run) solve(pl *plan, i int, slots []rdf.ID, depth int) bool {
	if i == len(pl.steps) {
		return r.complete(pl, slots, depth)
	}
	st := &pl.steps[i]
	if st.ref != nil {
		return r.solveRef(pl, i, st, slots, depth)
	}
	g := r.m.g
	s, sBound := st.s.value(slots)
	o, oBound := st.o.value(slots)
	switch {
	case sBound && oBound:
		return g.HasIDs(s, st.pred, o) && r.solve(pl, i+1, slots, depth)
	case sBound:
		it := g.ObjectIDs(s, st.pred)
		for o, ok := it.Next(); ok; o, ok = it.Next() {
			if r.bindSolve(pl, i, slots, depth, st.o, o) {
				return true
			}
		}
	case oBound:
		it := g.SubjectIDs(st.pred, o)
		for s, ok := it.Next(); ok; s, ok = it.Next() {
			if r.bindSolve(pl, i, slots, depth, st.s, s) {
				return true
			}
		}
	default:
		// Both ends unbound: scan the predicate.
		it := g.PairIDs(st.pred)
		for s, o, ok := it.Next(); ok; s, o, ok = it.Next() {
			if !r.bind(st.s, s, slots) {
				continue
			}
			stop := r.bindSolve(pl, i, slots, depth, st.o, o)
			slots[st.s.slot] = unbound
			if stop {
				return true
			}
		}
	}
	return false
}

// bindSolve binds op to id, solves the rest of the plan, and unbinds.
func (r *run) bindSolve(pl *plan, i int, slots []rdf.ID, depth int, op operand, id rdf.ID) bool {
	if slots[op.slot] != unbound {
		// Bound earlier in this clause: "within one match, a variable
		// keeps its URI" (§4.2.1).
		return slots[op.slot] == id && r.solve(pl, i+1, slots, depth)
	}
	if !r.bind(op, id, slots) {
		return false
	}
	stop := r.solve(pl, i+1, slots, depth)
	slots[op.slot] = unbound
	return stop
}

// bind binds the unbound variable op to id if the kinds agree: node
// variables take only IRIs, text variables only labels.
func (r *run) bind(op operand, id rdf.ID, slots []rdf.ID) bool {
	if r.m.g.Dict().Term(id).IsText() != op.text {
		return false
	}
	slots[op.slot] = id
	return true
}

// solveRef handles "( ?x matches-name )" clauses: the referenced pattern is
// evaluated with its own variable scope, seeded only with x := the referred
// element's value (existential semantics — referenced bindings do not leak
// into the outer pattern, matching how the paper composes Column inside
// Foreign Key).
func (r *run) solveRef(pl *plan, i int, st *step, slots []rdf.ID, depth int) bool {
	if depth >= maxRefDepth {
		return false
	}
	if v, bound := st.elem.value(slots); bound {
		return r.holds(st.ref, v, depth+1) && r.solve(pl, i+1, slots, depth)
	}
	if st.elem.text {
		return false // candidates are nodes, which a text variable never takes
	}
	// Unbound reference element: enumerate candidate nodes. This is rare
	// (authors order selective clauses first) but must be correct.
	k := st.elem.slot
	for _, node := range r.m.g.NodeIDs() {
		if !r.holds(st.ref, node, depth+1) {
			continue
		}
		slots[k] = node
		stop := r.solve(pl, i+1, slots, depth)
		slots[k] = unbound
		if stop {
			return true
		}
	}
	return false
}

// holds reports whether ref has a solution with x bound to node.
func (r *run) holds(ref *plan, node rdf.ID, depth int) bool {
	return !ref.never && r.solve(ref, 0, r.frame(ref, depth, node), depth)
}

// complete records a solution of the top-level plan, or ends a
// reference's existence check.
func (r *run) complete(pl *plan, slots []rdf.ID, depth int) bool {
	if depth > 0 {
		return true
	}
	r.found = true
	if r.want == wantAny {
		return true
	}
	dict := r.m.g.Dict()
	b := make(Binding, len(pl.names))
	b["x"] = r.x
	for k := 1; k < len(pl.names); k++ {
		b[pl.names[k]] = dict.Term(slots[k])
	}
	r.out = append(r.out, b)
	return r.want == wantFirst
}

// missing reports whether op is a constant the graph lacks: no triple
// holds it.
func (op operand) missing() bool { return op.slot < 0 && op.id == rdf.NoID }

// value returns the ID op stands for under slots, if it is bound.
func (op operand) value(slots []rdf.ID) (rdf.ID, bool) {
	if op.slot < 0 {
		return op.id, true
	}
	v := slots[op.slot]
	return v, v != unbound
}

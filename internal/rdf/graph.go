package rdf

import "iter"

// edge is one (predicate, endpoint) pair in an adjacency list. For the
// outgoing index the endpoint is the object; for the incoming index it is
// the subject.
type edge struct {
	pred ID
	end  ID
}

// adjacency stores the edges of a single node in insertion order, with a
// per-predicate index for the frequent "follow predicate p" queries the
// pattern matcher issues. The index is only materialised once a node
// passes adjIndexThreshold edges: most schema nodes carry a handful of
// edges where a linear scan wins, and skipping tens of thousands of tiny
// map allocations is what makes warehouse-scale graph construction fast.
type adjacency struct {
	edges  []edge
	byPred map[ID][]ID // nil until the node outgrows linear scanning
}

// adjIndexThreshold is the edge count past which a node gets a
// per-predicate map.
const adjIndexThreshold = 8

func (a *adjacency) add(p, end ID) {
	a.edges = append(a.edges, edge{p, end})
	if a.byPred != nil {
		a.byPred[p] = append(a.byPred[p], end)
		return
	}
	if len(a.edges) > adjIndexThreshold {
		a.byPred = make(map[ID][]ID, len(a.edges))
		for _, e := range a.edges {
			a.byPred[e.pred] = append(a.byPred[e.pred], e.end)
		}
	}
}

// forPred calls fn with every endpoint reached over predicate p, in
// insertion order.
func (a *adjacency) forPred(p ID, fn func(ID)) {
	if a.byPred != nil {
		for _, end := range a.byPred[p] {
			fn(end)
		}
		return
	}
	for _, e := range a.edges {
		if e.pred == p {
			fn(e.end)
		}
	}
}

// countPred reports how many edges carry predicate p.
func (a *adjacency) countPred(p ID) int {
	if a.byPred != nil {
		return len(a.byPred[p])
	}
	n := 0
	for _, e := range a.edges {
		if e.pred == p {
			n++
		}
	}
	return n
}

// Graph is an in-memory triple store with set semantics and three indexes:
// outgoing edges by subject, incoming edges by object, and full-predicate
// scans. All iteration orders are deterministic (insertion order), which
// keeps SODA's ranked output stable across runs — important because the
// paper presents users an ordered result page.
//
// Everything is kept as dictionary IDs. The per-node and per-predicate
// indexes are dense slices keyed by the dictionary's sequential IDs
// rather than maps: node counts are known to be dict-bounded, and
// indexing an array by a small integer beats hashing on every one of the
// insertions a warehouse-scale build performs. The
// triples themselves are one pointer-free [3]ID list that the
// per-predicate index points into, so an insertion appends 16 bytes the
// garbage collector never scans; a Triple of Terms is built only when
// All or WithPredicate hands one out.
type Graph struct {
	dict    *Dict
	seen    map[[3]ID]struct{} // interned (s, p, o), for set semantics
	out     []adjacency        // subject ID   -> (predicate, object); [0] unused
	in      []adjacency        // object ID    -> (predicate, subject); [0] unused
	triples [][3]ID            // (s, p, o) in insertion order
	byPred  [][]int32          // predicate ID -> its triples' positions, in order
	nodes   []ID               // IRI subjects and objects, first-appearance order
}

// NewGraph returns an empty graph with its own term dictionary.
func NewGraph() *Graph {
	return &Graph{
		dict: NewDict(),
		seen: make(map[[3]ID]struct{}),
	}
}

// growDense extends s so that index n is addressable, amortising like
// append.
func growDense[T any](s []T, n int) []T {
	if n < len(s) {
		return s
	}
	if n < cap(s) {
		return s[:n+1]
	}
	ns := make([]T, n+1, max(n+1, 2*cap(s)))
	copy(ns, s)
	return ns
}

// adj returns the adjacency at id within s, or nil when id is beyond what
// has been indexed (a term with no edges in that direction).
func adj(s []adjacency, id ID) *adjacency {
	if int(id) < len(s) {
		return &s[id]
	}
	return nil
}

// Dict exposes the graph's term dictionary.
func (g *Graph) Dict() *Dict { return g.dict }

// Add inserts the triple (s, p, o). Duplicate insertions are ignored, and
// the method reports whether the triple was new. Subjects and predicates
// must be IRIs; objects may be IRIs or text literals.
func (g *Graph) Add(s, p, o Term) bool {
	if !s.IsIRI() || !p.IsIRI() {
		panic("rdf: subject and predicate must be IRIs: " + Triple{s, p, o}.String())
	}
	return g.insert([3]ID{g.dict.Intern(s), g.dict.Intern(p), g.dict.Intern(o)})
}

// AddIDs is Add over terms already interned in the graph's dictionary,
// for builders that intern a term once and use it in many triples.
func (g *Graph) AddIDs(s, p, o ID) bool {
	if !g.dict.Term(s).IsIRI() || !g.dict.Term(p).IsIRI() {
		panic("rdf: subject and predicate must be IRIs: " + g.triple([3]ID{s, p, o}).String())
	}
	return g.insert([3]ID{s, p, o})
}

// insert adds an interned triple to every index unless the graph holds it
// already.
func (g *Graph) insert(t [3]ID) bool {
	if _, dup := g.seen[t]; dup {
		return false
	}
	g.seen[t] = struct{}{}
	sid, pid, oid := t[0], t[1], t[2]
	g.noteNode(sid)
	g.out = growDense(g.out, int(sid))
	g.out[sid].add(pid, oid)

	if g.dict.Term(oid).IsIRI() {
		g.noteNode(oid)
	}
	g.in = growDense(g.in, int(oid))
	g.in[oid].add(pid, sid)

	g.byPred = growDense(g.byPred, int(pid))
	g.byPred[pid] = append(g.byPred[pid], int32(len(g.triples)))
	g.triples = append(g.triples, t)
	return true
}

// triple builds the Terms of an interned triple.
func (g *Graph) triple(t [3]ID) Triple {
	return Triple{S: g.dict.Term(t[0]), P: g.dict.Term(t[1]), O: g.dict.Term(t[2])}
}

// noteNode records id in the node order if it has no edge yet in either
// direction: this triple is its first appearance as a subject or object.
func (g *Graph) noteNode(id ID) {
	if a := adj(g.out, id); a != nil && len(a.edges) > 0 {
		return
	}
	if a := adj(g.in, id); a != nil && len(a.edges) > 0 {
		return
	}
	g.nodes = append(g.nodes, id)
}

// Has reports whether the triple (s, p, o) is in the graph.
func (g *Graph) Has(s, p, o Term) bool {
	sid, pid, oid := g.dict.Lookup(s), g.dict.Lookup(p), g.dict.Lookup(o)
	if sid == NoID || pid == NoID || oid == NoID {
		return false
	}
	_, ok := g.seen[[3]ID{sid, pid, oid}]
	return ok
}

// Len reports the number of distinct triples.
func (g *Graph) Len() int { return len(g.triples) }

// All iterates every triple in insertion order.
func (g *Graph) All() iter.Seq[Triple] {
	return func(yield func(Triple) bool) {
		for _, t := range g.triples {
			if !yield(g.triple(t)) {
				return
			}
		}
	}
}

// Objects returns all objects o such that (s, p, o) is in the graph, in
// insertion order.
func (g *Graph) Objects(s, p Term) []Term {
	sid, pid := g.dict.Lookup(s), g.dict.Lookup(p)
	if sid == NoID || pid == NoID {
		return nil
	}
	a := adj(g.out, sid)
	if a == nil {
		return nil
	}
	n := a.countPred(pid)
	if n == 0 {
		return nil
	}
	res := make([]Term, 0, n)
	a.forPred(pid, func(id ID) {
		res = append(res, g.dict.Term(id))
	})
	return res
}

// Object returns the first object o with (s, p, o) in the graph and whether
// one exists. Useful for functional predicates like "tablename". It walks
// the adjacency to the first match, so it never allocates.
func (g *Graph) Object(s, p Term) (Term, bool) {
	sid, pid := g.dict.Lookup(s), g.dict.Lookup(p)
	if sid == NoID || pid == NoID {
		return Term{}, false
	}
	a := adj(g.out, sid)
	if a == nil {
		return Term{}, false
	}
	if a.byPred != nil {
		if ends := a.byPred[pid]; len(ends) > 0 {
			return g.dict.Term(ends[0]), true
		}
		return Term{}, false
	}
	for _, e := range a.edges {
		if e.pred == pid {
			return g.dict.Term(e.end), true
		}
	}
	return Term{}, false
}

// Subjects returns all subjects s such that (s, p, o) is in the graph, in
// insertion order.
func (g *Graph) Subjects(p, o Term) []Term {
	pid, oid := g.dict.Lookup(p), g.dict.Lookup(o)
	if pid == NoID || oid == NoID {
		return nil
	}
	a := adj(g.in, oid)
	if a == nil {
		return nil
	}
	n := a.countPred(pid)
	if n == 0 {
		return nil
	}
	res := make([]Term, 0, n)
	a.forPred(pid, func(id ID) {
		res = append(res, g.dict.Term(id))
	})
	return res
}

// WithPredicate iterates every triple whose predicate is p, in insertion
// order.
func (g *Graph) WithPredicate(p Term) iter.Seq[Triple] {
	return func(yield func(Triple) bool) {
		it := g.PairIDs(g.dict.Lookup(p))
		for s, o, ok := it.Next(); ok; s, o, ok = it.Next() {
			if !yield(Triple{S: g.dict.Term(s), P: p, O: g.dict.Term(o)}) {
				return
			}
		}
	}
}

// Outgoing calls fn for every edge (p, o) leaving s, in insertion order,
// until fn returns false.
func (g *Graph) Outgoing(s Term, fn func(p, o Term) bool) {
	sid := g.dict.Lookup(s)
	if sid == NoID {
		return
	}
	a := adj(g.out, sid)
	if a == nil {
		return
	}
	for _, e := range a.edges {
		if !fn(g.dict.Term(e.pred), g.dict.Term(e.end)) {
			return
		}
	}
}

// OutgoingIDs calls fn for every edge (p, o) leaving the term with ID s,
// in insertion order, as dictionary IDs: Outgoing without the Term round
// trip, for callers that compile the graph into ID-indexed structures.
func (g *Graph) OutgoingIDs(s ID, fn func(p, o ID)) {
	if a := adj(g.out, s); a != nil {
		for _, e := range a.edges {
			fn(e.pred, e.end)
		}
	}
}

// Incoming calls fn for every edge (p, s) arriving at o, in insertion order,
// until fn returns false.
func (g *Graph) Incoming(o Term, fn func(p, s Term) bool) {
	oid := g.dict.Lookup(o)
	if oid == NoID {
		return
	}
	a := adj(g.in, oid)
	if a == nil {
		return
	}
	for _, e := range a.edges {
		if !fn(g.dict.Term(e.pred), g.dict.Term(e.end)) {
			return
		}
	}
}

// OutDegree returns the number of edges leaving s.
func (g *Graph) OutDegree(s Term) int {
	sid := g.dict.Lookup(s)
	if sid == NoID {
		return 0
	}
	if a := adj(g.out, sid); a != nil {
		return len(a.edges)
	}
	return 0
}

// InDegree returns the number of edges arriving at o.
func (g *Graph) InDegree(o Term) int {
	oid := g.dict.Lookup(o)
	if oid == NoID {
		return 0
	}
	if a := adj(g.in, oid); a != nil {
		return len(a.edges)
	}
	return 0
}

// Nodes returns every distinct IRI that appears as a subject or object, in
// first-appearance order.
func (g *Graph) Nodes() []Term {
	if len(g.nodes) == 0 {
		return nil
	}
	nodes := make([]Term, len(g.nodes))
	for i, id := range g.nodes {
		nodes[i] = g.dict.Term(id)
	}
	return nodes
}

// NodeIDs is Nodes as dictionary IDs. The returned slice is shared;
// callers must not modify it.
func (g *Graph) NodeIDs() []ID { return g.nodes }

// HasIDs is Has over dictionary IDs.
func (g *Graph) HasIDs(s, p, o ID) bool {
	_, ok := g.seen[[3]ID{s, p, o}]
	return ok
}

// Ends iterates, as dictionary IDs and in insertion order, the endpoints
// of one node's edges that carry one predicate: the ID-level Objects and
// Subjects, without a slice or a Term per step. The zero value is empty.
type Ends struct {
	ends  []ID   // the node's per-predicate list, when it has one
	edges []edge // else all the node's edges, filtered by pred
	pred  ID
}

// Next returns the next endpoint, or false when there is none.
func (it *Ends) Next() (ID, bool) {
	if len(it.ends) > 0 {
		id := it.ends[0]
		it.ends = it.ends[1:]
		return id, true
	}
	for len(it.edges) > 0 {
		e := it.edges[0]
		it.edges = it.edges[1:]
		if e.pred == it.pred {
			return e.end, true
		}
	}
	return NoID, false
}

func (a *adjacency) ends(p ID) Ends {
	switch {
	case a == nil:
		return Ends{}
	case a.byPred != nil:
		return Ends{ends: a.byPred[p]}
	default:
		return Ends{edges: a.edges, pred: p}
	}
}

// ObjectIDs iterates the objects o with (s, p, o) in the graph.
func (g *Graph) ObjectIDs(s, p ID) Ends { return adj(g.out, s).ends(p) }

// SubjectIDs iterates the subjects s with (s, p, o) in the graph.
func (g *Graph) SubjectIDs(p, o ID) Ends { return adj(g.in, o).ends(p) }

// Pairs iterates the (subject, object) IDs of every triple with one
// predicate, in insertion order: the ID-level WithPredicate. The zero
// value is empty.
type Pairs struct {
	at      []int32 // positions in triples still to visit
	triples [][3]ID
}

// Next returns the next pair, or false when there is none.
func (it *Pairs) Next() (s, o ID, ok bool) {
	if len(it.at) == 0 {
		return NoID, NoID, false
	}
	t := it.triples[it.at[0]]
	it.at = it.at[1:]
	return t[0], t[2], true
}

// Len reports how many pairs are left.
func (it *Pairs) Len() int { return len(it.at) }

// PairIDs iterates the triples whose predicate has ID p.
func (g *Graph) PairIDs(p ID) Pairs {
	if int(p) >= len(g.byPred) {
		return Pairs{}
	}
	return Pairs{at: g.byPred[p], triples: g.triples}
}

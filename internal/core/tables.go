package core

import (
	"slices"
	"sort"

	"soda/internal/metagraph"
	"soda/internal/rdf"
)

// tablesStep implements Step 3 (Figure 4). Three parts, per §4.2.1
// "Application in SODA":
//
//  1. From every entry point, recursively follow all outgoing edges in the
//     metadata graph; at each node test the Table, Column and Inheritance
//     Child patterns and collect table names (including inheritance
//     parents, "because this table is needed to produce correct SQL").
//     The union of these sets is the tables-step output shown to the user
//     (Figure 6).
//  2. Identify the joins needed to connect the tables: of all join
//     conditions discoverable through the Foreign Key / Join-Relationship
//     patterns, use those on a *direct path between the entry points*
//     (Figure 9); join conditions merely "attached" to such a path are
//     ignored. Each entry point's anchor is its nearest table (the first
//     one its traversal discovers).
//  3. Bridge tables — physical implementations of N-to-N relationships
//     with two outgoing foreign keys — connect entry points that have no
//     plain FK path (financial_instruments ↔ securities); they also
//     faithfully reproduce the paper's failure mode where bridges between
//     inheritance siblings (Figure 10) hijack the join path (Q5.0, Q9.0)
//     unless annotated with ignore_join (§5.3.1).
//
// It runs for each solution of a batch, the solutions of one analysis. A
// solution's lists are gathered in pooled scratch, its discovery view as
// table IDs. Once the batch is done, one slab per element type holds
// every solution's lists, each a capped window of it, because ensureTable
// appends to SQLTables and Joins later. An empty list stays nil.
func (s *System) tablesStep(sols []*Solution) {
	jg := s.joinGraphCached()
	sc := tablesPool.Get().(*tablesScratch)
	defer tablesPool.Put(sc)
	sc.tables, sc.strs, sc.joins, sc.ends = sc.tables[:0], sc.strs[:0], sc.joins[:0], sc.ends[:0]
	for _, sol := range sols {
		s.gatherTables(jg, sc, sol)
	}
	tables, strs, joins := slices.Clone(sc.tables), slices.Clone(sc.strs), slices.Clone(sc.joins)
	var at tablesEnds
	for i, sol := range sols {
		end := sc.ends[i]
		sol.tables, sol.catalog = window(tables, at.tables, end.tables), jg.tables
		sol.Primaries = window(strs, at.sqlTables, end.primaries)
		sol.SQLTables = window(strs, end.primaries, end.sqlTables)
		sol.Joins = window(joins, at.joins, end.joins)
		at = end
	}
}

// gatherTables runs Step 3 for one solution: it sets sol.Disconnected and
// appends the solution's lists to sc's batch lists.
func (s *System) gatherTables(jg *joinGraph, sc *tablesScratch, sol *Solution) {
	m := s.model
	it := jg.tables
	sc.discovered.reset(it.size())
	sc.inSQL.reset(it.size())
	sc.edgeSeen.reset(len(jg.edges))

	// Part 1: the discovery view is the union of the entries' table
	// lists, prefilled per node by the compiled model and deduplicated
	// here by table ID. It can run to hundreds of tables. Each entry's
	// anchor is the first table of its own list. Every table a base-data
	// entry names is interned (buildDerived), so every entry has an ID.
	tables := sc.tables
	addDiscovered := func(id int32) {
		if sc.discovered.add(id) {
			tables = append(tables, id)
		}
	}
	strs := sc.strs
	primIDs := sc.primIDs[:0]
	for _, e := range sol.Entries {
		et := m.entryTables(e)
		if et.lead != "" {
			addDiscovered(et.leadID)
		}
		for _, run := range et.runs {
			for _, id := range run {
				addDiscovered(id)
			}
		}
		if id, name, ok := et.first(it); ok {
			strs = append(strs, name)
			primIDs = append(primIDs, id)
		}
	}
	primaries := len(strs)

	// Discovery view of bridges: a bridge between two discovered tables
	// is part of the Figure 6 output.
	if !s.Opt.DisableBridges {
		for _, br := range s.bridgeIDs {
			if sc.discovered.has(br.left) && sc.discovered.has(br.right) {
				addDiscovered(br.bridge)
			}
		}
	}

	// Part 2+3: joins on direct paths between the anchors, walking the
	// global join graph built from the Foreign Key / Join-Relationship
	// patterns (bridge edges included unless ablated).
	sqlIDs := sc.sqlIDs[:0]
	addSQLTable := func(id int32) {
		if sc.inSQL.add(id) {
			strs = append(strs, it.name(id))
			sqlIDs = append(sqlIDs, id)
		}
	}
	// Joins are deduplicated by edge index: every join emitted below is
	// some edge's join(), and distinct non-ignored edges always render
	// distinct Join values (identical tuples were merged at build time).
	joins := sc.joins
	joinEdges := sc.joinEdges[:0]
	addJoinEdge := func(ei int32) {
		if !sc.edgeSeen.add(ei) {
			return
		}
		e := &jg.edges[ei]
		joins = append(joins, e.join())
		joinEdges = append(joinEdges, ei)
		addSQLTable(e.t1id)
		addSQLTable(e.t2id)
	}
	for _, id := range primIDs {
		addSQLTable(id)
	}

	for i := 0; i < len(primIDs); i++ {
		for j := i + 1; j < len(primIDs); j++ {
			if primIDs[i] == primIDs[j] {
				continue
			}
			path, ok := jg.pathIDs(sc.path[:0], primIDs[i:i+1], primIDs[j], s.Opt.DisableBridges)
			sc.path = path
			if !ok {
				sol.Disconnected = true
				continue
			}
			for _, ei := range path {
				addJoinEdge(ei)
			}
		}
	}

	// Business-object closure: an anchored table is joined upward along
	// its outgoing foreign keys and inheritance links — the paper's
	// Query 1 selects FROM parties, individuals even though both keywords
	// hit individuals, and a hit in a historised satellite table joins up
	// to its entity. N-to-1 joins over total foreign keys preserve the
	// result rows while completing the business object; this is also
	// where the bi-temporal snapshot trap of §5.2.1 bites (the modelled
	// snapshot join silently drops historic versions). The closure of a
	// root table is a pure function of the join graph, so it is computed
	// for every table at build (joinGraph.closures) and replayed here.
	// Bridge edges are excluded from it — following a bridge would jump
	// to an unrelated entity, not complete the current one — and it is
	// capped to keep FROM lists sane on pathological schemas.
	for _, root := range primIDs {
		for _, step := range jg.closures[root] {
			addSQLTable(step.tbl)
			addJoinEdge(step.ei)
		}
	}

	// Ablation: keep every join between the SQL tables (Figure 9 off).
	if s.Opt.AllJoins {
		for i := range jg.edges {
			e := &jg.edges[i]
			if e.ignored {
				continue
			}
			if sc.inSQL.has(e.t1id) && sc.inSQL.has(e.t2id) {
				addJoinEdge(int32(i))
			}
		}
	}

	if !jg.connectedIDs(sc, sqlIDs, joinEdges) {
		sol.Disconnected = true
	}
	sc.ends = append(sc.ends, tablesEnds{tables: len(tables), primaries: primaries, sqlTables: len(strs), joins: len(joins)})
	sc.tables, sc.strs, sc.joins = tables, strs, joins
	sc.primIDs, sc.sqlIDs, sc.joinEdges = primIDs, sqlIDs, joinEdges
}

// window returns slab[lo:hi] capped, so an append copies it out, or nil
// when it is empty.
func window[T any](slab []T, lo, hi int) []T {
	if lo == hi {
		return nil
	}
	return slab[lo:hi:hi]
}

// ---- Join graph -----------------------------------------------------

// jgEdge is one join condition in the global join graph. Besides the
// semantic fields, each edge carries the interned IDs of its endpoint
// tables, assigned once at build time.
type jgEdge struct {
	t1, c1, t2, c2 string
	via            string // "fk", "joinrel", "inheritance", "bridge"
	ignored        bool
	t1id, t2id     int32 // interned table IDs of t1/t2
}

func (e jgEdge) join() Join {
	return Join{LeftTable: e.t1, LeftCol: e.c1, RightTable: e.t2, RightCol: e.c2, Via: e.via}
}

// joinGraph is the precomputed global join graph. All adjacency is
// indexed by interned table ID:
//
//	adjAll — every edge (ignored included) in insertion order, the raw
//	         discovery view (Browse renders from this);
//	adj    — traversable edges, pre-sorted in (neighbour, edge-index)
//	         order, exactly the order the BFS used to sort out per visit;
//	adjNB  — adj without bridge edges (the DisableBridges ablation);
//	fkOut  — outgoing FK/inheritance edges (t1 == table, bridges
//	         excluded) in the (t2 name, c1) order fkUpwardClosure used to
//	         sort out per node.
//
// closures holds every table's FK upward closure (computeClosure).
type joinGraph struct {
	edges    []jgEdge
	tables   *tableInterner
	adjAll   [][]int32
	adj      [][]jgArc
	adjNB    [][]jgArc
	fkOut    [][]jgArc
	closures [][]closureStep
}

// bridgeRel is one discovered bridge table with its two FK targets.
type bridgeRel struct {
	bridge            string
	leftCol, rightCol string
	left, right       ColRef
	ignored           bool
}

// buildDerived computes the one-time derived structures: the table
// interner (everything else speaks interned IDs; the indexed tables the
// schema graph does not name join it last), the compiled schema
// model (model.go: Step 1's label table, every node's Step 3 table list
// and resolved column), bridge tables (the join graph tags edges touching
// them), the global join graph with every table's FK upward closure, and
// the interned view of the bridge list. It runs exactly once per System,
// through derivedOnce; query time only reads what it built.
//
// Everything before the label table's base-data hits reads only the
// metadata graph. The hits read the inverted index, so they come last:
// under NewSystemIndexing the index build runs while the rest compiles,
// and joins here.
func (s *System) buildDerived() {
	it := s.buildTableInterner()
	s.model = s.compileModel(it)
	s.bridgeMemo = s.findBridges()
	s.jg = s.buildJoinGraph(it)
	var bids []discoveredBridge
	for _, br := range s.bridgeMemo {
		if br.ignored {
			continue
		}
		l, r, b := it.id(br.left.Table), it.id(br.right.Table), it.id(br.bridge)
		if l < 0 || r < 0 || b < 0 {
			continue // bridge endpoints always resolve via the schema graph
		}
		bids = append(bids, discoveredBridge{left: l, right: r, bridge: b})
	}
	s.bridgeIDs = bids
	// A base-data hit can name a table the schema graph does not: it
	// takes the next free ID, so every entry point's tables have one.
	// No join edge reaches it.
	idx := s.Index()
	for _, name := range idx.Tables() {
		if it.id(name) < 0 {
			s.model.baseTables[name] = baseTable{id: it.add(name)}
		}
	}
	s.jg.cover(it.size())
	// The index's own table answers a label that is a token or a stored
	// value; for the rest (physical names such as a001_t6_td) this is the
	// one time their words are intersected.
	for l, f := range s.model.labels {
		f.hits = idx.Hits(l)
		s.model.labels[l] = f
	}
}

// cover gives each table the interner added after the graph was built
// its empty adjacency and closure, so every per-table slice spans n IDs.
func (g *joinGraph) cover(n int) {
	extra := n - len(g.adj)
	g.adjAll = append(g.adjAll, make([][]int32, extra)...)
	g.adj = append(g.adj, make([][]jgArc, extra)...)
	g.adjNB = append(g.adjNB, make([][]jgArc, extra)...)
	g.fkOut = append(g.fkOut, make([][]jgArc, extra)...)
	g.closures = append(g.closures, make([][]closureStep, extra)...)
}

// joinGraphCached returns the global join graph, building it on first use.
func (s *System) joinGraphCached() *joinGraph {
	s.derivedOnce.Do(s.buildDerived)
	return s.jg
}

// bridgesCached returns the discovered bridge tables, building on first use.
func (s *System) bridgesCached() []bridgeRel {
	s.derivedOnce.Do(s.buildDerived)
	return s.bridgeMemo
}

// buildJoinGraph matches the Foreign Key and Join-Relationship patterns
// across the whole metadata graph, honouring ignore_join annotations
// (§5.3.1). Edges touching a bridge table are tagged via="bridge" so the
// Figure 9 pathfinding can be ablated separately. After edge discovery
// it precomputes the ID-indexed adjacency views (see joinGraph): the
// deterministic neighbour orders that shortestPath and fkUpwardClosure
// used to establish per visit are fixed here, once.
func (s *System) buildJoinGraph(it *tableInterner) *joinGraph {
	bridgeTables := make(map[string]bool)
	for _, br := range s.bridgeMemo {
		bridgeTables[br.bridge] = true
	}

	jg := &joinGraph{tables: it}
	ignorePred := rdf.NewIRI(metagraph.PredIgnoreJoin)

	// Dedup on the semantic fields only (t1id/t2id are derived).
	type edgeKey struct {
		t1, c1, t2, c2, via string
		ignored             bool
	}
	seen := make(map[edgeKey]bool)

	addEdge := func(fkCol, pkCol rdf.Term, extraIgnore bool) {
		fkRef, ok1 := s.columnRef(fkCol)
		pkRef, ok2 := s.columnRef(pkCol)
		if !ok1 || !ok2 || fkRef.Table == pkRef.Table {
			return
		}
		ignored := extraIgnore ||
			s.Meta.G.Has(fkCol, ignorePred, rdf.NewText("true")) ||
			s.Meta.G.Has(pkCol, ignorePred, rdf.NewText("true"))
		via := "fk"
		switch {
		case bridgeTables[fkRef.Table] || bridgeTables[pkRef.Table]:
			via = "bridge"
		case s.isInheritanceLink(fkRef.Table, pkRef.Table):
			via = "inheritance"
		}
		k := edgeKey{t1: fkRef.Table, c1: fkRef.Column, t2: pkRef.Table, c2: pkRef.Column, via: via, ignored: ignored}
		if seen[k] {
			return
		}
		seen[k] = true
		jg.edges = append(jg.edges, jgEdge{
			t1: k.t1, c1: k.c1, t2: k.t2, c2: k.c2, via: via, ignored: ignored,
			t1id: it.id(k.t1), t2id: it.id(k.t2),
		})
	}

	// Simple foreign keys (Figure 8).
	for _, b := range s.matcher.FindAll(s.Reg.Get(metagraph.PatForeignKey)) {
		x, _ := b.Get("x")
		y, _ := b.Get("y")
		addEdge(x, y, false)
	}
	// Explicit join nodes (the Credit Suisse Join-Relationship pattern).
	for _, b := range s.matcher.FindAll(s.Reg.Get(metagraph.PatJoinRelationship)) {
		x, _ := b.Get("x") // the join node
		f, _ := b.Get("f")
		p, _ := b.Get("p")
		ignored := s.Meta.G.Has(x, ignorePred, rdf.NewText("true"))
		addEdge(f, p, ignored)
	}

	// Raw adjacency: every edge, under both endpoints, insertion order.
	n := it.size()
	jg.adjAll = make([][]int32, n)
	for i := range jg.edges {
		e := &jg.edges[i]
		if e.t1id >= 0 {
			jg.adjAll[e.t1id] = append(jg.adjAll[e.t1id], int32(i))
		}
		if e.t2id >= 0 {
			jg.adjAll[e.t2id] = append(jg.adjAll[e.t2id], int32(i))
		}
	}

	// Traversal views with the per-visit orders baked in.
	jg.adj = make([][]jgArc, n)
	jg.adjNB = make([][]jgArc, n)
	jg.fkOut = make([][]jgArc, n)
	for t := int32(0); t < int32(n); t++ {
		for _, ei := range jg.adjAll[t] {
			e := &jg.edges[ei]
			if e.ignored {
				continue
			}
			next := e.t1id
			if next == t {
				next = e.t2id
			}
			arc := jgArc{next: next, ei: ei}
			jg.adj[t] = append(jg.adj[t], arc)
			if e.via != "bridge" {
				jg.adjNB[t] = append(jg.adjNB[t], arc)
				if e.t1id == t {
					jg.fkOut[t] = append(jg.fkOut[t], jgArc{next: e.t2id, ei: ei})
				}
			}
		}
		// BFS expansion order: neighbour, then edge index. IDs are
		// assigned in sorted-name order, so comparing IDs compares names.
		sortArcs(jg.adj[t])
		sortArcs(jg.adjNB[t])
		// FK closure order: referenced table name, then FK column name —
		// the same sort.Slice call fkUpwardClosure ran per visit, applied
		// to the same insertion-order candidate list, so ties resolve to
		// the identical permutation.
		fk := jg.fkOut[t]
		sort.Slice(fk, func(i, j int) bool {
			a, b := &jg.edges[fk[i].ei], &jg.edges[fk[j].ei]
			if a.t2 != b.t2 {
				return a.t2 < b.t2
			}
			return a.c1 < b.c1
		})
	}
	jg.closures = make([][]closureStep, n)
	var sc closureScratch
	for t := int32(0); t < int32(n); t++ {
		jg.closures[t] = jg.computeClosure(t, &sc)
	}
	return jg
}

// sortArcs orders an adjacency list by (neighbour, edge index) — a total
// order, so the result is unique regardless of sort stability.
func sortArcs(arcs []jgArc) {
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].next != arcs[j].next {
			return arcs[i].next < arcs[j].next
		}
		return arcs[i].ei < arcs[j].ei
	})
}

// columnRef resolves a column node to (table, column) without traversal.
func (s *System) columnRef(col rdf.Term) (ColRef, bool) {
	cname, ok := s.Meta.ColumnName(col)
	if !ok {
		return ColRef{}, false
	}
	tbl, ok := s.Meta.ColumnTable(col)
	if !ok {
		return ColRef{}, false
	}
	tname, ok := s.Meta.TableName(tbl)
	if !ok {
		return ColRef{}, false
	}
	return ColRef{Table: tname, Column: cname}, true
}

// isInheritanceLink reports whether child/parent tables participate in the
// same inheritance node.
func (s *System) isInheritanceLink(childTable, parentTable string) bool {
	child, ok := s.model.tableNode(childTable)
	if !ok {
		return false
	}
	for _, b := range s.matcher.MatchName(metagraph.PatInheritanceChild, child) {
		if p, ok := b.Get("p"); ok {
			if name, ok := s.Meta.TableName(p); ok && name == parentTable {
				return true
			}
		}
	}
	return false
}

// findBridges finds every bridge table: tables matching the Bridge Table
// pattern with two foreign keys into *different* tables.
func (s *System) findBridges() []bridgeRel {
	var out []bridgeRel
	seen := make(map[string]bool)
	ignorePred := rdf.NewIRI(metagraph.PredIgnoreJoin)
	for _, b := range s.matcher.FindAll(s.Reg.Get(metagraph.PatBridgeTable)) {
		x, _ := b.Get("x")
		name, ok := s.Meta.TableName(x)
		if !ok || seen[name] {
			continue
		}
		// Re-match at the node to get all column pairings.
		for _, bb := range s.matcher.MatchName(metagraph.PatBridgeTable, x) {
			c1, _ := bb.Get("c1")
			c2, _ := bb.Get("c2")
			p1, _ := bb.Get("p1")
			p2, _ := bb.Get("p2")
			if c1 == c2 {
				continue // the pattern cannot express ≠, we can
			}
			l, ok1 := s.columnRef(p1)
			r, ok2 := s.columnRef(p2)
			if !ok1 || !ok2 || l.Table == r.Table || l.Table == name || r.Table == name {
				continue
			}
			lc, _ := s.Meta.ColumnName(c1)
			rc, _ := s.Meta.ColumnName(c2)
			ignored := s.Meta.G.Has(x, ignorePred, rdf.NewText("true")) ||
				s.Meta.G.Has(c1, ignorePred, rdf.NewText("true")) ||
				s.Meta.G.Has(c2, ignorePred, rdf.NewText("true"))
			// Canonical orientation to avoid duplicates from symmetric
			// bindings.
			if l.Table > r.Table {
				l, r = r, l
				lc, rc = rc, lc
			}
			rel := bridgeRel{bridge: name, leftCol: lc, rightCol: rc, left: l, right: r, ignored: ignored}
			dup := false
			for _, have := range out {
				if have.bridge == rel.bridge && have.left == rel.left && have.right == rel.right {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, rel)
			}
		}
		seen[name] = true
	}
	return out
}

// The string-map shortestPath / connectedUnder / fkUpwardClosure that
// used to live here survive verbatim as the reference oracle in
// tables_reference_test.go; the serving path runs their interned
// equivalents (pathing.go), equivalence enforced by randomized tests.

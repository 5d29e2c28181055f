package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"soda/internal/backend"
	"soda/internal/backend/memory"
	"soda/internal/invidx"
	"soda/internal/metagraph"
	"soda/internal/rdf"
)

// The pre-interning Step 3 survives here verbatim as a reference oracle:
// string-map scratch, per-visit candidate sorts, no memoization. The
// randomized tests below drive the optimized tablesStep/multiPath and
// this oracle over random metagraphs and query mixes and require
// identical output — the guarantee that interning, pre-sorted adjacency
// and precomputed closures changed the cost of Step 3, not its semantics.

// refJoinView rebuilds the old string-keyed adjacency over the shared
// edge list. Edges were appended to adj[t1]/adj[t2] at insertion, so
// rebuilding in index order reproduces the old lists exactly.
type refJoinView struct {
	edges []jgEdge
	adj   map[string][]int
}

func newRefJoinView(jg *joinGraph) *refJoinView {
	v := &refJoinView{edges: jg.edges, adj: make(map[string][]int)}
	for i, e := range jg.edges {
		v.adj[e.t1] = append(v.adj[e.t1], i)
		v.adj[e.t2] = append(v.adj[e.t2], i)
	}
	return v
}

// refTablesStep is the old tablesStep, verbatim, except that it returns
// the discovery view, which a Solution holds as table IDs.
func refTablesStep(s *System, sol *Solution) []string {
	jg := newRefJoinView(s.joinGraphCached())

	rt := newRefTables(s)
	entrySets := make([][]string, len(sol.Entries))
	discovered := make(map[string]bool)
	var tables []string
	addDiscovered := func(t string) {
		if t != "" && !discovered[t] {
			discovered[t] = true
			tables = append(tables, t)
		}
	}
	for i, e := range sol.Entries {
		set := rt.entryTables(e)
		entrySets[i] = set
		for _, t := range set {
			addDiscovered(t)
		}
	}

	if !s.Opt.DisableBridges {
		for _, br := range s.bridgesCached() {
			if br.ignored {
				continue
			}
			if discovered[br.left.Table] && discovered[br.right.Table] {
				addDiscovered(br.bridge)
			}
		}
	}

	var primaries []string
	for _, set := range entrySets {
		if len(set) > 0 {
			primaries = append(primaries, set[0])
		}
	}
	sol.Primaries = primaries

	inSQL := make(map[string]bool)
	var sqlTables []string
	addSQLTable := func(t string) {
		if t != "" && !inSQL[t] {
			inSQL[t] = true
			sqlTables = append(sqlTables, t)
		}
	}
	joinSeen := make(map[Join]bool)
	var joins []Join
	addJoin := func(j Join) {
		if joinSeen[j] {
			return
		}
		joinSeen[j] = true
		joins = append(joins, j)
		addSQLTable(j.LeftTable)
		addSQLTable(j.RightTable)
	}
	for _, p := range primaries {
		addSQLTable(p)
	}

	for i := 0; i < len(primaries); i++ {
		for j := i + 1; j < len(primaries); j++ {
			if primaries[i] == primaries[j] {
				continue
			}
			path, ok := refShortestPath(jg,
				[]string{primaries[i]}, []string{primaries[j]}, s.Opt.DisableBridges)
			if !ok {
				sol.Disconnected = true
				continue
			}
			for _, e := range path {
				addJoin(e.join())
			}
		}
	}

	for _, p := range primaries {
		refFkUpwardClosure(jg, p, addJoin, addSQLTable)
	}

	if s.Opt.AllJoins {
		for _, e := range jg.edges {
			if e.ignored {
				continue
			}
			if inSQL[e.t1] && inSQL[e.t2] {
				addJoin(e.join())
			}
		}
	}

	sol.SQLTables = sqlTables
	sol.Joins = joins
	if !refConnectedUnder(sqlTables, joins) {
		sol.Disconnected = true
	}
	return tables
}

// refFkUpwardClosure is the old fkUpwardClosure, verbatim.
func refFkUpwardClosure(jg *refJoinView, table string, addJoin func(Join), addTable func(string)) {
	const maxClosure = 16
	visited := map[string]bool{table: true}
	queue := []string{table}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		var outs []jgEdge
		for _, ei := range jg.adj[cur] {
			e := jg.edges[ei]
			if e.ignored || e.via == "bridge" || e.t1 != cur {
				continue
			}
			outs = append(outs, e)
		}
		sort.Slice(outs, func(i, j int) bool {
			if outs[i].t2 != outs[j].t2 {
				return outs[i].t2 < outs[j].t2
			}
			return outs[i].c1 < outs[j].c1
		})
		followed := make(map[string]bool)
		for _, e := range outs {
			if len(visited) >= maxClosure {
				return
			}
			if followed[e.t2] {
				continue
			}
			followed[e.t2] = true
			addTable(e.t2)
			addJoin(e.join())
			if !visited[e.t2] {
				visited[e.t2] = true
				queue = append(queue, e.t2)
			}
		}
	}
}

// refTables is the old traversal state of one System: the tables the
// patterns collect at each node, the old System.tablesAt, filled here on
// first visit instead of for every node up front.
type refTables struct {
	s  *System
	at map[rdf.Term][]string
}

func newRefTables(s *System) *refTables {
	return &refTables{s: s, at: make(map[rdf.Term][]string)}
}

// tablesAt returns refCollectAtNode's tables at one node.
func (r *refTables) tablesAt(node rdf.Term) []string {
	tables, ok := r.at[node]
	if !ok {
		refCollectAtNode(r.s, node, func(t string) { tables = append(tables, t) })
		r.at[node] = tables
	}
	return tables
}

// entryTables is the old computeEntryTables, verbatim, without its cache.
func (r *refTables) entryTables(e EntryPoint) []string {
	s := r.s
	collected := make(map[string]bool)
	var out []string
	add := func(t string) {
		if t != "" && !collected[t] {
			collected[t] = true
			out = append(out, t)
		}
	}

	if e.Kind == KindBaseData {
		add(e.Table)
		if tblNode, ok := refFindTableNode(s, e.Table); ok {
			refCollectInheritanceParents(s, tblNode, add)
		}
		if colNode, ok := refFindColumnNode(s, e.Table, e.Column); ok {
			r.traverse(colNode, add)
		}
		return out
	}
	r.traverse(e.Node, add)
	return out
}

// traverse is the old traverse, verbatim: a BFS over outgoing IRI edges
// replaying the tables collected at every visited node.
func (r *refTables) traverse(start rdf.Term, add func(string)) {
	visited := map[rdf.Term]bool{start: true}
	queue := []rdf.Term{start}
	for head := 0; head < len(queue); head++ {
		node := queue[head]

		for _, t := range r.tablesAt(node) {
			add(t)
		}

		r.s.Meta.G.Outgoing(node, func(p, o rdf.Term) bool {
			if !o.IsIRI() || visited[o] {
				return true
			}
			visited[o] = true
			queue = append(queue, o)
			return true
		})
	}
}

// refCollectAtNode is the old collectAtNode, verbatim: the Table, Column
// and Inheritance Child patterns tested at one node.
func refCollectAtNode(s *System, node rdf.Term, add func(string)) {
	if name, ok := refTableOfNode(s, node); ok {
		add(name)
		refCollectInheritanceParents(s, node, add)
		return
	}
	if bs := s.matcher.MatchName(metagraph.PatColumn, node); len(bs) > 0 {
		if z, ok := bs[0].Get("z"); ok {
			if name, ok := refTableOfNode(s, z); ok {
				add(name)
				refCollectInheritanceParents(s, z, add)
			}
		}
	}
}

// refCollectInheritanceParents is the old collectInheritanceParents,
// verbatim.
func refCollectInheritanceParents(s *System, node rdf.Term, add func(string)) {
	for depth := 0; depth < 8; depth++ {
		bs := s.matcher.MatchName(metagraph.PatInheritanceChild, node)
		if len(bs) == 0 {
			return
		}
		parent, ok := bs[0].Get("p")
		if !ok {
			return
		}
		if name, ok := refTableOfNode(s, parent); ok {
			add(name)
		}
		node = parent
	}
}

// refTableOfNode is the old tableOfNode without its memo: the Table
// pattern matcher.
func refTableOfNode(s *System, node rdf.Term) (string, bool) {
	if s.matcher.MatchesName(metagraph.PatTable, node) {
		if n, ok := s.Meta.TableName(node); ok && n != "" {
			return n, true
		}
	}
	return "", false
}

var refColumnFollowPreds = map[string]bool{
	metagraph.PredImplements:   true,
	metagraph.PredClassifies:   true,
	metagraph.PredRefersTo:     true,
	metagraph.PredSubConceptOf: true,
}

// refResolveColumn is the old resolveColumn without its memo, verbatim:
// a BFS over the refinement predicates to the first physical column.
func refResolveColumn(s *System, node rdf.Term) (ColRef, bool) {
	visited := map[rdf.Term]bool{node: true}
	queue := []rdf.Term{node}
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		if r, ok := s.columnRef(n); ok {
			return r, true
		}
		s.Meta.G.Outgoing(n, func(p, o rdf.Term) bool {
			if !refColumnFollowPreds[p.Value()] {
				return true
			}
			if o.IsIRI() && !visited[o] {
				visited[o] = true
				queue = append(queue, o)
			}
			return true
		})
	}
	return ColRef{}, false
}

// refFindTableNode is the old findTableNode, verbatim.
func refFindTableNode(s *System, table string) (rdf.Term, bool) {
	node := rdf.NewIRI("tbl:" + table)
	if _, ok := s.Meta.TypeOf(node); ok {
		return node, true
	}
	return rdf.Term{}, false
}

// refFindColumnNode is the old findColumnNode, verbatim.
func refFindColumnNode(s *System, table, column string) (rdf.Term, bool) {
	node := rdf.NewIRI("col:" + table + "." + column)
	if _, ok := s.Meta.TypeOf(node); ok {
		return node, true
	}
	return rdf.Term{}, false
}

// refShortestPath is the old joinGraph.shortestPath, without its path
// length bound.
func refShortestPath(g *refJoinView, src, dst []string, skipBridges bool) ([]jgEdge, bool) {
	dstSet := make(map[string]bool, len(dst))
	for _, t := range dst {
		dstSet[t] = true
	}
	type state struct {
		table string
		via   int
		prev  int
	}
	var states []state
	visited := make(map[string]bool)
	queue := []int{}
	srcSorted := append([]string(nil), src...)
	sort.Strings(srcSorted)
	for _, t := range srcSorted {
		if visited[t] {
			continue
		}
		visited[t] = true
		states = append(states, state{table: t, via: -1, prev: -1})
		queue = append(queue, len(states)-1)
	}
	for len(queue) > 0 {
		si := queue[0]
		queue = queue[1:]
		st := states[si]
		if dstSet[st.table] {
			var path []jgEdge
			for cur := si; states[cur].via >= 0; cur = states[cur].prev {
				path = append(path, g.edges[states[cur].via])
			}
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			return path, true
		}
		type cand struct {
			next string
			ei   int
		}
		var cands []cand
		for _, ei := range g.adj[st.table] {
			e := g.edges[ei]
			if e.ignored || (skipBridges && e.via == "bridge") {
				continue
			}
			next := e.t1
			if next == st.table {
				next = e.t2
			}
			if visited[next] {
				continue
			}
			cands = append(cands, cand{next: next, ei: ei})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].next != cands[j].next {
				return cands[i].next < cands[j].next
			}
			return cands[i].ei < cands[j].ei
		})
		for _, c := range cands {
			if visited[c.next] {
				continue
			}
			visited[c.next] = true
			states = append(states, state{table: c.next, via: c.ei, prev: si})
			queue = append(queue, len(states)-1)
		}
	}
	return nil, false
}

// refConnectedUnder is the old connectedUnder, verbatim.
func refConnectedUnder(tables []string, joins []Join) bool {
	if len(tables) <= 1 {
		return true
	}
	adj := make(map[string][]string)
	for _, j := range joins {
		adj[j.LeftTable] = append(adj[j.LeftTable], j.RightTable)
		adj[j.RightTable] = append(adj[j.RightTable], j.LeftTable)
	}
	visited := map[string]bool{tables[0]: true}
	queue := []string{tables[0]}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		for _, n := range adj[t] {
			if !visited[n] {
				visited[n] = true
				queue = append(queue, n)
			}
		}
	}
	for _, t := range tables {
		if !visited[t] {
			return false
		}
	}
	return true
}

// ---- Randomized equivalence ----------------------------------------

// randWorld is one random metagraph with handles the test draws entry
// points from.
type randWorld struct {
	meta      *metagraph.Graph
	tables    []string   // physical table names
	tableNode []rdf.Term // table metadata nodes, aligned with tables
	colNodes  []rdf.Term // all column nodes
	cols      [][]string // column names per table
	metaNodes []rdf.Term // entity/concept/dbpedia nodes
}

// buildRandomWorld generates a random schema: tables with columns,
// random FK and join-relationship edges (two FKs out of one table create
// bridge candidates organically), an inheritance family, random
// ignore_join annotations, and a metadata layer cake of entities,
// concepts and DBpedia entries pointing into it.
func buildRandomWorld(r *rand.Rand) *randWorld {
	b := metagraph.NewBuilder()
	w := &randWorld{}

	nTables := 3 + r.Intn(8)
	for t := 0; t < nTables; t++ {
		name := "t" + string(rune('a'+t))
		node := b.PhysicalTable(name)
		w.tables = append(w.tables, name)
		w.tableNode = append(w.tableNode, node)
		nCols := 2 + r.Intn(4)
		var names []string
		for c := 0; c < nCols; c++ {
			cn := "c" + string(rune('0'+c))
			col := b.PhysicalColumn(node, cn, "varchar")
			w.colNodes = append(w.colNodes, col)
			names = append(names, cn)
		}
		w.cols = append(w.cols, names)
	}

	// Random FK / join-relationship edges between random column pairs.
	nEdges := r.Intn(2 * nTables)
	for i := 0; i < nEdges; i++ {
		fk := w.colNodes[r.Intn(len(w.colNodes))]
		pk := w.colNodes[r.Intn(len(w.colNodes))]
		switch r.Intn(3) {
		case 0:
			jn := b.JoinRelationship(fk, pk)
			if r.Intn(4) == 0 {
				b.IgnoreJoin(jn)
			}
		default:
			b.ForeignKey(fk, pk)
			if r.Intn(6) == 0 {
				b.IgnoreJoin(fk)
			}
		}
	}

	// One inheritance family when the schema is big enough.
	if nTables >= 4 && r.Intn(2) == 0 {
		parent := w.tableNode[0]
		kids := []rdf.Term{w.tableNode[1], w.tableNode[2]}
		if nTables > 4 && r.Intn(2) == 0 {
			kids = append(kids, w.tableNode[3])
		}
		b.Inheritance(parent, kids...)
	}

	// Metadata layers above random physical nodes.
	nMeta := 1 + r.Intn(4)
	for i := 0; i < nMeta; i++ {
		target := w.tableNode[r.Intn(len(w.tableNode))]
		if r.Intn(2) == 0 {
			target = w.colNodes[r.Intn(len(w.colNodes))]
		}
		switch r.Intn(3) {
		case 0:
			e := b.LogicalEntity("ent", "ent")
			b.Implements(e, target)
			w.metaNodes = append(w.metaNodes, e)
		case 1:
			c := b.ConceptEntity("con", "con")
			b.Implements(c, target)
			oc := b.OntologyConcept("onto", []rdf.Term{c}, "onto")
			w.metaNodes = append(w.metaNodes, c, oc)
		default:
			d := b.DBpediaEntry("dbp", target)
			w.metaNodes = append(w.metaNodes, d)
		}
	}

	w.meta = b.Graph()
	return w
}

// ghostDB returns a database with one table per table of w, named
// "ghost_" plus its name, that the schema graph does not know: w's columns
// as text, one row, so the index names the table, as it names any table a
// base-data hit can come from.
func (w *randWorld) ghostDB() *backend.DB {
	db := backend.NewDB()
	for ti, tn := range w.tables {
		cols := make([]backend.Column, len(w.cols[ti]))
		row := make([]backend.Value, len(cols))
		for i, c := range w.cols[ti] {
			cols[i], row[i] = backend.Column{Name: c, Type: backend.TString}, backend.Str("v")
		}
		db.Create("ghost_"+tn, cols...).Insert(row...)
	}
	return db
}

// randomEntries draws 1-4 entry points: metadata nodes (tables, columns,
// entities) and base-data hits — including, occasionally, one on a
// ghostDB table, which the schema graph does not know.
func (w *randWorld) randomEntries(r *rand.Rand) []EntryPoint {
	n := 1 + r.Intn(4)
	var es []EntryPoint
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0:
			es = append(es, EntryPoint{Kind: KindMetadata, Node: w.tableNode[r.Intn(len(w.tableNode))]})
		case 1:
			es = append(es, EntryPoint{Kind: KindMetadata, Node: w.colNodes[r.Intn(len(w.colNodes))]})
		case 2:
			if len(w.metaNodes) > 0 {
				es = append(es, EntryPoint{Kind: KindMetadata, Node: w.metaNodes[r.Intn(len(w.metaNodes))]})
				break
			}
			fallthrough
		default:
			ti := r.Intn(len(w.tables))
			e := EntryPoint{Kind: KindBaseData, Table: w.tables[ti], Column: w.cols[ti][r.Intn(len(w.cols[ti]))]}
			if r.Intn(8) == 0 {
				e.Table = "ghost_" + e.Table // not in the metagraph
			}
			es = append(es, e)
		}
	}
	return es
}

// TestTablesStepMatchesReference drives the optimized Step 3 and the
// string-map oracle over random worlds, option mixes and entry
// combinations and requires identical solutions. Each world's eight
// solutions run as one batch, as an analysis's do.
func TestTablesStepMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(20260807))
	for wi := 0; wi < 25; wi++ {
		w := buildRandomWorld(r)
		db := w.ghostDB()
		idx := invidx.Build(db)
		for oi, opt := range modelOptVariants {
			sys := NewSystem(memory.New(db), w.meta, idx, opt)
			gots := make([]*Solution, 8)
			for qi := range gots {
				gots[qi] = &Solution{Entries: w.randomEntries(r)}
			}
			sys.tablesStep(gots)
			for qi, got := range gots {
				entries := got.Entries
				want := &Solution{Entries: entries}
				wantTables := refTablesStep(sys, want)
				if !reflect.DeepEqual(got.TableNames(), wantTables) ||
					!reflect.DeepEqual(got.Primaries, want.Primaries) ||
					!reflect.DeepEqual(got.SQLTables, want.SQLTables) ||
					!reflect.DeepEqual(got.Joins, want.Joins) ||
					got.Disconnected != want.Disconnected {
					t.Fatalf("world %d opt %d query %d: optimized != reference\nentries: %+v\ngot:  T=%v P=%v SQLT=%v J=%v D=%v\nwant: T=%v P=%v SQLT=%v J=%v D=%v",
						wi, oi, qi, entries,
						got.TableNames(), got.Primaries, got.SQLTables, got.Joins, got.Disconnected,
						wantTables, want.Primaries, want.SQLTables, want.Joins, want.Disconnected)
				}
			}
		}
	}
}

// TestMultiPathMatchesReference checks the multi-anchor pathfinder (the
// filters-step ensureTable path, one BFS per call) against the oracle BFS.
func TestMultiPathMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for wi := 0; wi < 25; wi++ {
		w := buildRandomWorld(r)
		db := backend.NewDB()
		sys := NewSystem(memory.New(db), w.meta, invidx.Build(db), Options{CacheSize: -1})
		jg := sys.joinGraphCached()
		ref := newRefJoinView(jg)
		for qi := 0; qi < 30; qi++ {
			skip := r.Intn(2) == 0
			dst := w.tables[r.Intn(len(w.tables))]
			var srcs []string
			for len(srcs) == 0 {
				for _, tb := range w.tables {
					if tb != dst && r.Intn(3) == 0 {
						srcs = append(srcs, tb)
					}
				}
			}
			if r.Intn(6) == 0 {
				srcs = append(srcs, "ghost_table")
			}
			gotPath, gotOK := jg.multiPath(nil, srcs, dst, skip)
			wantPath, wantOK := refShortestPath(ref, srcs, []string{dst}, skip)
			if gotOK != wantOK || len(gotPath) != len(wantPath) {
				t.Fatalf("world %d query %d: multiPath(%v->%s skip=%v) = (%d edges, %v), ref = (%d edges, %v)",
					wi, qi, srcs, dst, skip, len(gotPath), gotOK, len(wantPath), wantOK)
			}
			for i := range gotPath {
				if jg.edges[gotPath[i]].join() != wantPath[i].join() {
					t.Fatalf("world %d query %d: path edge %d differs: %v vs %v",
						wi, qi, i, jg.edges[gotPath[i]].join(), wantPath[i].join())
				}
			}
		}
	}
}

// TestPipelineTablesStepMatchesReference re-runs Step 3 through the
// oracle for every solution the real pipeline produces on the minibank
// determinism corpus — the optimized path and the oracle must agree on
// real entry points, not just synthetic ones.
func TestPipelineTablesStepMatchesReference(t *testing.T) {
	sys := newSys(t, Options{CacheSize: -1})
	for _, q := range determinismQueries {
		a, err := sys.Search(q)
		if err != nil {
			t.Fatalf("Search(%q): %v", q, err)
		}
		for si, sol := range a.Solutions {
			got := &Solution{Entries: sol.Entries}
			want := &Solution{Entries: sol.Entries}
			sys.tablesStep([]*Solution{got})
			wantTables := refTablesStep(sys, want)
			if !reflect.DeepEqual(got.TableNames(), wantTables) ||
				!reflect.DeepEqual(got.Primaries, want.Primaries) ||
				!reflect.DeepEqual(got.SQLTables, want.SQLTables) ||
				!reflect.DeepEqual(got.Joins, want.Joins) ||
				got.Disconnected != want.Disconnected {
				t.Fatalf("query %q solution %d: optimized != reference\ngot:  %v %+v\nwant: %v %+v", q, si, got.TableNames(), got, wantTables, want)
			}
			// The solution served by the pipeline must match both.
			if !reflect.DeepEqual(sol.TableNames(), wantTables) ||
				!reflect.DeepEqual(sol.Joins, want.Joins) {
				t.Fatalf("query %q solution %d: served solution differs from reference", q, si)
			}
		}
	}
}

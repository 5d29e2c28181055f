package core

import (
	"slices"
	"strings"

	"soda/internal/invidx"
	"soda/internal/metagraph"
	"soda/internal/rdf"
)

// The compiled schema model: the facts query-time code reads from the
// metadata graph, derived once in buildDerived. Step 1 reads one label
// table, keyed by normalised label. Steps 3 and 4 read flat slices indexed
// by the graph's own dense rdf.ID. Every node's Step 3 table list (the
// tables a traversal from it collects) is filled here, by a
// generation-stamped BFS over a CSR copy of the graph's outgoing IRI
// edges, so no query pays for an entry point's first touch: the paper
// likewise keeps preprocessing out of per-query runtime (Table 4 leaves
// out the index build). The substrates are immutable after construction,
// so the model is valid for the lifetime of the System, and it depends on
// no option.

// schemaModel is the compiled metadata graph. Per-node slices have one
// slot per dictionary ID; slot 0 (rdf.NoID) is unused and reads as "no
// fact", so a term unknown to the graph needs no special case.
type schemaModel struct {
	dict   *rdf.Dict
	tables *tableInterner

	tableOf  []int32  // table ID of a node matching the Table pattern, else -1
	colOf    []int32  // the node's resolved column, an index into cols, else -1
	cols     []ColRef // every physical column some node resolves to
	entryOff []int32  // node id's table list is entryIDs[entryOff[id]:entryOff[id+1]]
	entryIDs []int32  // table IDs, nearest first

	filterOff  []int32  // node id's metadata filters are filters[filterOff[id]:filterOff[id+1]]
	filters    []Filter // Metadata Filter pattern matches, column resolved
	impliedAgg []string // aggregate function an ontology measure implies, "" for none

	// Base-data entry points name a (table, column) pair. baseTables
	// holds every table the schema graph knows, by name: its ID and its
	// metadata node, found by the builder's naming contract
	// ("tbl:<table>"). columnNodes finds a column's node
	// ("col:<table>.<column>"), keyed by what follows "col:".
	baseTables  map[string]baseTable
	columnNodes map[string]rdf.ID

	// labels is Step 1's label table, by normalised label. labelTokens is
	// the most tokens a label has; a longer phrase is no label.
	labels      map[string]labelFacts
	labelTokens int
}

// labelFacts is what Step 1 reads for one label: the metadata nodes
// carrying it, in Meta.LookupLabel order, and its base-data hits, as
// Index().Hits reports them. Shared, read-only.
type labelFacts struct {
	nodes []labelNode
	hits  []invidx.ColumnHit
}

// labelNode is one metadata node carrying a label, with its layer.
type labelNode struct {
	node  rdf.Term
	layer string
}

// baseTable is one table as a base-data entry point sees it.
type baseTable struct {
	id      int32   // interned table ID, -1 when no tablename names it
	node    rdf.ID  // its "tbl:" node, rdf.NoID when there is none
	parents []int32 // the node's inheritance ancestors, nearest first
}

// node returns the dictionary ID of a term, or rdf.NoID when the term is
// not part of the compiled graph.
func (m *schemaModel) node(t rdf.Term) rdf.ID {
	id := m.dict.Lookup(t)
	if int(id) >= len(m.tableOf) {
		return rdf.NoID
	}
	return id
}

// nodeTables returns the Step 3 table list of a node: the tables a BFS
// over its outgoing edges collects, nearest first. Shared, read-only.
func (m *schemaModel) nodeTables(id rdf.ID) []int32 {
	return m.entryIDs[m.entryOff[id]:m.entryOff[id+1]]
}

// column returns the physical column a node resolves to along the
// refinement chain (see resolveColumns).
func (m *schemaModel) column(node rdf.Term) (ColRef, bool) {
	if c := m.colOf[m.node(node)]; c >= 0 {
		return m.cols[c], true
	}
	return ColRef{}, false
}

// nodeFilters returns the metadata filters stored at a node ("wealthy
// customers": salary >= 1000000), in pattern-match order. Shared,
// read-only.
func (m *schemaModel) nodeFilters(id rdf.ID) []Filter {
	return m.filters[m.filterOff[id]:m.filterOff[id+1]]
}

// tableNode returns the metadata node of a physical table.
func (m *schemaModel) tableNode(table string) (rdf.Term, bool) {
	if bt := m.baseTables[table]; bt.node != rdf.NoID {
		return m.dict.Term(bt.node), true
	}
	return rdf.Term{}, false
}

// entryTables is one entry point's Step 3 table list, nearest first. A
// metadata entry's list is its node's prefilled list. A base-data entry's
// is composed, in the order the traversal of §4.2.1 collects it: the hit
// table itself (lead), that table's inheritance parents, then the list of
// the hit column's node. The parts may overlap; consumers deduplicate.
type entryTables struct {
	lead   string // a base-data entry's own table, "" otherwise
	leadID int32  // lead's table ID; -1 when no schema or indexed table has that name
	runs   [2][]int32
}

func (m *schemaModel) entryTables(e EntryPoint) entryTables {
	if e.Kind != KindBaseData {
		return entryTables{leadID: -1, runs: [2][]int32{m.nodeTables(m.node(e.Node))}}
	}
	et := entryTables{lead: e.Table, leadID: -1}
	if bt, ok := m.baseTables[e.Table]; ok {
		et.leadID = bt.id
		et.runs[0] = bt.parents
	}
	var buf [64]byte
	key := append(append(append(buf[:0], e.Table...), '.'), e.Column...)
	et.runs[1] = m.nodeTables(m.columnNodes[string(key)])
	return et
}

// first returns the entry's anchor, the first table of its list: its ID
// (-1 for a table outside the schema graph) and its name.
func (et *entryTables) first(it *tableInterner) (int32, string, bool) {
	if et.lead != "" {
		return et.leadID, et.lead, true
	}
	for _, run := range et.runs {
		if len(run) > 0 {
			return run[0], it.name(run[0]), true
		}
	}
	return -1, "", false
}

// entryTable returns the first table an entry resolves to, or "".
func (s *System) entryTable(e EntryPoint) string {
	m := s.compiled()
	et := m.entryTables(e)
	_, name, _ := et.first(m.tables)
	return name
}

// resolveColumn returns the physical column a metadata node resolves to.
func (s *System) resolveColumn(node rdf.Term) (ColRef, bool) {
	return s.compiled().column(node)
}

// compiled returns the compiled schema model, building it on first use.
func (s *System) compiled() *schemaModel {
	s.derivedOnce.Do(s.buildDerived)
	return s.model
}

// columnFollowPreds are the predicates column resolution may traverse:
// the cross-layer refinement chain only. Wandering through relationship
// or table-composition edges would resolve an *entity* term to some
// arbitrary column of a related table.
var columnFollowPreds = []string{
	metagraph.PredImplements,
	metagraph.PredClassifies,
	metagraph.PredRefersTo,
	metagraph.PredSubConceptOf,
}

// csr is a compressed adjacency: node id's neighbours are
// adj[off[id]:off[id+1]].
type csr struct {
	off []int32
	adj []int32
}

func (c *csr) row(id int32) []int32 { return c.adj[c.off[id]:c.off[id+1]] }

// modelBuild is the scratch of one compileModel run.
type modelBuild struct {
	s       *System
	m       *schemaModel
	terms   []rdf.Term // dictionary terms by ID
	iri     []bool
	out     csr // outgoing IRI edges
	refine  csr // the refinement-chain subset of out
	at      csr // tables the patterns collect at each node
	parents [][]int32
	parDone []bool
}

// compileModel builds the schema model over the metadata graph, given the
// table interner every table ID refers to.
func (s *System) compileModel(it *tableInterner) *schemaModel {
	g := s.Meta.G
	dict := g.Dict()
	n := dict.Len() + 1
	m := &schemaModel{dict: dict, tables: it}
	b := &modelBuild{s: s, m: m, terms: make([]rdf.Term, n), iri: make([]bool, n),
		parents: make([][]int32, n), parDone: make([]bool, n)}
	for id := 1; id < n; id++ {
		b.terms[id] = dict.Term(rdf.ID(id))
		b.iri[id] = b.terms[id].IsIRI()
	}

	// Outgoing IRI edges, all and along the refinement chain.
	refinePred := make([]bool, n)
	for _, p := range columnFollowPreds {
		refinePred[dict.Lookup(rdf.NewIRI(p))] = true
	}
	b.out.off = make([]int32, n+1)
	b.refine.off = make([]int32, n+1)
	for id := 1; id < n; id++ {
		b.out.off[id] = int32(len(b.out.adj))
		b.refine.off[id] = int32(len(b.refine.adj))
		g.OutgoingIDs(rdf.ID(id), func(p, o rdf.ID) {
			if b.iri[o] {
				b.out.adj = append(b.out.adj, int32(o))
				if refinePred[p] {
					b.refine.adj = append(b.refine.adj, int32(o))
				}
			}
		})
	}
	b.out.off[n] = int32(len(b.out.adj))
	b.refine.off[n] = int32(len(b.refine.adj))

	m.tableOf = make([]int32, n)
	for id := range m.tableOf {
		m.tableOf[id] = -1
		if b.iri[id] && s.matcher.MatchesName(metagraph.PatTable, b.terms[id]) {
			if name, ok := s.Meta.TableName(b.terms[id]); ok {
				m.tableOf[id] = it.id(name)
			}
		}
	}
	b.collectTablesAt()
	b.fillEntryLists()
	b.resolveColumns()
	b.collectFilters()
	b.indexBaseData()
	b.collectLabels()
	m.impliedAgg = make([]string, n)
	for tr := range g.WithPredicate(rdf.NewIRI(metagraph.PredImpliesAgg)) {
		if id := dict.Lookup(tr.S); m.impliedAgg[id] == "" {
			m.impliedAgg[id] = tr.O.Value() // the first, as Graph.Object reads it
		}
	}
	return m
}

// inheritanceParents returns the tables of a node's inheritance
// ancestors, walking the Inheritance Child pattern up through
// multi-level hierarchies (nearest first, at most 8 levels).
func (b *modelBuild) inheritanceParents(id rdf.ID) []int32 {
	if b.parDone[id] {
		return b.parents[id]
	}
	var out []int32
	node := b.terms[id]
	for depth := 0; depth < 8; depth++ {
		bs := b.s.matcher.MatchName(metagraph.PatInheritanceChild, node)
		if len(bs) == 0 {
			break
		}
		parent, ok := bs[0].Get("p")
		if !ok {
			break
		}
		if t := b.m.tableOf[b.m.dict.Lookup(parent)]; t >= 0 {
			out = append(out, t)
		}
		node = parent
	}
	b.parents[id], b.parDone[id] = out, true
	return out
}

// collectTablesAt tests the Table, Column and Inheritance Child patterns
// at every node, per §4.2.1 "Application in SODA": a table node collects
// itself and its inheritance parents, a column node its owning table
// (binding z) and that table's parents.
func (b *modelBuild) collectTablesAt() {
	n := len(b.terms)
	b.at.off = make([]int32, n+1)
	for id := 1; id < n; id++ {
		b.at.off[id] = int32(len(b.at.adj))
		if !b.iri[id] {
			continue
		}
		owner := rdf.ID(id)
		if b.m.tableOf[id] < 0 {
			owner = rdf.NoID
			if bs := b.s.matcher.MatchName(metagraph.PatColumn, b.terms[id]); len(bs) > 0 {
				if z, ok := bs[0].Get("z"); ok {
					owner = b.m.dict.Lookup(z)
				}
			}
		}
		if t := b.m.tableOf[owner]; t >= 0 {
			b.at.adj = append(b.at.adj, t)
			b.at.adj = append(b.at.adj, b.inheritanceParents(owner)...)
		}
	}
	b.at.off[n] = int32(len(b.at.adj))
}

// fillEntryLists runs part 1 of Step 3 from every node: BFS over the
// outgoing edges, collecting the tables found at each visited node in
// visit order, each once. BFS order makes the first table the nearest
// one, the entry's anchor. The BFS follows only the edges towardTables
// keeps: their targets are closed under predecessors, so the BFS visits
// them in the order a BFS over all edges does, and it skips the type and
// layer edges that end at class and layer sinks.
func (b *modelBuild) fillEntryLists() {
	n := len(b.terms)
	m := b.m
	edges, live := b.towardTables()
	m.entryOff = make([]int32, n+1)
	var visited, seen idSet
	var queue []int32
	for id := 1; id < n; id++ {
		m.entryOff[id] = int32(len(m.entryIDs))
		if !b.iri[id] || !live[id] {
			continue
		}
		visited.reset(n)
		seen.reset(m.tables.size())
		visited.add(int32(id))
		queue = append(queue[:0], int32(id))
		for head := 0; head < len(queue); head++ {
			node := queue[head]
			for _, t := range b.at.row(node) {
				if seen.add(t) {
					m.entryIDs = append(m.entryIDs, t)
				}
			}
			for _, o := range edges.row(node) {
				if visited.add(o) {
					queue = append(queue, o)
				}
			}
		}
	}
	m.entryOff[n] = int32(len(m.entryIDs))
}

// towardTables marks the nodes from which a node that collects tables
// can be reached over outgoing edges, by one BFS backwards from those
// nodes, and returns the outgoing edges into marked nodes.
func (b *modelBuild) towardTables() (edges csr, live []bool) {
	n := len(b.terms)
	var in csr
	in.off = make([]int32, n+1)
	for _, o := range b.out.adj {
		in.off[o+1]++
	}
	for id := 1; id <= n; id++ {
		in.off[id] += in.off[id-1]
	}
	in.adj = make([]int32, len(b.out.adj))
	next := slices.Clone(in.off[:n])
	for id := int32(1); id < int32(n); id++ {
		for _, o := range b.out.row(id) {
			in.adj[next[o]] = id
			next[o]++
		}
	}
	live = make([]bool, n)
	var queue []int32
	for id := int32(1); id < int32(n); id++ {
		if len(b.at.row(id)) > 0 {
			live[id] = true
			queue = append(queue, id)
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, p := range in.row(queue[head]) {
			if !live[p] {
				live[p] = true
				queue = append(queue, p)
			}
		}
	}
	edges.off = make([]int32, n+1)
	for id := int32(1); id < int32(n); id++ {
		edges.off[id] = int32(len(edges.adj))
		for _, o := range b.out.row(id) {
			if live[o] {
				edges.adj = append(edges.adj, o)
			}
		}
	}
	edges.off[n] = int32(len(edges.adj))
	return edges, live
}

// resolveColumns follows the refinement chain from every node until it
// reaches a physical column — how filter and aggregation attributes like
// "birth date" resolve to individuals.birth_dt across schema layers
// (§6.2). A node with no physical column on its chain resolves to none.
func (b *modelBuild) resolveColumns() {
	n := len(b.terms)
	m := b.m
	phys := make([]int32, n)
	for id := range phys {
		phys[id] = -1
		if b.iri[id] {
			if ref, ok := b.s.columnRef(b.terms[id]); ok {
				phys[id] = int32(len(m.cols))
				m.cols = append(m.cols, ref)
			}
		}
	}
	m.colOf = make([]int32, n)
	var visited idSet
	var queue []int32
	for id := range m.colOf {
		m.colOf[id] = -1
		if !b.iri[id] {
			continue
		}
		visited.reset(n)
		visited.add(int32(id))
		queue = append(queue[:0], int32(id))
		for head := 0; head < len(queue); head++ {
			node := queue[head]
			if phys[node] >= 0 {
				m.colOf[id] = phys[node]
				break
			}
			for _, o := range b.refine.row(node) {
				if visited.add(o) {
					queue = append(queue, o)
				}
			}
		}
	}
}

// collectFilters matches the Metadata Filter pattern at every node and
// resolves each filter's column; a filter whose column resolves to no
// physical column is dropped.
func (b *modelBuild) collectFilters() {
	n := len(b.terms)
	m := b.m
	m.filterOff = make([]int32, n+1)
	for id := 1; id < n; id++ {
		m.filterOff[id] = int32(len(m.filters))
		if !b.iri[id] {
			continue
		}
		for _, bd := range b.s.matcher.MatchName(metagraph.PatMetadataFilter, b.terms[id]) {
			colNode, _ := bd.Get("c")
			op, _ := bd.Get("op")
			val, _ := bd.Get("v")
			col, ok := m.column(colNode)
			if !ok {
				continue
			}
			f := Filter{Col: col, Op: op.Value(), Value: val.Value(), Source: "metadata"}
			f.IsNum = isNumeric(f.Value)
			f.IsDate = !f.IsNum && isISODate(f.Value)
			m.filters = append(m.filters, f)
		}
	}
	m.filterOff[n] = int32(len(m.filters))
}

// indexBaseData fills the name lookups base-data entry points use.
func (b *modelBuild) indexBaseData() {
	m := b.m
	m.baseTables = make(map[string]baseTable, m.tables.size())
	m.columnNodes = make(map[string]rdf.ID)
	for id := 1; id < len(b.terms); id++ {
		t := b.terms[id]
		if !b.iri[id] {
			continue
		}
		v := t.Value()
		tbl, isTbl := strings.CutPrefix(v, "tbl:")
		col, isCol := strings.CutPrefix(v, "col:")
		if !isTbl && !isCol {
			continue
		}
		if _, typed := b.s.Meta.TypeOf(t); !typed {
			continue
		}
		if isTbl {
			m.baseTables[tbl] = baseTable{id: m.tables.id(tbl), node: rdf.ID(id), parents: b.inheritanceParents(rdf.ID(id))}
		} else {
			m.columnNodes[col] = rdf.ID(id)
		}
	}
	for i, name := range m.tables.names {
		if _, ok := m.baseTables[name]; !ok {
			m.baseTables[name] = baseTable{id: int32(i)}
		}
	}
}

// collectLabels fills the label table's nodes and layers. The base-data
// hits read the inverted index, so buildDerived adds them last.
func (b *modelBuild) collectLabels() {
	meta, m := b.s.Meta, b.m
	labels := meta.Labels()
	m.labels = make(map[string]labelFacts, len(labels))
	for _, l := range labels {
		nodes := meta.LookupLabel(l)
		f := labelFacts{nodes: make([]labelNode, len(nodes))}
		for i, n := range nodes {
			f.nodes[i] = labelNode{node: n, layer: meta.LayerOf(n)}
		}
		m.labels[l] = f
		m.labelTokens = max(m.labelTokens, tokenCount(l))
	}
}

package core

import (
	"slices"
	"sort"
	"sync"

	"soda/internal/jsonw"
	"soda/internal/metagraph"
	"soda/internal/rdf"
)

// The interned join-graph machinery behind Step 3. The join graph is a
// pure function of the schema graph, which only changes on world
// rebuild, so everything derivable from it is computed once in
// buildDerived and only read afterwards:
//
//   - table names are interned into dense integer IDs, the schema's
//     assigned in lexicographic name order so sorting IDs equals sorting
//     names — the deterministic tie-breaking the BFS relies on costs an
//     integer compare instead of a string compare;
//   - adjacency lists are stored pre-sorted in the exact (neighbour,
//     edge-index) order the BFS used to establish per visit, so the
//     per-expansion candidate sort disappears entirely;
//   - FK upward closures are computed for every table at build. Shortest
//     paths are not stored: each is one BFS over the immutable graph,
//     appending edge indices to a slice its caller passes in;
//   - BFS/traversal scratch (generation-stamped visited sets, state
//     slices) is pooled, so a cold search allocates O(result), not
//     O(graph).

// tableInterner maps physical table names to dense IDs and back, and
// holds each name JSON-quoted, so the /search body copies a discovery view
// (Solution.AppendTablesJSON) without escaping it again. The schema
// graph's tables take IDs in sorted-name order, so integer comparison of
// their IDs is lexicographic comparison of the names. buildDerived then
// appends the indexed tables the schema graph does not name; no join edge
// reaches those, so where they sort never matters to a path search.
type tableInterner struct {
	ids    map[string]int32
	names  []string
	quoted []byte  // every name JSON-quoted, back to back, in ID order
	qoff   []int32 // name id's quoted form is quoted[qoff[id]:qoff[id+1]]
}

// buildTableInterner collects every physical table name the metadata
// graph knows (the tablename predicate is the single source of table
// names everywhere in Step 3) and interns them in sorted order.
func (s *System) buildTableInterner() *tableInterner {
	seen := make(map[string]bool)
	var names []string
	for tr := range s.Meta.G.WithPredicate(rdf.NewIRI(metagraph.PredTableName)) {
		name := tr.O.Value()
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		names = append(names, name)
	}
	sort.Strings(names)
	it := &tableInterner{ids: make(map[string]int32, len(names)), qoff: []int32{0}}
	for _, n := range names {
		it.add(n)
	}
	return it
}

// add interns a name the interner does not hold under the next ID.
func (ti *tableInterner) add(name string) int32 {
	id := int32(len(ti.names))
	ti.ids[name] = id
	ti.names = append(ti.names, name)
	ti.quoted = jsonw.AppendString(ti.quoted, name)
	ti.qoff = append(ti.qoff, int32(len(ti.quoted)))
	return id
}

// id returns the dense ID of a table name, or -1 when no schema table or
// indexed table has that name.
func (ti *tableInterner) id(name string) int32 {
	if i, ok := ti.ids[name]; ok {
		return i
	}
	return -1
}

func (ti *tableInterner) name(id int32) string { return ti.names[id] }
func (ti *tableInterner) size() int            { return len(ti.names) }

// quotedName returns the name of id as a JSON string, quotes included.
func (ti *tableInterner) quotedName(id int32) []byte {
	return ti.quoted[ti.qoff[id]:ti.qoff[id+1]]
}

// idSet is a generation-stamped membership set over dense IDs: reset is
// O(1) (a generation bump), so pooled scratch never pays a clear.
type idSet struct {
	stamp []uint32
	gen   uint32
}

func (s *idSet) reset(n int) {
	if cap(s.stamp) < n {
		s.stamp = make([]uint32, n)
		s.gen = 1
		return
	}
	s.stamp = s.stamp[:n]
	s.gen++
	if s.gen == 0 { // generation counter wrapped: clear and restart
		clear(s.stamp)
		s.gen = 1
	}
}

func (s *idSet) has(i int32) bool { return s.stamp[i] == s.gen }

// add inserts i and reports whether it was new.
func (s *idSet) add(i int32) bool {
	if s.stamp[i] == s.gen {
		return false
	}
	s.stamp[i] = s.gen
	return true
}

// jgArc is one pre-sorted adjacency entry: the neighbour table and the
// edge that reaches it.
type jgArc struct {
	next int32 // neighbour table ID
	ei   int32 // edge index into joinGraph.edges
}

// bfsState is one BFS node: the table, the edge used to reach it (-1 for
// sources) and the predecessor state index. The states slice
// doubles as the FIFO queue — states are appended in visit order and
// consumed by a moving head index, so nothing retains a drained queue's
// backing array (the old `queue = queue[1:]` kept it all alive).
type bfsState struct {
	table int32
	via   int32
	prev  int32
}

type bfsScratch struct {
	visited idSet
	states  []bfsState
}

var bfsPool = sync.Pool{New: func() any { return new(bfsScratch) }}

// pathIDs is the zero-sort BFS: it appends to path the edge indices of
// the shortest join path from any of srcIDs to dst, in path order.
// Sources must be in ascending ID order, which is name order; duplicates
// are skipped, and so is -1, a name no table has. Callers guarantee dst
// is not a source. Adjacency lists are pre-sorted in (neighbour,
// edge-index) order, so expanding them in storage order reproduces
// exactly the deterministic order the per-visit sort used to establish.
func (g *joinGraph) pathIDs(path []int32, srcIDs []int32, dst int32, skipBridges bool) ([]int32, bool) {
	if dst < 0 {
		return path, false
	}
	adj := g.adj
	if skipBridges {
		adj = g.adjNB
	}
	sc := bfsPool.Get().(*bfsScratch)
	defer bfsPool.Put(sc)
	sc.visited.reset(g.tables.size())
	states := sc.states[:0]
	for _, t := range srcIDs {
		if t >= 0 && sc.visited.add(t) {
			states = append(states, bfsState{table: t, via: -1, prev: -1})
		}
	}
	found := false
	for head := 0; head < len(states); head++ {
		st := states[head]
		if st.table == dst {
			start := len(path)
			for cur := int32(head); states[cur].via >= 0; cur = states[cur].prev {
				path = append(path, states[cur].via)
			}
			slices.Reverse(path[start:])
			found = true
			break
		}
		for _, arc := range adj[st.table] {
			if !sc.visited.add(arc.next) {
				continue
			}
			states = append(states, bfsState{table: arc.next, via: arc.ei, prev: int32(head)})
		}
	}
	sc.states = states
	return path, found
}

// multiPath appends to path the shortest join path from any table in
// srcs to dst, by name. Callers guarantee dst is not an element of srcs.
func (g *joinGraph) multiPath(path []int32, srcs []string, dst string, skipBridges bool) ([]int32, bool) {
	var buf [16]int32
	ids := buf[:0]
	for _, t := range srcs {
		ids = append(ids, g.tables.id(t))
	}
	slices.Sort(ids)
	return g.pathIDs(path, ids, g.tables.id(dst), skipBridges)
}

// closureStep is one replayable action of an FK upward closure: join the
// edge and pull in its referenced table.
type closureStep struct {
	ei  int32 // edge index
	tbl int32 // referenced table (the edge's t2)
}

type closureScratch struct {
	visited  idSet
	followed idSet
	queue    []int32
}

// computeClosure returns the FK upward closure of a root table as the
// (addTable, addJoin) sequence tablesStep replays; buildJoinGraph computes
// it once per table. It walks outgoing foreign keys and inheritance links
// (bridge edges excluded) from root, transitively, capped at maxClosure
// tables, following at most one FK per referenced table per node — see
// tablesStep for the business-object rationale.
func (g *joinGraph) computeClosure(root int32, sc *closureScratch) []closureStep {
	const maxClosure = 16
	n := g.tables.size()
	sc.visited.reset(n)
	sc.visited.add(root)
	visCount := 1
	queue := append(sc.queue[:0], root)
	var out []closureStep
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		// Follow at most one FK per referenced table: a fact table with
		// two role FKs to the same dimension (fromparty/toparty) must not
		// join both on a single instance — that would force the roles to
		// coincide. Without aliases SODA keeps the first role.
		sc.followed.reset(n)
		for _, arc := range g.fkOut[cur] {
			if visCount >= maxClosure {
				sc.queue = queue
				return out
			}
			if !sc.followed.add(arc.next) {
				continue
			}
			out = append(out, closureStep{ei: arc.ei, tbl: arc.next})
			if sc.visited.add(arc.next) {
				visCount++
				queue = append(queue, arc.next)
			}
		}
	}
	sc.queue = queue
	return out
}

// discoveredBridge is the interned view of one non-ignored bridge
// relation, precomputed in buildDerived for the Figure 6 discovery check.
type discoveredBridge struct {
	left, right int32 // the two FK target tables
	bridge      int32 // the bridge table itself
}

// tablesScratch is the pooled scratch of tablesStep. The per-solution
// sets and ID lists are reset for each solution; the lists a solution
// keeps are gathered for the whole batch, one after another, before they
// are copied out.
type tablesScratch struct {
	discovered idSet // table IDs in the Figure 6 discovery view
	inSQL      idSet // table IDs in the FROM list
	edgeSeen   idSet // edge indexes already joined
	connSeen   idSet // connectivity BFS visited set
	connQueue  []int32
	primIDs    []int32 // anchor table IDs, aligned with the primaries
	sqlIDs     []int32
	joinEdges  []int32
	path       []int32 // one anchor pair's join path, as edge indices

	// The batch's lists, and where each solution's lists end.
	tables []int32 // discovery views
	strs   []string
	joins  []Join
	ends   []tablesEnds
}

// tablesEnds is where one solution's lists end in tablesScratch: its
// discovery view in tables, its anchors then its FROM list in strs, its
// joins in joins.
type tablesEnds struct {
	tables, primaries, sqlTables, joins int
}

var tablesPool = sync.Pool{New: func() any { return new(tablesScratch) }}

// connectedIDs reports whether the tables form one connected component
// under the given join edges.
func (g *joinGraph) connectedIDs(sc *tablesScratch, ids []int32, joinEdges []int32) bool {
	if len(ids) <= 1 {
		return true
	}
	sc.connSeen.reset(g.tables.size())
	queue := append(sc.connQueue[:0], ids[0])
	sc.connSeen.add(ids[0])
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, ei := range joinEdges {
			e := &g.edges[ei]
			next := int32(-1)
			switch cur {
			case e.t1id:
				next = e.t2id
			case e.t2id:
				next = e.t1id
			}
			if next >= 0 && sc.connSeen.add(next) {
				queue = append(queue, next)
			}
		}
	}
	sc.connQueue = queue
	for _, id := range ids {
		if !sc.connSeen.has(id) {
			return false
		}
	}
	return true
}

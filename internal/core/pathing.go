package core

import (
	"encoding/binary"
	"sort"
	"sync"

	"soda/internal/metagraph"
	"soda/internal/rdf"
)

// The interned join-graph machinery behind Step 3 (ISSUE 9). The join
// graph is a pure function of the schema graph, which only changes on
// world rebuild, so everything derivable from it is precomputed once in
// buildDerived and memoized afterwards:
//
//   - table names are interned into dense integer IDs, assigned in
//     lexicographic name order so sorting IDs equals sorting names — the
//     deterministic tie-breaking the BFS relies on costs an integer
//     compare instead of a string compare;
//   - adjacency lists are stored pre-sorted in the exact (neighbour,
//     edge-index) order the BFS used to establish per visit, so the
//     per-expansion candidate sort disappears entirely;
//   - FK upward closures are computed for every table at build, and
//     shortest-path results are memoized per (anchor-set, skipBridges,
//     maxLen) through memoized; both are — like the join graph itself —
//     valid for the lifetime of the System (the substrates are immutable
//     after construction; a schema change means a new System, which
//     rebuilds everything);
//   - BFS/traversal scratch (generation-stamped visited sets, state
//     slices) is pooled, so a cold search allocates O(result), not
//     O(graph).

// tableInterner maps physical table names to dense IDs and back. IDs are
// assigned in sorted-name order, so integer comparison of IDs is
// equivalent to lexicographic comparison of the names.
type tableInterner struct {
	ids   map[string]int32
	names []string
}

// buildTableInterner collects every physical table name the metadata
// graph knows (the tablename predicate is the single source of table
// names everywhere in Step 3) and interns them in sorted order.
func (s *System) buildTableInterner() *tableInterner {
	seen := make(map[string]bool)
	var names []string
	for _, tr := range s.Meta.G.WithPredicate(rdf.NewIRI(metagraph.PredTableName)) {
		name := tr.O.Value()
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		names = append(names, name)
	}
	sort.Strings(names)
	it := &tableInterner{ids: make(map[string]int32, len(names)), names: names}
	for i, n := range names {
		it.ids[n] = int32(i)
	}
	return it
}

// id returns the dense ID of a table name, or -1 when the name is not a
// metadata-known table (e.g. a base-data table missing from the schema
// graph — such a table can never appear in a join edge).
func (ti *tableInterner) id(name string) int32 {
	if i, ok := ti.ids[name]; ok {
		return i
	}
	return -1
}

func (ti *tableInterner) name(id int32) string { return ti.names[id] }
func (ti *tableInterner) size() int            { return len(ti.names) }

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
// sources), the predecessor state index and the depth. The states slice
// doubles as the FIFO queue — states are appended in visit order and
// consumed by a moving head index, so nothing retains a drained queue's
// backing array (the old `queue = queue[1:]` kept it all alive).
type bfsState struct {
	table int32
	via   int32
	prev  int32
	depth int32
}

type bfsScratch struct {
	visited idSet
	states  []bfsState
}

var bfsPool = sync.Pool{New: func() any { return new(bfsScratch) }}

// pathIDs is the zero-sort BFS: sources must be sorted, deduplicated,
// valid IDs; dst is a single valid ID not contained in the sources.
// Adjacency lists are pre-sorted in (neighbour, edge-index) order, so
// expanding them in storage order reproduces exactly the deterministic
// order the per-visit sort used to establish.
func (g *joinGraph) pathIDs(srcIDs []int32, dst int32, skipBridges bool, maxLen int) ([]jgEdge, bool) {
	adj := g.adj
	if skipBridges {
		adj = g.adjNB
	}
	sc := bfsPool.Get().(*bfsScratch)
	defer bfsPool.Put(sc)
	sc.visited.reset(g.tables.size())
	states := sc.states[:0]
	for _, t := range srcIDs {
		if !sc.visited.add(t) {
			continue
		}
		states = append(states, bfsState{table: t, via: -1, prev: -1})
	}
	var path []jgEdge
	found := false
	for head := 0; head < len(states); head++ {
		st := states[head]
		if st.table == dst {
			for cur := int32(head); states[cur].via >= 0; cur = states[cur].prev {
				path = append(path, g.edges[states[cur].via])
			}
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			found = true
			break
		}
		if maxLen > 0 && int(st.depth) >= maxLen {
			continue // path would exceed the far-fetching bound
		}
		for _, arc := range adj[st.table] {
			if !sc.visited.add(arc.next) {
				continue
			}
			states = append(states, bfsState{table: arc.next, via: arc.ei, prev: int32(head), depth: st.depth + 1})
		}
	}
	sc.states = states
	return path, found
}

// pathResult is a memoized shortest-path outcome. The edge slice is
// shared between callers and must be treated as read-only.
type pathResult struct {
	path []jgEdge
	ok   bool
}

// pairPathKey keys the single-source shortest-path memo.
type pairPathKey struct {
	src, dst int32
	skip     bool
	maxLen   int32
}

// pairPath returns the shortest join path between two anchor tables (the
// Figure 9 case), memoized for the lifetime of the derived join graph.
// Callers guarantee the anchors differ; an anchor outside the schema
// graph (-1) can appear in no join edge, so no path reaches it.
func (s *System) pairPath(a, b int32, skipBridges bool, maxLen int) ([]jgEdge, bool) {
	if a < 0 || b < 0 {
		return nil, false
	}
	jg := s.joinGraphCached()
	k := pairPathKey{src: a, dst: b, skip: skipBridges, maxLen: int32(maxLen)}
	r := memoized(s, s.pairPaths, k, func() pathResult {
		srcs := [1]int32{a}
		path, found := jg.pathIDs(srcs[:], b, skipBridges, maxLen)
		return pathResult{path: path, ok: found}
	})
	return r.path, r.ok
}

// multiPath returns the shortest join path from any table in srcs to
// dst, memoized per (sorted anchor-set, skipBridges, maxLen). Callers
// guarantee dst is not an element of srcs.
func (s *System) multiPath(srcs []string, dst string, skipBridges bool, maxLen int) ([]jgEdge, bool) {
	jg := s.joinGraphCached()
	if len(srcs) == 1 {
		return s.pairPath(jg.tables.id(srcs[0]), jg.tables.id(dst), skipBridges, maxLen)
	}
	d := jg.tables.id(dst)
	if d < 0 {
		return nil, false
	}
	// Unknown sources are dropped: they have no adjacency, contribute no
	// expansion, and cannot equal dst (which is interned).
	ids := make([]int32, 0, len(srcs))
	for _, t := range srcs {
		if id := jg.tables.id(t); id >= 0 {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil, false
	}
	// Canonical anchor-set: sorted + deduplicated. ID order is name
	// order, so seeding in ID order reproduces the sorted-source BFS.
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	uniq := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			uniq = append(uniq, id)
		}
	}
	ids = uniq

	key := make([]byte, 0, 4*len(ids)+12)
	for _, id := range ids {
		key = binary.LittleEndian.AppendUint32(key, uint32(id))
	}
	key = binary.LittleEndian.AppendUint32(key, uint32(d))
	if skipBridges {
		key = append(key, 1)
	} else {
		key = append(key, 0)
	}
	key = binary.LittleEndian.AppendUint32(key, uint32(maxLen))

	r := memoized(s, s.multiPaths, string(key), func() pathResult {
		path, found := jg.pathIDs(ids, d, skipBridges, maxLen)
		return pathResult{path: path, ok: found}
	})
	return r.path, r.ok
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

// tablesScratch is the pooled per-solution scratch of tablesStep.
type tablesScratch struct {
	discovered idSet // table IDs in the Figure 6 discovery view
	inSQL      idSet // table IDs in the FROM list
	edgeSeen   idSet // edge indexes already joined
	connSeen   idSet // connectivity BFS visited set
	connQueue  []int32
	primIDs    []int32 // anchor table IDs, aligned with the primaries
	sqlIDs     []int32
	joinEdges  []int32
	tables     []string // the discovery view, before it is copied out
}

var tablesPool = sync.Pool{New: func() any { return new(tablesScratch) }}

// connectedIDs reports whether the tables form one connected component
// under the given join edges. ids is aligned with the solution's SQL
// table list; -1 entries are tables outside the schema graph, which can
// never be joined — with more than one table present they disconnect the
// solution, exactly as the string-map BFS concluded.
func (g *joinGraph) connectedIDs(sc *tablesScratch, ids []int32, joinEdges []int32) bool {
	if len(ids) <= 1 {
		return true
	}
	for _, id := range ids {
		if id < 0 {
			return false
		}
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

// Package baseline reimplements the five related systems of the paper's
// qualitative comparison (Table 5) — DBExplorer [1], DISCOVER [10],
// BANKS [3], SQAK [23] and Keymantic [2] — each with its published
// matching strategy *and* its published limitations, so the capability
// matrix regenerates mechanically from measurements instead of citations:
//
//   - DBExplorer / DISCOVER: inverted index over base data plus
//     key/foreign-key join trees; no metadata matching, no aggregates, no
//     predicates, and trouble with cyclic schemas ("cannot handle even
//     simple queries if the schema involves cycles", §6.2).
//   - BANKS: data/schema graph search; matches base data and schema
//     names, but no inheritance, ontology, predicate or aggregate
//     support.
//   - SQAK: aggregate queries only (SELECT-PROJECT-JOIN-GROUP-BY
//     pattern); schema-term matching; "not able to process any queries
//     that go beyond the pre-defined SQAK pattern".
//   - Keymantic: metadata-only bipartite assignment of keywords to schema
//     terms (the "Hidden Web" scenario: no inverted index); synonyms
//     partially supported; "for complex schemas with thousands of columns
//     ... not able to select the right columns".
package baseline

import (
	"sort"
	"strings"

	"soda/internal/backend"
	"soda/internal/backend/memory"
	"soda/internal/invidx"
	"soda/internal/metagraph"
	"soda/internal/rdf"
	"soda/internal/sqlast"
)

// System is a keyword-search system under comparison.
type System interface {
	Name() string
	// Search translates a keyword query into SQL statements. An error
	// means the query is outside the system's capabilities.
	Search(input string) ([]*sqlast.Select, error)
}

// ErrUnsupported marks queries a system cannot express.
type ErrUnsupported struct {
	System string
	Reason string
}

func (e *ErrUnsupported) Error() string {
	return e.System + ": unsupported query: " + e.Reason
}

// unsupported builds the error.
func unsupported(system, reason string) error {
	return &ErrUnsupported{System: system, Reason: reason}
}

// fkEdge is one foreign-key join in the physical schema.
type fkEdge struct {
	FromTable, FromCol string
	ToTable, ToCol     string
}

// schema is the physical-layer view every baseline shares: table and
// column names plus the FK graph. It is extracted from the metadata graph
// without SODA's pattern machinery — these systems predate it.
type schema struct {
	tables  []string
	columns map[string][]string // table -> column names
	edges   []fkEdge
	adj     map[string][]int // table -> edge indexes
	cyclic  bool
}

// extractSchema walks the metadata graph's physical triples.
func extractSchema(meta *metagraph.Graph) *schema {
	s := &schema{
		columns: make(map[string][]string),
		adj:     make(map[string][]int),
	}
	tablePred := rdf.NewIRI(metagraph.PredTableName)
	for tr := range meta.G.WithPredicate(tablePred) {
		name := tr.O.Value()
		s.tables = append(s.tables, name)
		for _, col := range meta.G.Objects(tr.S, rdf.NewIRI(metagraph.PredColumn)) {
			if cn, ok := meta.ColumnName(col); ok {
				s.columns[name] = append(s.columns[name], cn)
			}
		}
	}
	sort.Strings(s.tables)

	colTable := func(col rdf.Term) (string, string, bool) {
		cn, ok := meta.ColumnName(col)
		if !ok {
			return "", "", false
		}
		tblNode, ok := meta.ColumnTable(col)
		if !ok {
			return "", "", false
		}
		tn, ok := meta.TableName(tblNode)
		return tn, cn, ok
	}
	addEdge := func(from, to rdf.Term) {
		ft, fc, ok1 := colTable(from)
		tt, tc, ok2 := colTable(to)
		if !ok1 || !ok2 || ft == tt {
			return
		}
		idx := len(s.edges)
		s.edges = append(s.edges, fkEdge{FromTable: ft, FromCol: fc, ToTable: tt, ToCol: tc})
		s.adj[ft] = append(s.adj[ft], idx)
		s.adj[tt] = append(s.adj[tt], idx)
	}
	for tr := range meta.G.WithPredicate(rdf.NewIRI(metagraph.PredForeignKey)) {
		addEdge(tr.S, tr.O)
	}
	// Explicit join nodes carry ordinary key/foreign-key relationships
	// too; a DB catalog would expose them as plain FKs, so the baselines
	// see them (they just cannot exploit any richer metadata).
	for tr := range meta.G.WithPredicate(rdf.NewIRI(metagraph.PredJoinFK)) {
		joinNode := tr.S
		for _, pk := range meta.G.Objects(joinNode, rdf.NewIRI(metagraph.PredJoinPK)) {
			addEdge(tr.O, pk)
		}
	}
	s.cyclic = s.detectCycle()
	return s
}

// detectCycle reports whether the undirected FK graph contains a cycle —
// the condition that breaks DBExplorer and DISCOVER per §6.2.
func (s *schema) detectCycle() bool {
	parent := make(map[string]string)
	var find func(x string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	for _, e := range s.edges {
		a, b := find(e.FromTable), find(e.ToTable)
		if a == b {
			return true
		}
		parent[a] = b
	}
	return false
}

// connect finds a join path between two tables with BFS, deterministic.
func (s *schema) connect(from, to string) ([]fkEdge, bool) {
	if from == to {
		return nil, true
	}
	type state struct {
		table string
		via   int
		prev  int
	}
	states := []state{{table: from, via: -1, prev: -1}}
	visited := map[string]bool{from: true}
	queue := []int{0}
	for len(queue) > 0 {
		si := queue[0]
		queue = queue[1:]
		st := states[si]
		if st.table == to {
			var path []fkEdge
			for cur := si; states[cur].via >= 0; cur = states[cur].prev {
				path = append(path, s.edges[states[cur].via])
			}
			return path, true
		}
		edgeIdxs := append([]int(nil), s.adj[st.table]...)
		sort.Ints(edgeIdxs)
		for _, ei := range edgeIdxs {
			e := s.edges[ei]
			next := e.FromTable
			if next == st.table {
				next = e.ToTable
			}
			if visited[next] {
				continue
			}
			visited[next] = true
			states = append(states, state{table: next, via: ei, prev: si})
			queue = append(queue, len(states)-1)
		}
	}
	return nil, false
}

// keywordsOf lower-cases and splits the raw input, dropping connectives.
func keywordsOf(input string) []string {
	var out []string
	for _, w := range strings.Fields(strings.ToLower(input)) {
		switch w {
		case "and", "or", "the", "of", "select":
			continue
		}
		out = append(out, strings.Trim(w, "()"))
	}
	return out
}

// hasOperatorSyntax reports whether the input uses comparison operators,
// date literals or aggregation syntax — features most baselines reject.
func hasOperatorSyntax(input string) bool {
	lower := strings.ToLower(input)
	for _, op := range []string{">", "<", "=", " like ", "date(", " between "} {
		if strings.Contains(lower, op) {
			return true
		}
	}
	return false
}

// hasAggregateSyntax reports whether the input contains an aggregation
// operator pattern.
func hasAggregateSyntax(input string) bool {
	lower := strings.ToLower(input)
	for _, fn := range []string{"sum", "count", "avg", "min", "max"} {
		if strings.Contains(lower, fn+"(") || strings.Contains(lower, fn+" (") {
			return true
		}
	}
	return false
}

// starSelect builds SELECT * FROM tables WHERE joins AND filters.
func starSelect(tables []string, joins []fkEdge, filters []sqlast.Expr) *sqlast.Select {
	sel := sqlast.NewSelect()
	sel.Items = []sqlast.SelectItem{{Star: true}}
	seen := map[string]bool{}
	add := func(t string) {
		if !seen[t] {
			seen[t] = true
			sel.From = append(sel.From, sqlast.TableRef{Table: t})
		}
	}
	for _, t := range tables {
		add(t)
	}
	var conj []sqlast.Expr
	for _, j := range joins {
		add(j.FromTable)
		add(j.ToTable)
		conj = append(conj, &sqlast.Binary{
			Op: sqlast.OpEq,
			L:  &sqlast.ColumnRef{Table: j.FromTable, Column: j.FromCol},
			R:  &sqlast.ColumnRef{Table: j.ToTable, Column: j.ToCol},
		})
	}
	conj = append(conj, filters...)
	sel.Where = sqlast.AndAll(conj...)
	return sel
}

// hitFilter converts an inverted-index column hit into a WHERE condition,
// the way the early keyword systems did (equality on the matched value).
func hitFilter(hit invidx.ColumnHit, keyword string) sqlast.Expr {
	col := &sqlast.ColumnRef{Table: hit.Table, Column: hit.Column}
	if len(hit.Values) == 1 {
		return &sqlast.Binary{Op: sqlast.OpEq, L: col, R: sqlast.StringLit(hit.Values[0])}
	}
	return &sqlast.Binary{Op: sqlast.OpLike, L: col, R: sqlast.StringLit("%" + keyword + "%")}
}

// execAll is a convenience for tests: run all statements on a database.
func execAll(db *backend.DB, sels []*sqlast.Select) ([]*backend.Result, error) {
	var out []*backend.Result
	for _, sel := range sels {
		res, err := memory.Exec(db, sel)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

package eval

import (
	"testing"

	"soda/internal/backend/memory"
	"soda/internal/core"
	"soda/internal/metagraph"
	"soda/internal/minibank"
	"soda/internal/rdf"
	"soda/internal/workload"
)

// Generated SQL must be executable and mean what the explanation says.
// These tests check two necessary conditions on every solution of a broad
// query set: every table and column it names exists in the backend's
// catalog, and every join it makes is backed by the metadata graph — a
// foreign_key triple, or a join node whose join_fk and join_pk point at
// the two columns. The witness reads those triples straight from the
// graph, not through the pattern matcher or the join graph, so it stays
// independent of the join discovery it checks.

// joinWitness is what the metadata graph's triples say about physical
// columns: the node naming each (table, column), and which column nodes
// a foreign key or a join node links.
type joinWitness struct {
	colNode map[core.ColRef]rdf.Term
	linked  map[[2]rdf.Term]bool // both orientations
}

func newJoinWitness(meta *metagraph.Graph) *joinWitness {
	g := meta.G
	iri := rdf.NewIRI
	names := func(pred string) map[rdf.Term]string {
		m := make(map[rdf.Term]string)
		for tr := range g.WithPredicate(iri(pred)) {
			m[tr.S] = tr.O.Value()
		}
		return m
	}
	tables, cols := names(metagraph.PredTableName), names(metagraph.PredColumnName)
	w := &joinWitness{colNode: make(map[core.ColRef]rdf.Term), linked: make(map[[2]rdf.Term]bool)}
	for tr := range g.WithPredicate(iri(metagraph.PredColumn)) {
		t, ok1 := tables[tr.S]
		c, ok2 := cols[tr.O]
		if ok1 && ok2 {
			w.colNode[core.ColRef{Table: t, Column: c}] = tr.O
		}
	}
	link := func(a, b rdf.Term) {
		w.linked[[2]rdf.Term{a, b}] = true
		w.linked[[2]rdf.Term{b, a}] = true
	}
	for tr := range g.WithPredicate(iri(metagraph.PredForeignKey)) {
		link(tr.S, tr.O)
	}
	joinNode := iri(metagraph.TypeJoinNode)
	for fk := range g.WithPredicate(iri(metagraph.PredJoinFK)) {
		if !g.Has(fk.S, iri(metagraph.PredType), joinNode) {
			continue
		}
		for _, pk := range g.Objects(fk.S, iri(metagraph.PredJoinPK)) {
			link(fk.O, pk)
		}
	}
	return w
}

// witnessed reports whether the graph links the join's two columns.
func (w *joinWitness) witnessed(j core.Join) bool {
	a, ok1 := w.colNode[core.ColRef{Table: j.LeftTable, Column: j.LeftCol}]
	b, ok2 := w.colNode[core.ColRef{Table: j.RightTable, Column: j.RightCol}]
	return ok1 && ok2 && w.linked[[2]rdf.Term{a, b}]
}

// checkSolutions searches every query and checks every solution against
// the catalog and the witness. It returns how many joins it checked.
func checkSolutions(t *testing.T, sys *core.System, queries []string) int {
	t.Helper()
	cat := sys.Backend.Catalog()
	wit := newJoinWitness(sys.Meta)
	hasTable := func(q, what, table string) {
		if _, ok := cat.Table(table); !ok {
			t.Errorf("%q: %s %q is not in the catalog", q, what, table)
		}
	}
	hasColumn := func(q, what string, c core.ColRef) {
		ts, ok := cat.Table(c.Table)
		if !ok {
			t.Errorf("%q: %s %s: table not in the catalog", q, what, c)
			return
		}
		for _, col := range ts.Columns {
			if col.Name == c.Column {
				return
			}
		}
		t.Errorf("%q: %s %s: column not in the catalog", q, what, c)
	}
	joins := 0
	for _, q := range queries {
		a, err := sys.Search(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		for _, sol := range a.Solutions {
			for _, list := range [][]string{sol.TableNames(), sol.Primaries, sol.SQLTables} {
				for _, tbl := range list {
					hasTable(q, "table", tbl)
				}
			}
			for _, j := range sol.Joins {
				joins++
				hasColumn(q, "join column", core.ColRef{Table: j.LeftTable, Column: j.LeftCol})
				hasColumn(q, "join column", core.ColRef{Table: j.RightTable, Column: j.RightCol})
				if !wit.witnessed(j) {
					t.Errorf("%q: join %s has no foreign_key or join node in the metadata graph", q, j)
				}
			}
			for _, f := range sol.Filters {
				hasColumn(q, "filter column", f.Col)
			}
			for _, ag := range sol.Aggs {
				if ag.Col != nil {
					hasColumn(q, "aggregate column", *ag.Col)
				}
			}
			for _, c := range sol.GroupBy {
				hasColumn(q, "group-by column", c)
			}
		}
	}
	return joins
}

func TestGeneratedSQLWitnessedWarehouse(t *testing.T) {
	var queries []string
	for _, q := range Corpus() {
		queries = append(queries, q.Input)
	}
	queries = append(queries, workload.New(world.Meta, world.Index, 7).Queries(600)...)
	joins := checkSolutions(t, sys, queries)
	t.Logf("%d queries, %d joins checked", len(queries), joins)
	if joins < 1000 {
		t.Fatalf("only %d joins checked; the query set no longer exercises join discovery", joins)
	}
}

func TestGeneratedSQLWitnessedMiniBank(t *testing.T) {
	mb := minibank.Build(minibank.Default())
	mbSys := core.NewSystem(memory.New(mb.DB), mb.Meta, mb.Index, core.Options{})
	queries := []string{
		"Sara Guttinger",
		"customers Zürich financial instruments",
		"wealthy customers",
		"sum (amount) group by (transaction date)",
		"top 10 trading volume customer",
		"financial instruments securities",
		"private customers family name",
	}
	queries = append(queries, workload.New(mb.Meta, mb.Index, 7).Queries(300)...)
	joins := checkSolutions(t, mbSys, queries)
	t.Logf("%d queries, %d joins checked", len(queries), joins)
	if joins < 100 {
		t.Fatalf("only %d joins checked; the query set no longer exercises join discovery", joins)
	}
}

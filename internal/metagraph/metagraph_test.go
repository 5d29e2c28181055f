package metagraph

import (
	"testing"

	"soda/internal/pattern"
	"soda/internal/rdf"
)

// buildSample wires a miniature two-table schema with all structural
// features: inheritance, direct FK, join node, bridge table, ontology,
// DBpedia, metadata filter, and three schema layers.
func buildSample() (*Builder, map[string]rdf.Term) {
	b := NewBuilder()
	n := make(map[string]rdf.Term)

	n["tParties"] = b.PhysicalTable("parties")
	n["cPartiesID"] = b.PhysicalColumn(n["tParties"], "id", "int")
	n["tIndividuals"] = b.PhysicalTable("individuals")
	n["cIndID"] = b.PhysicalColumn(n["tIndividuals"], "id", "int")
	n["cIndSalary"] = b.PhysicalColumn(n["tIndividuals"], "salary", "float")
	n["tOrgs"] = b.PhysicalTable("organizations")
	n["cOrgID"] = b.PhysicalColumn(n["tOrgs"], "id", "int")
	n["tEmploy"] = b.PhysicalTable("associate_employment")
	n["cEmpInd"] = b.PhysicalColumn(n["tEmploy"], "individual_id", "int")
	n["cEmpOrg"] = b.PhysicalColumn(n["tEmploy"], "organization_id", "int")

	b.ForeignKey(n["cIndID"], n["cPartiesID"])
	b.JoinRelationship(n["cOrgID"], n["cPartiesID"])
	n["inh"] = b.Inheritance(n["tParties"], n["tIndividuals"], n["tOrgs"])
	b.ForeignKey(n["cEmpInd"], n["cIndID"])
	b.ForeignKey(n["cEmpOrg"], n["cOrgID"])

	n["logParties"] = b.LogicalEntity("parties")
	n["conParties"] = b.ConceptEntity("parties", "party")
	b.Implements(n["conParties"], n["logParties"])
	b.Implements(n["logParties"], n["tParties"])
	n["logAttr"] = b.LogicalAttr(n["logParties"], "birth date")
	n["conAttr"] = b.ConceptAttr(n["conParties"], "birth date")
	b.Relates(n["conParties"], n["conParties"]) // self-relationship for counting

	n["ontCustomers"] = b.OntologyConcept("customers", []rdf.Term{n["conParties"]}, "customer")
	n["ontWealthy"] = b.OntologyConcept("wealthy customers", []rdf.Term{n["tIndividuals"]})
	b.SubConcept(n["ontWealthy"], n["ontCustomers"])
	n["flt"] = b.MetadataFilter(n["ontWealthy"], n["cIndSalary"], ">=", "1000000")
	n["dbp"] = b.DBpediaEntry("client", n["ontCustomers"])
	return b, n
}

func TestBuilderNodeTypes(t *testing.T) {
	b, n := buildSample()
	g := b.Graph()
	cases := map[string]string{
		"tParties":     TypePhysicalTable,
		"cPartiesID":   TypePhysicalColumn,
		"logParties":   TypeLogicalEntity,
		"conParties":   TypeConceptEntity,
		"ontCustomers": TypeOntologyConcept,
		"dbp":          TypeDBpediaEntry,
		"inh":          TypeInheritanceNode,
		"flt":          TypeMetadataFilter,
	}
	for key, want := range cases {
		got, ok := g.TypeOf(n[key])
		if !ok || got != want {
			t.Errorf("TypeOf(%s) = %q, %v; want %q", key, got, ok, want)
		}
		if !g.IsType(n[key], want) {
			t.Errorf("IsType(%s, %s) = false", key, want)
		}
	}
	if _, ok := g.TypeOf(rdf.NewIRI("absent")); ok {
		t.Error("TypeOf of absent node should fail")
	}
}

func TestLayerAssignment(t *testing.T) {
	b, n := buildSample()
	g := b.Graph()
	cases := map[string]string{
		"tParties":     LayerPhysical,
		"logParties":   LayerLogical,
		"conParties":   LayerConceptual,
		"ontCustomers": LayerDomainOntology,
		"dbp":          LayerDBpedia,
	}
	for key, want := range cases {
		if got := g.LayerOf(n[key]); got != want {
			t.Errorf("LayerOf(%s) = %q, want %q", key, got, want)
		}
	}
	if g.LayerOf(rdf.NewIRI("absent")) != "" {
		t.Error("LayerOf absent should be empty")
	}
}

func TestLayerScoresOrdered(t *testing.T) {
	layers := Layers()
	for i := 1; i < len(layers); i++ {
		if LayerScore(layers[i-1]) <= LayerScore(layers[i]) {
			t.Fatalf("layer scores must strictly decrease: %s vs %s", layers[i-1], layers[i])
		}
	}
	if LayerScore("unknown") >= LayerScore(LayerDBpedia) {
		t.Fatal("unknown layer must rank below DBpedia")
	}
}

func TestLabelLookupNormalised(t *testing.T) {
	b, n := buildSample()
	g := b.Graph()
	// "customers" concept must be findable case-insensitively.
	hits := g.LookupLabel("CUSTOMERS")
	if len(hits) != 1 || hits[0] != n["ontCustomers"] {
		t.Fatalf("LookupLabel = %v", hits)
	}
	// Synonym label.
	if len(g.LookupLabel("customer")) == 0 {
		t.Fatal("synonym label should be indexed")
	}
	if len(g.LookupLabel("no such label")) > 0 {
		t.Fatal("absent label matched")
	}
	// tablename auto-label.
	if len(g.LookupLabel("parties")) == 0 {
		t.Fatal("table name should be a searchable label")
	}
}

func TestTableColumnAccessors(t *testing.T) {
	b, n := buildSample()
	g := b.Graph()
	if name, ok := g.TableName(n["tParties"]); !ok || name != "parties" {
		t.Fatalf("TableName = %q, %v", name, ok)
	}
	if _, ok := g.TableName(n["cPartiesID"]); ok {
		t.Fatal("TableName of a column should fail")
	}
	if name, ok := g.ColumnName(n["cIndSalary"]); !ok || name != "salary" {
		t.Fatalf("ColumnName = %q, %v", name, ok)
	}
	tbl, ok := g.ColumnTable(n["cIndSalary"])
	if !ok || tbl != n["tIndividuals"] {
		t.Fatalf("ColumnTable = %v, %v", tbl, ok)
	}
	if _, ok := g.ColumnTable(n["tParties"]); ok {
		t.Fatal("ColumnTable of a table should fail")
	}
}

func TestStatsCounts(t *testing.T) {
	b, _ := buildSample()
	s := b.Graph().Stats()
	if s.PhysicalTables != 4 {
		t.Errorf("PhysicalTables = %d, want 4", s.PhysicalTables)
	}
	if s.PhysicalColumns != 6 {
		t.Errorf("PhysicalColumns = %d, want 6", s.PhysicalColumns)
	}
	if s.ConceptEntities != 1 || s.LogicalEntities != 1 {
		t.Errorf("entities = %d/%d, want 1/1", s.ConceptEntities, s.LogicalEntities)
	}
	if s.ConceptAttrs != 1 || s.LogicalAttrs != 1 {
		t.Errorf("attrs = %d/%d", s.ConceptAttrs, s.LogicalAttrs)
	}
	if s.ConceptRelations != 1 {
		t.Errorf("ConceptRelations = %d, want 1", s.ConceptRelations)
	}
	if s.OntologyConcepts != 2 || s.DBpediaEntries != 1 {
		t.Errorf("ontology/dbpedia = %d/%d", s.OntologyConcepts, s.DBpediaEntries)
	}
	if s.InheritanceNodes != 1 || s.JoinNodes != 1 || s.MetadataFilters != 1 {
		t.Errorf("structural nodes = %d/%d/%d", s.InheritanceNodes, s.JoinNodes, s.MetadataFilters)
	}
	if s.Triples != b.Graph().G.Len() {
		t.Error("Triples must equal graph length")
	}
}

func TestPatternsMatchBuiltGraph(t *testing.T) {
	b, n := buildSample()
	g := b.Graph()
	reg := Patterns()
	m := pattern.NewMatcher(g.G, reg)

	if !m.MatchesName(PatTable, n["tParties"]) {
		t.Error("table pattern should match parties")
	}
	if m.MatchesName(PatTable, n["logParties"]) {
		t.Error("table pattern matched a logical entity")
	}
	if !m.MatchesName(PatColumn, n["cIndSalary"]) {
		t.Error("column pattern should match salary")
	}
	if !m.MatchesName(PatForeignKey, n["cIndID"]) {
		t.Error("fk pattern should match individuals.id")
	}
	if m.MatchesName(PatForeignKey, n["cPartiesID"]) {
		t.Error("fk pattern matched the pk side")
	}
	// Join-Relationship: the join node itself matches.
	joins := m.FindAll(reg.Get(PatJoinRelationship))
	if len(joins) != 1 {
		t.Errorf("join-relationship matches = %d, want 1", len(joins))
	}
	// Inheritance child: both children match, parent does not.
	if !m.MatchesName(PatInheritanceChild, n["tIndividuals"]) ||
		!m.MatchesName(PatInheritanceChild, n["tOrgs"]) {
		t.Error("inheritance child pattern should match both children")
	}
	if m.MatchesName(PatInheritanceChild, n["tParties"]) {
		t.Error("inheritance child matched the parent")
	}
	// Metadata filter: matches at the wealthy concept.
	bs := m.MatchName(PatMetadataFilter, n["ontWealthy"])
	if len(bs) != 1 {
		t.Fatalf("metadata filter matches = %d, want 1", len(bs))
	}
	op, _ := bs[0].Get("op")
	val, _ := bs[0].Get("v")
	col, _ := bs[0].Get("c")
	if op.Value() != ">=" || val.Value() != "1000000" || col != n["cIndSalary"] {
		t.Errorf("filter binding = op %v val %v col %v", op, val, col)
	}
	// Bridge table: associate_employment has two outgoing FKs.
	bridges := m.MatchName(PatBridgeTable, n["tEmploy"])
	foundDistinct := false
	for _, bnd := range bridges {
		c1, _ := bnd.Get("c1")
		c2, _ := bnd.Get("c2")
		if c1 != c2 {
			foundDistinct = true
		}
	}
	if !foundDistinct {
		t.Error("bridge pattern should match with two distinct FK columns")
	}
	if m.MatchesName(PatBridgeTable, n["tParties"]) {
		t.Error("bridge pattern matched a table without outgoing FKs")
	}
}

func TestInheritanceRequiresTwoChildren(t *testing.T) {
	b := NewBuilder()
	p := b.PhysicalTable("p")
	c := b.PhysicalTable("c")
	defer func() {
		if recover() == nil {
			t.Fatal("single-child inheritance should panic")
		}
	}()
	b.Inheritance(p, c)
}

func TestPhysicalColumnOnNonTablePanics(t *testing.T) {
	b := NewBuilder()
	e := b.LogicalEntity("x")
	defer func() {
		if recover() == nil {
			t.Fatal("PhysicalColumn on non-table should panic")
		}
	}()
	b.PhysicalColumn(e, "c", "int")
}

func TestIgnoreJoinAnnotation(t *testing.T) {
	b, n := buildSample()
	g := b.Graph()
	// Annotate the FK column and check the triple exists.
	b.IgnoreJoin(n["cEmpInd"])
	if !g.G.Has(n["cEmpInd"], rdf.NewIRI(PredIgnoreJoin), rdf.NewText("true")) {
		t.Fatal("IgnoreJoin triple missing")
	}
}

func TestDuplicateLabelIndexedOnce(t *testing.T) {
	b := NewBuilder()
	tbl := b.PhysicalTable("t")
	b.Label(tbl, "the same", "the same")
	g := b.Graph()
	if got := len(g.LookupLabel("the same")); got != 1 {
		t.Fatalf("duplicate label indexed %d times", got)
	}
	if g.NumLabels() == 0 {
		t.Fatal("NumLabels should count labels")
	}
}

// Command sodagen builds the bundled worlds and dumps their structure:
// schema layers (Figures 1-3), metadata-graph statistics (Table 1 shape),
// and inverted-index size (§5.1.2's measurements). With -query it dumps
// the SQL the pipeline generates for one input, rendered in one dialect
// or all of them — the quickest way to see what a specific warehouse
// backend would receive.
//
// Usage:
//
//	sodagen -world minibank -layer conceptual   # Figure 1
//	sodagen -world minibank -layer logical      # Figure 2
//	sodagen -world minibank -layer all          # Figure 3 layering
//	sodagen -world warehouse                    # Table 1 stats + index size
//	sodagen -world minibank -query "wealthy customers" -dialect db2
//	sodagen -world minibank -query "top 10 trading volume customer" -dialect all
//	sodagen -world minibank -ddl -dialect postgres > minibank.sql
//
// -ddl dumps the world's base data as executable CREATE TABLE + INSERT
// statements in the chosen dialect — the same loader the sqldb backend
// uses — so a real warehouse can be populated with psql/mysql clients
// out of band.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"soda"
	"soda/internal/backend"
	"soda/internal/metagraph"
	"soda/internal/rdf"
	"soda/internal/sqlast"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sodagen: ")
	worldName := flag.String("world", "warehouse", "world to generate: minibank or warehouse")
	layer := flag.String("layer", "", "dump one schema layer: conceptual, logical, physical, ontology, dbpedia, all")
	export := flag.String("export", "", "write the metadata graph as N-Triples to this file (the §5.3.2 RDF export)")
	query := flag.String("query", "", "dump the generated SQL for this input query instead of world structure")
	dialect := flag.String("dialect", "generic", "SQL dialect for -query: "+strings.Join(soda.Dialects(), ", ")+", or all")
	ddl := flag.Bool("ddl", false, "dump the world's base data as CREATE TABLE + INSERT statements in -dialect")
	flag.Parse()

	var world *soda.World
	switch *worldName {
	case "minibank":
		world = soda.MiniBank()
	case "warehouse":
		world = soda.Warehouse(soda.WarehouseConfig{})
	default:
		log.Fatalf("unknown world %q", *worldName)
	}

	if *ddl {
		dumpDDL(world, *dialect)
		return
	}

	if *query != "" {
		dumpSQL(world, *query, *dialect)
		return
	}

	s := world.Stats()
	fmt.Printf("world %s: %d tables, %d triples, %d labels\n",
		world.Name(), len(world.TableNames()), s.Triples, world.Meta().NumLabels())
	fmt.Printf("schema graph: %d/%d/%d conceptual (entities/attrs/rels), %d/%d/%d logical, %d tables / %d columns\n",
		s.ConceptEntities, s.ConceptAttrs, s.ConceptRelations,
		s.LogicalEntities, s.LogicalAttrs, s.LogicalRelations,
		s.PhysicalTables, s.PhysicalColumns)
	fmt.Printf("ontology: %d concepts, %d DBpedia entries, %d metadata filters\n",
		s.OntologyConcepts, s.DBpediaEntries, s.MetadataFilters)
	fmt.Printf("structure: %d inheritance nodes, %d join nodes\n",
		s.InheritanceNodes, s.JoinNodes)
	fmt.Printf("inverted index: %d distinct terms, %d postings (text columns only)\n",
		world.Index().NumTerms(), world.Index().NumPostings())

	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			log.Fatal(err)
		}
		if err := rdf.WriteNTriples(f, world.Meta().G); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("exported %d triples to %s\n", world.Meta().G.Len(), *export)
	}

	if *layer == "" {
		return
	}
	layers := map[string]string{
		"conceptual": metagraph.LayerConceptual,
		"logical":    metagraph.LayerLogical,
		"physical":   metagraph.LayerPhysical,
		"ontology":   metagraph.LayerDomainOntology,
		"dbpedia":    metagraph.LayerDBpedia,
	}
	var dump []string
	if *layer == "all" {
		dump = []string{"dbpedia", "ontology", "conceptual", "logical", "physical"}
	} else if _, ok := layers[*layer]; ok {
		dump = []string{*layer}
	} else {
		log.Fatalf("unknown layer %q", *layer)
	}
	for _, l := range dump {
		fmt.Printf("\n==== %s layer ====\n", l)
		printLayer(world.Meta(), layers[l])
	}
}

// dumpDDL writes the world's corpus as an executable SQL script.
func dumpDDL(world *soda.World, dialect string) {
	d, ok := sqlast.DialectByName(dialect)
	if !ok {
		log.Fatalf("unknown dialect %q (want %s)", dialect, strings.Join(soda.Dialects(), ", "))
	}
	out := bufio.NewWriter(os.Stdout)
	if err := backend.WriteScript(out, world.DB(), d, backend.DefaultInsertBatch); err != nil {
		log.Fatal(err)
	}
	if err := out.Flush(); err != nil {
		log.Fatal(err)
	}
}

// dumpSQL runs the pipeline on one query and prints the ranked SQL in
// the requested dialect ("all" renders every statement once per
// dialect, aligned for eyeballing the differences).
func dumpSQL(world *soda.World, query, dialect string) {
	dialects := []string{dialect}
	if dialect == "all" {
		dialects = soda.Dialects()
	} else if !soda.KnownDialect(dialect) {
		log.Fatalf("unknown dialect %q (want %s, or all)", dialect, strings.Join(soda.Dialects(), ", "))
	}
	sys := soda.NewSystem(world, soda.Options{})
	for _, d := range dialects {
		ans, err := sys.SearchWith(query, soda.SearchOptions{Dialect: d})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("==== dialect %s: %d result(s) ====\n", d, len(ans.Results))
		for i, r := range ans.Results {
			fmt.Printf("-- [%d] score %.2f\n%s\n", i+1, r.Score, r.SQL)
		}
	}
}

// printLayer lists the nodes of one metadata layer with their labels and
// outgoing relationships.
func printLayer(meta *metagraph.Graph, layerURI string) {
	g := meta.G
	var nodes []rdf.Term
	for tr := range g.WithPredicate(rdf.NewIRI(metagraph.PredInLayer)) {
		if tr.O.Value() == layerURI {
			nodes = append(nodes, tr.S)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Value() < nodes[j].Value() })
	shown := 0
	for _, n := range nodes {
		typ, _ := meta.TypeOf(n)
		if typ == metagraph.TypeLogicalAttr || typ == metagraph.TypeConceptAttr ||
			typ == metagraph.TypePhysicalColumn {
			continue // attributes make the dump unreadable; entities suffice
		}
		var labels, rels []string
		g.Outgoing(n, func(p, o rdf.Term) bool {
			switch p.Value() {
			case metagraph.PredLabel:
				labels = append(labels, o.Value())
			case metagraph.PredRelates, metagraph.PredImplements,
				metagraph.PredClassifies, metagraph.PredRefersTo:
				rels = append(rels, p.Value()+"→"+o.Value())
			}
			return true
		})
		fmt.Printf("%-40s %-20s %s\n", n.Value(), strings.Join(labels, "|"), strings.Join(rels, " "))
		shown++
		if shown >= 60 {
			fmt.Printf("... (%d more nodes)\n", len(nodes)-shown)
			return
		}
	}
}

// Package warehouse generates the synthetic enterprise data warehouse that
// substitutes for the Credit Suisse integration layer of §5.1. The
// generated world matches the paper's Table 1 cardinalities exactly —
//
//	226 conceptual entities,  985 conceptual attributes, 243 conceptual relationships
//	436 logical entities,    2700 logical attributes,    254 logical relationships
//	472 physical tables,     3181 physical columns
//
// — and plants the structural quirks the paper's war stories describe:
//
//   - bi-temporal historisation whose real join keys are not properly
//     reflected in the schema graph (the individual_name_hist snapshot
//     join), causing the recall collapse of Q2.1/Q2.2 in Table 3;
//   - bridge tables between inheritance siblings (associate_employment,
//     Figure 10), which hijack join paths and wreck Q9.0;
//   - cryptic physical names ("birth_dt", "_td" suffixes, §6.2) that are
//     only reachable through the logical/conceptual layers;
//   - multi-level inheritance ("dozens of inheritance relationships with
//     several levels", §5.1.2).
//
// The domain core (parties, orders, products, agreements, currencies) is
// hand-modelled so the 13 experiment queries of Table 2 are answerable;
// deterministic padding fills the remaining entities, attributes, tables,
// columns and relationships up to the Table 1 totals.
package warehouse

import (
	"fmt"

	"soda/internal/backend"
	"soda/internal/invidx"
	"soda/internal/metagraph"
	"soda/internal/rdf"
)

// Table 1 targets.
const (
	TargetConceptEntities  = 226
	TargetConceptAttrs     = 985
	TargetConceptRelations = 243
	TargetLogicalEntities  = 436
	TargetLogicalAttrs     = 2700
	TargetLogicalRelations = 254
	TargetPhysicalTables   = 472
	TargetPhysicalColumns  = 3181
)

// Config sizes the synthetic base data. The zero value is replaced by
// Default.
type Config struct {
	Seed          int64
	Individuals   int
	Organizations int
	NameVersions  int // history rows per individual (recall 0.2 needs 5)
	Agreements    int
	Products      int
	Orders        int
	PadRows       int // rows per padded table

	// FixBiTemporal applies the §5.3.1 mitigation: annotate the snapshot
	// join as ignored and model the proper individual_id join, restoring
	// the recall of Q2.x (the Table 3 ablation).
	FixBiTemporal bool
	// FixSiblingBridges annotates bridge tables between inheritance
	// siblings with ignore_join (the other §5.3.1 mitigation).
	FixSiblingBridges bool
}

// Default returns the standard configuration.
func Default() Config {
	return Config{
		Seed:          7,
		Individuals:   300,
		Organizations: 60,
		NameVersions:  5,
		Agreements:    40,
		Products:      80,
		Orders:        3000,
		PadRows:       20,
	}
}

func (c Config) withDefaults() Config {
	d := Default()
	if c.Individuals <= 0 {
		c.Individuals = d.Individuals
	}
	if c.Organizations <= 0 {
		c.Organizations = d.Organizations
	}
	if c.NameVersions <= 0 {
		c.NameVersions = d.NameVersions
	}
	if c.Agreements <= 0 {
		c.Agreements = d.Agreements
	}
	if c.Products <= 0 {
		c.Products = d.Products
	}
	if c.Orders <= 0 {
		c.Orders = d.Orders
	}
	if c.PadRows <= 0 {
		c.PadRows = d.PadRows
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// World bundles the generated warehouse.
type World struct {
	DB    *backend.DB
	Meta  *metagraph.Graph
	Index *invidx.Index
	Cfg   Config

	// Nodes of interest for tests and the experiment harness.
	Nodes map[string]rdf.Term
}

// Build generates the warehouse. The result is deterministic for a given
// configuration.
func Build(cfg Config) *World {
	w := BuildNoIndex(cfg)
	w.Index = invidx.Build(w.DB)
	return w
}

// BuildNoIndex generates the warehouse without its inverted index, for
// callers that build the index later, on its own goroutine (soda.World
// builds it on first use).
func BuildNoIndex(cfg Config) *World {
	cfg = cfg.withDefaults()
	w := &World{Cfg: cfg, Nodes: make(map[string]rdf.Term)}
	w.DB = backend.NewDB()
	b := metagraph.NewBuilder()

	d := &domain{cfg: cfg, db: w.DB, b: b, nodes: w.Nodes}
	d.buildSchema()
	d.buildData()

	pad(cfg, w.DB, b)

	w.Meta = b.Graph()

	s := w.Meta.Stats()
	check := func(name string, got, want int) {
		if got != want {
			panic(fmt.Sprintf("warehouse: %s = %d, want %d (Table 1)", name, got, want))
		}
	}
	check("conceptual entities", s.ConceptEntities, TargetConceptEntities)
	check("conceptual attributes", s.ConceptAttrs, TargetConceptAttrs)
	check("conceptual relationships", s.ConceptRelations, TargetConceptRelations)
	check("logical entities", s.LogicalEntities, TargetLogicalEntities)
	check("logical attributes", s.LogicalAttrs, TargetLogicalAttrs)
	check("logical relationships", s.LogicalRelations, TargetLogicalRelations)
	check("physical tables", s.PhysicalTables, TargetPhysicalTables)
	check("physical columns", s.PhysicalColumns, TargetPhysicalColumns)
	return w
}

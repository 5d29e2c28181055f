package pattern_test

import (
	"testing"

	"soda/internal/metagraph"
	"soda/internal/minibank"
	"soda/internal/pattern"
	"soda/internal/warehouse"
)

// The compiled matcher agrees with the Term-level oracle on the shipped
// patterns over both worlds' metadata graphs, at every node.
func TestCompiledMatchesOracleMiniBank(t *testing.T) {
	w := minibank.BuildNoIndex(minibank.Default())
	compareWorld(t, w.Meta)
}

func TestCompiledMatchesOracleWarehouse(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the warehouse metadata graph")
	}
	w := warehouse.BuildNoIndex(warehouse.Default())
	compareWorld(t, w.Meta)
}

func compareWorld(t *testing.T, meta *metagraph.Graph) {
	reg := metagraph.Patterns()
	var pats []*pattern.Pattern
	for _, name := range reg.Names() {
		pats = append(pats, reg.Get(name))
	}
	pattern.CompareWithOracle(t, meta.G, reg, pats, meta.G.Nodes())
}

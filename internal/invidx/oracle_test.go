package invidx_test

import (
	"testing"

	"soda/internal/invidx"
	"soda/internal/metagraph"
	"soda/internal/minibank"
	"soda/internal/warehouse"
)

// TestWorldLookupsMatchReference holds both worlds' indexes to the
// reference oracle on the phrases the lookup step asks of them: every
// token, stored value and metadata label. The reference spends ~5 ms on
// each of the warehouse's 9,686 stored values (their words "ref" and "td"
// have 18,320 postings each), so it checks every 40th of those; the baked
// tables are checked entry for entry against the old bake.
func TestWorldLookupsMatchReference(t *testing.T) {
	mb := minibank.Build(minibank.Default())
	wh := warehouse.Build(warehouse.Default())
	for _, w := range []struct {
		name   string
		idx    *invidx.Index
		meta   *metagraph.Graph
		stride int
	}{{"minibank", mb.Index, mb.Meta, 1}, {"warehouse", wh.Index, wh.Meta, 40}} {
		t.Run(w.name, func(t *testing.T) {
			values := invidx.StoredValues(w.idx)
			checked := append(w.idx.Terms(), w.meta.Labels()...)
			for i := 0; i < len(values); i += w.stride {
				checked = append(checked, values[i])
			}
			invidx.CheckAgainstReference(t, w.idx, checked)
			invidx.CheckBakeAgainstReference(t, w.idx)
		})
	}
}

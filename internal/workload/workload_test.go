package workload

import (
	"context"
	"strings"
	"testing"

	"soda/internal/backend/memory"
	"soda/internal/core"
	"soda/internal/minibank"
	"soda/internal/queryparse"
	"soda/internal/warehouse"
)

var (
	mb  = minibank.Build(minibank.Default())
	gen = New(mb.Meta, mb.Index, 42)
)

func TestGeneratorDeterministic(t *testing.T) {
	g1 := New(mb.Meta, mb.Index, 7)
	g2 := New(mb.Meta, mb.Index, 7)
	for i := 0; i < 50; i++ {
		a, b := g1.Query(), g2.Query()
		if a != b {
			t.Fatalf("sequence diverged at %d: %q vs %q", i, a, b)
		}
	}
}

func TestGeneratedQueriesParse(t *testing.T) {
	for i, q := range gen.Queries(500) {
		if _, err := queryparse.Parse(q); err != nil {
			t.Fatalf("query %d %q failed to parse: %v", i, q, err)
		}
	}
}

func TestGeneratedQueriesMix(t *testing.T) {
	qs := New(mb.Meta, mb.Index, 3).Queries(400)
	var hasAgg, hasCmp, hasTop, hasPlain bool
	for _, q := range qs {
		switch {
		case strings.HasPrefix(q, "top "):
			hasTop = true
		case strings.Contains(q, "("):
			hasAgg = true
		case strings.ContainsAny(q, "<>="):
			hasCmp = true
		default:
			hasPlain = true
		}
	}
	if !hasAgg || !hasCmp || !hasTop || !hasPlain {
		t.Fatalf("mix incomplete: agg=%v cmp=%v top=%v plain=%v", hasAgg, hasCmp, hasTop, hasPlain)
	}
}

// The §5.1.3 corner-case fuzz: Search never errors on generated input,
// and every produced statement reparses and executes.
func TestFuzzSearchMiniBank(t *testing.T) {
	sys := core.NewSystem(memory.New(mb.DB), mb.Meta, mb.Index, core.Options{})
	sys.Warm()
	g := New(mb.Meta, mb.Index, 11)
	for i, q := range g.Queries(300) {
		a, err := sys.Search(q)
		if err != nil {
			t.Fatalf("query %d %q: search error: %v", i, q, err)
		}
		for _, sol := range a.Solutions {
			if sol.SQL == nil {
				continue
			}
			if _, err := sys.Execute(context.Background(), sol); err != nil {
				t.Fatalf("query %d %q: generated SQL failed: %v\n%s",
					i, q, err, sol.SQLText())
			}
		}
	}
}

func TestFuzzSearchWarehouse(t *testing.T) {
	if testing.Short() {
		t.Skip("warehouse fuzz in -short mode")
	}
	w := warehouse.Build(warehouse.Default())
	sys := core.NewSystem(memory.New(w.DB), w.Meta, w.Index, core.Options{})
	sys.Warm()
	g := New(w.Meta, w.Index, 13)
	for i, q := range g.Queries(100) {
		a, err := sys.Search(q)
		if err != nil {
			t.Fatalf("query %d %q: search error: %v", i, q, err)
		}
		for _, sol := range a.Solutions {
			if sol.SQL == nil {
				continue
			}
			if _, err := sys.Execute(context.Background(), sol); err != nil {
				t.Fatalf("query %d %q: generated SQL failed: %v\n%s",
					i, q, err, sol.SQLText())
			}
		}
	}
}

func TestNewPanicsOnEmptyWorld(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty world should panic")
		}
	}()
	New(nil, nil, 1)
}

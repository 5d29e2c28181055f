//go:build !race

// The race detector instruments allocations, so the allocation guard only
// runs in non-race builds.

package engine

import (
	"testing"

	"soda/internal/sqlparse"
)

// TestJoinIndexAllocs: once a column's join index exists, a LIMIT 20 join
// that probes it allocates the same whatever the size of the table behind
// the index, so a snippet costs what it shows, not what it joins.
func TestJoinIndexAllocs(t *testing.T) {
	sel, err := sqlparse.Parse("SELECT a.id, b.v FROM a, b WHERE b.aid = a.id LIMIT 20")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(buildRows int) float64 {
		db := NewDB()
		a := db.Create("a", Column{Name: "id", Type: TInt})
		for i := 0; i < 10; i++ {
			a.Insert(Int(int64(i)))
		}
		b := db.Create("b", Column{Name: "aid", Type: TInt}, Column{Name: "v", Type: TInt})
		for i := 0; i < buildRows; i++ {
			b.Insert(Int(int64(i%10)), Int(int64(i)))
		}
		res, err := Exec(db, sel) // first use builds the index
		if err != nil || res.NumRows() != 20 {
			t.Fatalf("%d build rows: %v rows, %v", buildRows, res, err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := Exec(db, sel); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(10_000)
	if small != large {
		t.Errorf("allocs per LIMIT 20 join: %v with 100 build rows, %v with 10,000", small, large)
	}
}

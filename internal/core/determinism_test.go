package core

import (
	"context"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"soda/internal/backend/memory"
	"soda/internal/invidx"
	"soda/internal/minibank"
)

// The paper presents users an ordered result page; reruns of the same
// query must therefore produce identical ranked SQL. These tests pin the
// pipeline's determinism across runs and across fresh systems.

var determinismQueries = []string{
	"Sara Guttinger",
	"customers Zürich financial instruments",
	"wealthy customers",
	"customer",
	"sum (amount) group by (transaction date)",
	"top 10 count (transactions) group by (company name)",
	"financial instruments securities",
	"private customers family name",
	"trade date > date(2011-09-01)",
}

func sqlsOf(t *testing.T, sys *System, q string) []string {
	t.Helper()
	a := search(t, sys, q)
	out := make([]string, 0, len(a.Solutions))
	for _, sol := range a.Solutions {
		out = append(out, sol.SQLText())
	}
	return out
}

func TestSameSystemRerunsIdentical(t *testing.T) {
	sys := newSys(t, Options{})
	for _, q := range determinismQueries {
		first := sqlsOf(t, sys, q)
		for run := 0; run < 3; run++ {
			again := sqlsOf(t, sys, q)
			if len(again) != len(first) {
				t.Fatalf("%q: result count changed between runs", q)
			}
			for i := range first {
				if first[i] != again[i] {
					t.Fatalf("%q: result %d changed:\n%s\nvs\n%s", q, i, first[i], again[i])
				}
			}
		}
	}
}

func TestFreshSystemsAgree(t *testing.T) {
	a := newSys(t, Options{})
	b := NewSystem(memory.New(world.DB), world.Meta, world.Index, Options{})
	for _, q := range determinismQueries {
		sa, sb := sqlsOf(t, a, q), sqlsOf(t, b, q)
		if len(sa) != len(sb) {
			t.Fatalf("%q: fresh systems disagree on count", q)
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("%q: fresh systems disagree:\n%s\nvs\n%s", q, sa[i], sb[i])
			}
		}
	}
}

func TestFreshWorldsAgree(t *testing.T) {
	// Deterministic world building implies deterministic answers on a
	// rebuilt world.
	w2 := minibank.Build(minibank.Default())
	sys2 := NewSystem(memory.New(w2.DB), w2.Meta, w2.Index, Options{})
	base := newSys(t, Options{})
	for _, q := range determinismQueries[:4] {
		sa, sb := sqlsOf(t, base, q), sqlsOf(t, sys2, q)
		if len(sa) != len(sb) {
			t.Fatalf("%q: rebuilt world disagrees on count", q)
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("%q: rebuilt world disagrees:\n%s\nvs\n%s", q, sa[i], sb[i])
			}
		}
	}
}

// property: solution scores are non-increasing down the ranked list for
// arbitrary queries drawn from the pool.
func TestScoresMonotoneQuick(t *testing.T) {
	sys := newSys(t, Options{})
	f := func(pick uint8) bool {
		q := determinismQueries[int(pick)%len(determinismQueries)]
		a, err := sys.Search(q)
		if err != nil {
			return false
		}
		for i := 1; i < len(a.Solutions); i++ {
			if a.Solutions[i].Score > a.Solutions[i-1].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// property: every generated statement reparses and executes (the paper's
// definition of "executable").
func TestAllGeneratedSQLExecutableQuick(t *testing.T) {
	sys := newSys(t, Options{})
	f := func(pick uint8) bool {
		q := determinismQueries[int(pick)%len(determinismQueries)]
		a, err := sys.Search(q)
		if err != nil {
			return false
		}
		for _, sol := range a.Solutions {
			if sol.SQL == nil {
				continue
			}
			if _, err := sys.Execute(context.Background(), sol); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// property: the complexity equals the product of non-empty candidate
// list sizes (§5.2.2's definition).
func TestComplexityProductQuick(t *testing.T) {
	sys := newSys(t, Options{})
	f := func(pick uint8) bool {
		q := determinismQueries[int(pick)%len(determinismQueries)]
		a, err := sys.Search(q)
		if err != nil {
			return false
		}
		product := 1
		for _, cands := range a.Candidates {
			if len(cands) > 0 {
				product *= len(cands)
			}
		}
		return product == a.Complexity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSearches exercises the mutex-guarded pipeline from many
// goroutines (run with -race in CI to catch regressions).
func TestConcurrentSearches(t *testing.T) {
	sys := newSys(t, Options{})
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			q := determinismQueries[g%len(determinismQueries)]
			a, err := sys.Search(q)
			if err == nil {
				for _, sol := range a.Solutions {
					if sol.SQL != nil {
						if _, e := sys.Execute(context.Background(), sol); e != nil {
							err = e
							break
						}
					}
				}
			}
			done <- err
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// A System whose index is still building (NewSystemIndexing) answers
// exactly like one handed a finished index, whether its searches race
// Warm or come before it.
func TestIndexingSystemMatchesEager(t *testing.T) {
	eager := NewSystem(memory.New(world.DB), world.Meta, world.Index, Options{CacheSize: -1})
	want := make(map[string][]string)
	for _, q := range determinismQueries {
		want[q] = sqlsOf(t, eager, q)
	}
	release := make(chan struct{})
	sys := NewSystemIndexing(memory.New(world.DB), world.Meta, func() *invidx.Index {
		<-release // the build cannot end before the searches and Warm start
		return invidx.Build(world.DB)
	}, Options{CacheSize: -1})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range determinismQueries {
				a, err := sys.Search(q)
				if err != nil {
					t.Errorf("%q: %v", q, err)
					return
				}
				var got []string
				for _, sol := range a.Solutions {
					got = append(got, sol.SQLText())
				}
				if !slices.Equal(got, want[q]) {
					t.Errorf("%q: searching beside the index build gave\n%v\nwant\n%v", q, got, want[q])
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sys.Warm()
	}()
	close(release)
	wg.Wait()
	sys.Warm() // idempotent
	if sys.Index().NumPostings() != world.Index.NumPostings() {
		t.Fatal("Index() is not the built index")
	}
}

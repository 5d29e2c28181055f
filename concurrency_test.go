package soda

// Concurrency stress tests for the serving-layer contract: one shared
// System hammered by many goroutines (the daemon's production shape) must
// stay race-free, deterministic, and must observe feedback-driven cache
// invalidation. Run with -race (CI does).

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

var stressQueries = []string{
	"Sara Guttinger",
	"customers Zürich financial instruments",
	"wealthy customers",
	"sum (amount) group by (transaction date)",
	"financial instruments securities",
}

func answerSQLs(t *testing.T, sys *System, q string) []string {
	t.Helper()
	ans, err := sys.Search(q)
	if err != nil {
		t.Fatalf("Search(%q): %v", q, err)
	}
	out := make([]string, len(ans.Results))
	for i, r := range ans.Results {
		out[i] = r.SQL
	}
	return out
}

// TestConcurrentSearchDeterministic runs the same queries from many
// goroutines against one shared System and asserts every goroutine saw
// the identical ranked SQL for every query.
func TestConcurrentSearchDeterministic(t *testing.T) {
	sys := NewSystem(MiniBank(), Options{})
	sys.Warm()

	const goroutines = 8
	const rounds = 3
	results := make([]map[string][]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seen := make(map[string][]string)
			for r := 0; r < rounds; r++ {
				// Stagger the order so goroutines race on different
				// queries at any instant.
				for i := range stressQueries {
					q := stressQueries[(i+g)%len(stressQueries)]
					ans, err := sys.Search(q)
					if err != nil {
						t.Errorf("goroutine %d: Search(%q): %v", g, q, err)
						return
					}
					sqls := make([]string, len(ans.Results))
					for k, res := range ans.Results {
						sqls[k] = res.SQL
					}
					if prev, ok := seen[q]; ok && !reflect.DeepEqual(prev, sqls) {
						t.Errorf("goroutine %d: %q changed between rounds", g, q)
						return
					}
					seen[q] = sqls
				}
			}
			results[g] = seen
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for g := 1; g < goroutines; g++ {
		for q, want := range results[0] {
			if !reflect.DeepEqual(want, results[g][q]) {
				t.Fatalf("goroutine %d saw different results for %q:\nwant %v\ngot  %v",
					g, q, want, results[g][q])
			}
		}
	}
}

// TestSharedSystemMixedWorkload mixes Search, Feedback, Browse and
// ExecuteSQL across >8 goroutines on one shared System — the full API
// surface the daemon exposes — and checks nothing errors or races.
func TestSharedSystemMixedWorkload(t *testing.T) {
	sys := NewSystem(MiniBank(), Options{})
	sys.Warm()
	tables := sys.World().TableNames()

	const goroutines = 12
	const iters = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (g + i) % 4 {
				case 0: // searcher
					q := stressQueries[i%len(stressQueries)]
					if _, err := sys.Search(q); err != nil {
						errs <- fmt.Errorf("goroutine %d: Search(%q): %v", g, q, err)
						return
					}
				case 1: // feedback giver
					ans, err := sys.Search("wealthy customers")
					if err != nil {
						errs <- err
						return
					}
					if len(ans.Results) > 0 {
						// Errors are tolerated: under heavy contention a
						// result can leave the answer before the feedback
						// re-resolves, which is a correct rejection, not a
						// failure.
						if i%2 == 0 {
							_ = ans.Results[0].Like()
						} else {
							_ = ans.Results[0].Dislike()
						}
					}
				case 2: // schema browser
					tbl := tables[i%len(tables)]
					if _, err := sys.Browse(tbl); err != nil {
						errs <- fmt.Errorf("goroutine %d: Browse(%q): %v", g, tbl, err)
						return
					}
				default: // SQL explorer
					if _, err := sys.ExecuteSQL("select * from parties"); err != nil {
						errs <- fmt.Errorf("goroutine %d: ExecuteSQL: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFeedbackInvalidatesCacheAcrossAPI asserts the serving-layer cache
// contract end to end: a repeated query is served from the cache, a Like
// invalidates it, and the next search reruns the pipeline with the
// feedback applied.
func TestFeedbackInvalidatesCacheAcrossAPI(t *testing.T) {
	sys := NewSystem(MiniBank(), Options{})

	first := answerSQLs(t, sys, "customer")
	st := sys.CacheStats()
	if st.Misses == 0 {
		t.Fatalf("stats = %+v, want a cold miss", st)
	}

	second := answerSQLs(t, sys, "customer")
	st2 := sys.CacheStats()
	if st2.Hits != st.Hits+1 {
		t.Fatalf("repeat search should hit the cache: %+v -> %+v", st, st2)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached answer differs from cold answer")
	}

	ans, err := sys.Search("customer")
	if err != nil {
		t.Fatal(err)
	}
	scoreBefore := ans.Results[0].Score
	if err := ans.Results[0].Like(); err != nil {
		t.Fatal(err)
	}

	after, err := sys.Search("customer")
	if err != nil {
		t.Fatal(err)
	}
	st3 := sys.CacheStats()
	if st3.Misses <= st2.Misses {
		t.Fatalf("post-feedback search must miss the cache: %+v -> %+v", st2, st3)
	}
	if after.Results[0].Score <= scoreBefore {
		t.Fatalf("liked result score %v should rise above %v", after.Results[0].Score, scoreBefore)
	}

	if err := sys.ResetFeedback(); err != nil {
		t.Fatal(err)
	}
	reset, err := sys.Search("customer")
	if err != nil {
		t.Fatal(err)
	}
	if reset.Results[0].Score != scoreBefore {
		t.Fatalf("after ResetFeedback score = %v, want the original %v", reset.Results[0].Score, scoreBefore)
	}
}

// TestClusterPullConsistentUnderFeedback: one goroutine likes answers while
// another serves pulls. Each pull response must describe one moment of the
// replica: its vector covers every record it returns, and its clock is at
// least every returned record's. Run with -race.
func TestClusterPullConsistentUnderFeedback(t *testing.T) {
	sys, err := Open(MiniBank(), Options{}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// Fewer likes than the compaction threshold, so nothing folds and an
	// empty vector is never behind.
	const likes = 300
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < likes; i++ {
			ans, err := sys.Search(stressQueries[i%len(stressQueries)])
			if err != nil {
				t.Error(err)
				return
			}
			if err := ans.Results[0].Like(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for pulls := 0; ; pulls++ {
		select {
		case <-done:
			if pulls == 0 {
				t.Fatal("no pull overlapped the writes")
			}
			return
		default:
		}
		resp, err := sys.ClusterPull("", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Behind {
			t.Fatal("empty vector reported behind before any fold")
		}
		for _, rec := range resp.Records {
			if !resp.Vector.Includes(rec.Origin, rec.OriginSeq) {
				t.Fatalf("pull %d: vector %v omits returned record %s/%d", pulls, resp.Vector, rec.Origin, rec.OriginSeq)
			}
			if rec.LC > resp.LC {
				t.Fatalf("pull %d: clock %d below returned record's %d", pulls, resp.LC, rec.LC)
			}
		}
	}
}

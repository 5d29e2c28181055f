package core

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"soda/internal/backend/memory"
	"soda/internal/metagraph"
)

// feedbackOnLayer re-runs the query and applies feedback to the solution
// whose first entry sits on the given layer. Each Feedback call bumps the
// ranking epoch, so repeated feedback must go through a fresh search —
// solutions from the previous page are rejected as stale.
func feedbackOnLayer(t *testing.T, sys *System, q, layer string, like bool) {
	t.Helper()
	a := search(t, sys, q)
	for _, sol := range a.Solutions {
		if len(sol.Entries) > 0 && sol.Entries[0].Layer == layer {
			if err := sys.Feedback(sol, like); err != nil {
				t.Fatalf("Feedback on %s: %v", layer, err)
			}
			return
		}
	}
	t.Fatalf("no solution with first entry on layer %s", layer)
}

func TestFeedbackRerankAmbiguousQuery(t *testing.T) {
	// A fresh system so feedback does not leak into other tests.
	sys := NewSystem(memory.New(world.DB), world.Meta, world.Index, Options{})

	// "customer" is ambiguous: the ontology concept outranks the DBpedia
	// candidates by default.
	a := search(t, sys, "customer")
	if len(a.Solutions) < 2 {
		t.Skipf("need >= 2 interpretations, got %d", len(a.Solutions))
	}
	first := a.Solutions[0]
	if first.Entries[0].Layer != metagraph.LayerDomainOntology {
		t.Fatalf("default best layer = %s", first.Entries[0].Layer)
	}

	// Disliking the ontology interpretation repeatedly sinks it below
	// the alternatives.
	for i := 0; i < 4; i++ {
		feedbackOnLayer(t, sys, "customer", metagraph.LayerDomainOntology, false)
	}
	a2 := search(t, sys, "customer")
	if a2.Solutions[0].Entries[0].Layer == metagraph.LayerDomainOntology {
		t.Fatalf("disliked interpretation still ranks first (score %.2f)",
			a2.Solutions[0].Score)
	}

	// Liking it back restores the original ranking.
	for i := 0; i < 8; i++ {
		feedbackOnLayer(t, sys, "customer", metagraph.LayerDomainOntology, true)
	}
	a3 := search(t, sys, "customer")
	if a3.Solutions[0].Entries[0].Layer != metagraph.LayerDomainOntology {
		t.Fatal("liked interpretation should rank first again")
	}
}

func TestFeedbackClamped(t *testing.T) {
	sys := NewSystem(memory.New(world.DB), world.Meta, world.Index, Options{})
	a := search(t, sys, "customers")
	target := keyOf(best(t, a).Entries[0])
	for i := 0; i < 8; i++ {
		// Re-search each round: the previous page is stale after its own
		// feedback bumped the epoch.
		a := search(t, sys, "customers")
		var sol *Solution
		for _, s2 := range a.Solutions {
			if len(s2.Entries) > 0 && keyOf(s2.Entries[0]) == target {
				sol = s2
				break
			}
		}
		if sol == nil {
			t.Fatal("liked interpretation left the answer")
		}
		if err := sys.Feedback(sol, true); err != nil {
			t.Fatal(err)
		}
	}
	adj := adjustment(sys, best(t, search(t, sys, "customers")).Entries[0])
	if adj != maxFeedback {
		t.Fatalf("adjustment = %f, want clamped accumulation to %f", adj, maxFeedback)
	}
}

func TestFeedbackStaleSolutionRejected(t *testing.T) {
	sys := NewSystem(memory.New(world.DB), world.Meta, world.Index, Options{})
	a := search(t, sys, "customers")
	sol := best(t, a)
	if err := sys.Feedback(sol, true); err != nil {
		t.Fatalf("first feedback at current epoch: %v", err)
	}
	// The first call bumped the epoch: the same page is now stale and a
	// second apply must be detected, not silently double-applied.
	err := sys.Feedback(sol, true)
	var stale *StaleSolutionError
	if !errors.As(err, &stale) {
		t.Fatalf("stale feedback error = %v, want *StaleSolutionError", err)
	}
	if stale.SolutionEpoch >= stale.CurrentEpoch {
		t.Fatalf("stale error epochs: %+v", stale)
	}
	if adj := adjustment(sys, sol.Entries[0]); adj != feedbackStep {
		t.Fatalf("adjustment = %f, want single step %f (stale call must not apply)", adj, feedbackStep)
	}
}

func TestFeedbackResetAndSummary(t *testing.T) {
	sys := NewSystem(memory.New(world.DB), world.Meta, world.Index, Options{})
	a := search(t, sys, "customers Zürich")
	sol := best(t, a)
	if err := sys.Feedback(sol, true); err != nil {
		t.Fatal(err)
	}
	fb := sys.ranking.Load().feedback
	if len(fb) == 0 {
		t.Fatal("feedback should record adjustments")
	}
	city := feedbackKey{column: ColRef{Table: "addresses", Column: "city"}}
	if fb[city] == 0 {
		t.Fatalf("base-data adjustment missing: %v", fb)
	}
	if err := sys.ResetFeedback(); err != nil {
		t.Fatal(err)
	}
	if len(sys.ranking.Load().feedback) != 0 {
		t.Fatal("reset should clear feedback")
	}
	if adjustment(sys, sol.Entries[0]) != 0 {
		t.Fatal("adjustment after reset should be 0")
	}
}

func TestFeedbackOnFreshSystemIsNeutral(t *testing.T) {
	sys := NewSystem(memory.New(world.DB), world.Meta, world.Index, Options{})
	a := search(t, sys, "customers")
	if adjustment(sys, a.Solutions[0].Entries[0]) != 0 {
		t.Fatal("fresh system must have zero adjustments")
	}
}

func TestBrowseMinibankTable(t *testing.T) {
	sys := NewSystem(memory.New(world.DB), world.Meta, world.Index, Options{})
	info, err := sys.Browse("individuals")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Columns) != 5 {
		t.Fatalf("columns = %d, want 5", len(info.Columns))
	}
	if info.InheritanceParent != "parties" {
		t.Fatalf("parent = %q, want parties", info.InheritanceParent)
	}
	// Related tables include the parent and addresses.
	related := map[string]bool{}
	for _, r := range info.Related {
		related[r.Table] = true
	}
	if !related["parties"] || !related["addresses"] {
		t.Fatalf("related = %v", related)
	}
	// Business terms reaching individuals include the ontology concepts.
	labels := strings.Join(info.Labels, "|")
	if !strings.Contains(labels, "private customer") {
		t.Fatalf("labels = %v", info.Labels)
	}
}

func TestBrowseParentListsChildren(t *testing.T) {
	sys := NewSystem(memory.New(world.DB), world.Meta, world.Index, Options{})
	info, err := sys.Browse("parties")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.InheritanceChildren) != 2 {
		t.Fatalf("children = %v", info.InheritanceChildren)
	}
	if info.InheritanceChildren[0] != "individuals" || info.InheritanceChildren[1] != "organizations" {
		t.Fatalf("children = %v", info.InheritanceChildren)
	}
	if info.InheritanceParent != "" {
		t.Fatalf("parties should have no parent, got %q", info.InheritanceParent)
	}
}

func TestBrowseUnknownTable(t *testing.T) {
	sys := NewSystem(memory.New(world.DB), world.Meta, world.Index, Options{})
	// Unknown and hostile names alike die at the backend-catalog check
	// with a clean "unknown table" error — a raw /browse/{table} path
	// segment must never travel further as text.
	for _, name := range []string{
		"no_such_table",
		"parties; drop table parties",
		"../../etc/passwd",
		`parties" or 1=1`,
		"",
	} {
		if _, err := sys.Browse(name); err == nil {
			t.Fatalf("Browse(%q) should error", name)
		}
	}
}

// adjustment reads the live adjustment for an entry point the way Step 1
// does, from the published ranking.
func adjustment(sys *System, e EntryPoint) float64 {
	return sys.ranking.Load().adjustment(e)
}

// TestFeedbackWithoutEntryPointsWritesNothing: a saved-query answer and a
// keyword-less aggregate carry no entry point, so a like or dislike on one
// could change no score. It is refused with ErrNoEntryPoints before
// anything is logged: no WAL record, no epoch bump, no emptied cache.
func TestFeedbackWithoutEntryPointsWritesNothing(t *testing.T) {
	sys := openReplica(t, t.TempDir(), "", 0, Options{})
	defer sys.Close()
	if err := sys.RegisterQuery(bigEarners()); err != nil {
		t.Fatal(err)
	}
	var approved *Solution
	for _, sol := range search(t, sys, "big earners").Solutions {
		if sol.Approved {
			approved = sol
		}
	}
	if approved == nil {
		t.Fatal("saved query not in the answer")
	}
	aggregate := best(t, search(t, sys, "count ()"))
	epoch, records, entries := sys.ranking.Load().epoch, sys.StoreStats().WALRecords, sys.CacheStats().Entries
	for _, sol := range []*Solution{approved, aggregate} {
		if len(sol.Entries) != 0 {
			t.Fatalf("solution %q has entry points %v", sol.SQLText(), sol.Entries)
		}
		for _, like := range []bool{true, false} {
			if err := sys.Feedback(sol, like); !errors.Is(err, ErrNoEntryPoints) {
				t.Fatalf("Feedback(%q, %v) = %v, want ErrNoEntryPoints", sol.SQLText(), like, err)
			}
		}
	}
	if got := sys.ranking.Load().epoch; got != epoch {
		t.Errorf("epoch moved %d -> %d", epoch, got)
	}
	if got := sys.StoreStats().WALRecords; got != records {
		t.Errorf("WAL records %d -> %d", records, got)
	}
	if got := sys.CacheStats().Entries; got != entries || entries == 0 {
		t.Errorf("cache entries %d -> %d", entries, got)
	}
	if fb := sys.ranking.Load().feedback; len(fb) != 0 {
		t.Errorf("feedback map %v, want empty", fb)
	}
}

// TestFeedbackSearchSeesOneRanking: every cold search is scored under the
// one ranking its Epoch names. One writer cycles like, register, dislike,
// delete while two readers search with the cache off; every candidate's
// score must be its layer score plus the adjustment at the analysis's
// epoch, every solution must carry that epoch, and the saved query must
// be merged in exactly when the library at that epoch holds it.
func TestFeedbackSearchSeesOneRanking(t *testing.T) {
	const (
		q        = "big earners customers"
		readers  = 2
		searches = 300
	)
	sys := newSys(t, Options{CacheSize: -1, Parallelism: 1})
	// history holds the ranking published at each epoch. Only the writer
	// publishes, so after each of its writes the loaded ranking is the one
	// that write made.
	history := map[uint64]*ranking{}
	record := func() {
		rk := sys.ranking.Load()
		history[rk.epoch] = rk
	}
	record()

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	writeErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := 0; !done.Load(); i++ {
			var err error
			switch i % 4 {
			case 0, 2:
				var a *Analysis
				if a, err = sys.Search(q); err != nil {
					break
				}
				for _, sol := range a.Solutions {
					if !sol.Approved {
						err = sys.Feedback(sol, i%4 == 0)
						break
					}
				}
			case 1:
				err = sys.RegisterQuery(bigEarners())
			case 3:
				err = sys.DeleteQuery("big earners")
			}
			if err != nil {
				writeErr <- err
				return
			}
			record()
		}
	}()

	analyses := make([][]*Analysis, readers)
	var rg sync.WaitGroup
	for r := range readers {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for range searches {
				a, err := sys.Search(q)
				if err != nil {
					t.Error(err)
					return
				}
				analyses[r] = append(analyses[r], a)
			}
		}()
	}
	rg.Wait()
	done.Store(true)
	wg.Wait()
	select {
	case err := <-writeErr:
		t.Fatal(err)
	default:
	}

	torn, total := 0, 0
	for _, as := range analyses {
		for _, a := range as {
			total++
			if !scoredUnder(sys, a, history[a.Epoch]) {
				torn++
			}
		}
	}
	if len(history) < 8 {
		t.Fatalf("only %d rankings published while %d searches ran; the test exercised no race", len(history), total)
	}
	if torn > 0 {
		t.Fatalf("%d of %d searches were not scored under the ranking of their epoch (%d rankings published)", torn, total, len(history))
	}
}

// scoredUnder reports whether every part of a comes from rk: each
// candidate's score, each solution's epoch and the saved-query merge.
func scoredUnder(sys *System, a *Analysis, rk *ranking) bool {
	if rk == nil {
		return false
	}
	for _, cands := range a.Candidates {
		for _, ep := range cands {
			if ep.Score != sys.entryScore(ep.Layer)+rk.adjustment(ep) {
				return false
			}
		}
	}
	merged := false
	for _, sol := range a.Solutions {
		if sol.Epoch != a.Epoch {
			return false
		}
		merged = merged || sol.Approved
	}
	_, saved := rk.queries["big earners"]
	return merged == saved
}

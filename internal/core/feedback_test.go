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
// whose first entry sits on the given layer.
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

	// "name" is ambiguous: the ontology reading (score 1.00) outranks
	// the two physical columns (0.70) by default.
	a := search(t, sys, "name")
	if len(a.Solutions) < 2 {
		t.Fatalf("need >= 2 interpretations, got %d", len(a.Solutions))
	}
	first := a.Solutions[0]
	if first.Entries[0].Layer != metagraph.LayerDomainOntology {
		t.Fatalf("default best layer = %s", first.Entries[0].Layer)
	}

	// Disliking the ontology interpretation repeatedly sinks it below
	// the alternatives.
	for i := 0; i < 4; i++ {
		feedbackOnLayer(t, sys, "name", metagraph.LayerDomainOntology, false)
	}
	a2 := search(t, sys, "name")
	if a2.Solutions[0].Entries[0].Layer == metagraph.LayerDomainOntology {
		t.Fatalf("disliked interpretation still ranks first (score %.2f)",
			a2.Solutions[0].Score)
	}

	// Liking it back restores the original ranking.
	for i := 0; i < 8; i++ {
		feedbackOnLayer(t, sys, "name", metagraph.LayerDomainOntology, true)
	}
	a3 := search(t, sys, "name")
	if a3.Solutions[0].Entries[0].Layer != metagraph.LayerDomainOntology {
		t.Fatal("liked interpretation should rank first again")
	}
}

func TestFeedbackClamped(t *testing.T) {
	sys := NewSystem(memory.New(world.DB), world.Meta, world.Index, Options{})
	a := search(t, sys, "customers")
	target := keyOf(best(t, a).Entries[0])
	for i := 0; i < 8; i++ {
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

// TestFeedbackWithoutEntryPointsWritesNothing: a saved-query answer
// carries no entry point, so a like or dislike on it could change no
// score. It is refused with ErrNoEntryPoints before anything is logged: no
// WAL record, no published ranking, no emptied cache.
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
	rk, records, entries := sys.ranking.Load(), sys.StoreStats().WALRecords, sys.CacheStats().Entries
	if len(approved.Entries) != 0 {
		t.Fatalf("saved-query solution has entry points %v", approved.Entries)
	}
	for _, like := range []bool{true, false} {
		if err := sys.Feedback(approved, like); !errors.Is(err, ErrNoEntryPoints) {
			t.Fatalf("Feedback(%q, %v) = %v, want ErrNoEntryPoints", approved.SQLText(), like, err)
		}
	}
	if sys.ranking.Load() != rk {
		t.Error("a new ranking was published")
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
// one ranking it loaded. One writer cycles like, register, dislike, delete
// while two readers search with the cache off; each analysis must name a
// published ranking, every candidate's score must be its layer score plus
// that ranking's adjustment, and the saved query must be merged in exactly
// when that ranking's library holds it. Each reader searches at least
// searches times and on until the writer has published minWrites rankings,
// so a writer the scheduler starts late still races the readers.
func TestFeedbackSearchSeesOneRanking(t *testing.T) {
	const (
		q         = "big earners customers"
		readers   = 2
		searches  = 300
		minWrites = 8
	)
	sys := newSys(t, Options{CacheSize: -1, Parallelism: 1})
	// history holds every published ranking. Only the writer publishes,
	// so after each of its writes the loaded ranking is the one that write
	// made.
	history := map[*ranking]bool{}
	record := func() { history[sys.ranking.Load()] = true }
	record()

	var done, stopped atomic.Bool
	var writes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	writeErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		defer stopped.Store(true)
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
			writes.Add(1)
		}
	}()

	analyses := make([][]*Analysis, readers)
	var rg sync.WaitGroup
	for r := range readers {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for n := 0; n < searches || writes.Load() < minWrites && !stopped.Load(); n++ {
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
			if !history[a.ranking] || !scoredUnder(sys, a, a.ranking) {
				torn++
			}
		}
	}
	if len(history) < minWrites {
		t.Fatalf("only %d rankings published while %d searches ran; the test exercised no race", len(history), total)
	}
	if torn > 0 {
		t.Fatalf("%d of %d searches were not scored under the ranking they loaded (%d rankings published)", torn, total, len(history))
	}
}

// scoredUnder reports whether every part of a comes from rk: each
// candidate's score and the saved-query merge.
func scoredUnder(sys *System, a *Analysis, rk *ranking) bool {
	for _, cands := range a.Candidates {
		for _, ep := range cands {
			if ep.Score != sys.entryScore(ep.Layer)+rk.adjustment(ep) {
				return false
			}
		}
	}
	merged := false
	for _, sol := range a.Solutions {
		merged = merged || sol.Approved
	}
	_, saved := rk.queries["big earners"]
	return merged == saved
}

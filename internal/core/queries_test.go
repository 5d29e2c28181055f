package core

import (
	"context"
	"errors"
	"testing"

	"soda/internal/backend"
	"soda/internal/backend/memory"
	"soda/internal/sqlast"
	"soda/internal/store"
)

// The saved-query library (approved parameterized queries): registration
// validation, keyword matching, parameter binding from the search input,
// prepared-statement execution, cache invalidation and persistence.

// bigEarners is the canonical test entry: one float parameter bound by
// name or by a numeric comparison, with a default.
func strPtr(s string) *string { return &s }

func bigEarners() store.SavedQuery {
	return store.SavedQuery{
		Name:        "big earners",
		Description: "individuals with a salary above a threshold",
		SQL:         "select i.firstname, i.lastname, i.salary from individuals i where i.salary >= ?",
		Params: []store.SavedParam{
			{Name: "min salary", Type: "float", Default: strPtr("100000")},
		},
	}
}

func TestRegisterQueryValidation(t *testing.T) {
	sys := newSys(t, Options{})
	cases := []struct {
		name string
		q    store.SavedQuery
	}{
		{"empty name", store.SavedQuery{SQL: "select * from parties"}},
		{"unparsable sql", store.SavedQuery{Name: "x", SQL: "select * from"}},
		{"missing spec", store.SavedQuery{Name: "x", SQL: "select * from parties where id = ?"}},
		{"extra spec", store.SavedQuery{Name: "x", SQL: "select * from parties",
			Params: []store.SavedParam{{Name: "p", Type: "int"}}}},
		{"bad type", store.SavedQuery{Name: "x", SQL: "select * from parties where id = ?",
			Params: []store.SavedParam{{Name: "p", Type: "decimal"}}}},
		{"bad default", store.SavedQuery{Name: "x", SQL: "select * from parties where id = ?",
			Params: []store.SavedParam{{Name: "p", Type: "int", Default: strPtr("abc")}}}},
		{"unnamed param", store.SavedQuery{Name: "x", SQL: "select * from parties where id = ?",
			Params: []store.SavedParam{{Type: "int"}}}},
		{"repeated ordinal", store.SavedQuery{Name: "x",
			SQL:    "select * from parties where id = $1 and kind = $1",
			Params: []store.SavedParam{{Name: "p", Type: "int"}, {Name: "q", Type: "string"}}}},
	}
	for _, c := range cases {
		if err := sys.RegisterQuery(c.q); err == nil {
			t.Errorf("%s: registration succeeded, want error", c.name)
		}
	}
	if err := sys.RegisterQuery(bigEarners()); err != nil {
		t.Fatalf("valid registration failed: %v", err)
	}
}

func TestRegisterQueryCanonicalises(t *testing.T) {
	sys := newSys(t, Options{})
	if err := sys.RegisterQuery(bigEarners()); err != nil {
		t.Fatal(err)
	}
	got, ok := sys.SavedQueryByName("big earners")
	if !ok {
		t.Fatal("registered query not found")
	}
	// The stored SQL is the canonical generic re-rendering, a parse
	// fixpoint the cluster and WAL can compare byte-for-byte.
	want := "SELECT i.firstname, i.lastname, i.salary\nFROM individuals i\nWHERE i.salary >= ?"
	if got.SQL != want {
		t.Fatalf("canonical SQL = %q, want %q", got.SQL, want)
	}
	if len(sys.SavedQueries()) != 1 {
		t.Fatalf("SavedQueries = %d entries, want 1", len(sys.SavedQueries()))
	}
	if err := sys.DeleteQuery("big earners"); err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.SavedQueryByName("big earners"); ok {
		t.Fatal("deleted query still present")
	}
	if err := sys.DeleteQuery("big earners"); err == nil {
		t.Fatal("deleting a missing query should error")
	}
}

// approvedOf returns the approved solutions of an analysis.
func approvedOf(a *Analysis) []*Solution {
	var out []*Solution
	for _, sol := range a.Solutions {
		if sol.Approved {
			out = append(out, sol)
		}
	}
	return out
}

func TestApprovedQueryRanksAndBinds(t *testing.T) {
	sys := newSys(t, Options{})
	if err := sys.RegisterQuery(bigEarners()); err != nil {
		t.Fatal(err)
	}

	// All name tokens covered + a numeric comparison: the comparison's
	// value binds the parameter (matched by name: "salary" ⊂ "min salary").
	a := search(t, sys, "big earners salary >= 50000")
	apr := approvedOf(a)
	if len(apr) != 1 {
		t.Fatalf("approved solutions = %d, want 1", len(apr))
	}
	sol := apr[0]
	if sol.QueryName != "big earners" {
		t.Fatalf("QueryName = %q", sol.QueryName)
	}
	if len(sol.Bindings) != 1 || sol.Bindings[0].FromDefault {
		t.Fatalf("bindings = %+v, want one bound from the input", sol.Bindings)
	}
	if got := sol.Bindings[0].Value.String(); got != "50000" {
		t.Fatalf("bound value = %q, want 50000", got)
	}

	// No comparison: the declared default binds instead.
	a = search(t, sys, "big earners")
	apr = approvedOf(a)
	if len(apr) != 1 {
		t.Fatalf("approved solutions = %d, want 1", len(apr))
	}
	if b := apr[0].Bindings[0]; !b.FromDefault || b.Value.String() != "100000" {
		t.Fatalf("bindings = %+v, want default 100000", apr[0].Bindings)
	}

	// Name tokens not covered: the library entry must not surface.
	a = search(t, sys, "wealthy customers")
	if got := approvedOf(a); len(got) != 0 {
		t.Fatalf("approved solutions for unrelated query = %d, want 0", len(got))
	}
}

func TestApprovedQueryRequiredParamGates(t *testing.T) {
	sys := newSys(t, Options{})
	q := bigEarners()
	q.Params[0].Default = nil
	if err := sys.RegisterQuery(q); err != nil {
		t.Fatal(err)
	}
	// Without a bindable value the query is skipped, not offered broken.
	if got := approvedOf(search(t, sys, "big earners")); len(got) != 0 {
		t.Fatalf("approved solutions without a binding = %d, want 0", len(got))
	}
	if got := approvedOf(search(t, sys, "big earners salary > 70000")); len(got) != 1 {
		t.Fatalf("approved solutions with a binding = %d, want 1", len(got))
	}
}

// TestApprovedExecutesPrepared pins the execution contract: approved
// solutions run through Prepare/ExecPrepared with the bound arguments —
// the value never lands in the SQL text.
func TestApprovedExecutesPrepared(t *testing.T) {
	sys := newSys(t, Options{})
	if err := sys.RegisterQuery(bigEarners()); err != nil {
		t.Fatal(err)
	}
	a := search(t, sys, "big earners salary >= 40000")
	apr := approvedOf(a)
	if len(apr) != 1 {
		t.Fatalf("approved solutions = %d, want 1", len(apr))
	}
	res, err := sys.Execute(context.Background(), apr[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() == 0 {
		t.Fatal("salary >= 40000 should match every individual, got 0 rows")
	}
	// The snippet path is the same prepared path, capped.
	snip, err := sys.Snippet(apr[0])
	if err != nil {
		t.Fatal(err)
	}
	if snip.NumRows() == 0 || snip.NumRows() > sys.Opt.SnippetRows {
		t.Fatalf("snippet rows = %d, want 1..%d", snip.NumRows(), sys.Opt.SnippetRows)
	}
}

// TestRegisterQueryInvalidatesCache is the cache-correctness satellite:
// registering (or deleting) a saved query publishes a new ranking with an
// empty answer cache, so a cached answer that predates the library change
// is recomputed.
func TestRegisterQueryInvalidatesCache(t *testing.T) {
	sys := newSys(t, Options{})
	a1 := search(t, sys, "big earners salary >= 50000")
	if got := approvedOf(a1); len(got) != 0 {
		t.Fatalf("approved solutions before registration = %d, want 0", len(got))
	}
	if a2 := search(t, sys, "big earners salary >= 50000"); a2 != a1 {
		t.Fatal("repeat search should be served from the cache")
	}
	if err := sys.RegisterQuery(bigEarners()); err != nil {
		t.Fatal(err)
	}
	a3 := search(t, sys, "big earners salary >= 50000")
	if a3 == a1 {
		t.Fatal("registration must invalidate the cached answer")
	}
	if got := approvedOf(a3); len(got) != 1 {
		t.Fatalf("approved solutions after registration = %d, want 1", len(got))
	}
	if err := sys.DeleteQuery("big earners"); err != nil {
		t.Fatal(err)
	}
	a4 := search(t, sys, "big earners salary >= 50000")
	if a4 == a3 {
		t.Fatal("deletion must invalidate the cached answer")
	}
	if got := approvedOf(a4); len(got) != 0 {
		t.Fatalf("approved solutions after deletion = %d, want 0", len(got))
	}
}

// TestSavedQueriesPersist: the library survives a graceful restart (via
// the snapshot) and a crash (via WAL replay), byte-identically.
func TestSavedQueriesPersist(t *testing.T) {
	dir := t.TempDir()
	sys1 := openReplica(t, dir, "", 0, Options{})
	if err := sys1.RegisterQuery(bigEarners()); err != nil {
		t.Fatal(err)
	}
	want, _ := sys1.SavedQueryByName("big earners")
	wantSQL := approvedOf(search(t, sys1, "big earners"))[0].SQLText()

	// Crash: WAL only, no final snapshot.
	if err := sys1.rep.store.Sync(); err != nil {
		t.Fatal(err)
	}
	sys2 := openReplica(t, dir, "", 0, Options{})
	got, ok := sys2.SavedQueryByName("big earners")
	if !ok {
		t.Fatal("saved query lost across WAL replay")
	}
	if got.SQL != want.SQL || got.Name != want.Name || len(got.Params) != len(want.Params) {
		t.Fatalf("replayed query differs: %+v vs %+v", got, want)
	}
	if s := approvedOf(search(t, sys2, "big earners"))[0].SQLText(); s != wantSQL {
		t.Fatalf("replayed approved SQL differs:\n%q\nvs\n%q", s, wantSQL)
	}

	// Graceful close folds the registration into the snapshot; the next
	// boot must be warm with nothing to replay and still hold the entry.
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}
	sys3 := openReplica(t, dir, "", 0, Options{})
	defer sys3.Close()
	if st := sys3.StoreStats(); !st.WarmStart || st.ReplayedRecords != 0 {
		t.Fatalf("after graceful close: %+v, want warm start with empty WAL", st)
	}
	if _, ok := sys3.SavedQueryByName("big earners"); !ok {
		t.Fatal("saved query lost across snapshot fold")
	}
	if s := approvedOf(search(t, sys3, "big earners"))[0].SQLText(); s != wantSQL {
		t.Fatalf("snapshot-folded approved SQL differs:\n%q\nvs\n%q", s, wantSQL)
	}
}

// TestResetFeedbackKeepsQueries: OpReset clears learned feedback weights,
// not the approved-query library.
func TestResetFeedbackKeepsQueries(t *testing.T) {
	sys := newSys(t, Options{})
	if err := sys.RegisterQuery(bigEarners()); err != nil {
		t.Fatal(err)
	}
	if err := sys.ResetFeedback(); err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.SavedQueryByName("big earners"); !ok {
		t.Fatal("ResetFeedback removed the saved query")
	}
}

// refusePrepare is an Executor whose Prepare always fails.
type refusePrepare struct{ backend.Executor }

func (refusePrepare) Prepare(context.Context, *sqlast.Select) (backend.PreparedQuery, error) {
	return nil, errors.New("prepare refused")
}

// TestApprovedFailureCountsOneAttempt: a saved-query run that fails before
// its statement executes — Prepare refused, or a parameter left unbound —
// is still one attempt on the prepared-path instruments. Total, errors and
// the latency count all read 1, so errors never exceed the total.
func TestApprovedFailureCountsOneAttempt(t *testing.T) {
	for _, c := range []struct {
		name   string
		be     backend.Executor
		unbind bool
	}{
		{"prepare refused", refusePrepare{memory.New(world.DB)}, false},
		{"binding missing", memory.New(world.DB), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := NewSystem(c.be, world.Meta, world.Index, Options{})
			if err := sys.RegisterQuery(bigEarners()); err != nil {
				t.Fatal(err)
			}
			apr := approvedOf(search(t, sys, "big earners salary >= 40000"))
			if len(apr) != 1 {
				t.Fatalf("approved solutions = %d, want 1", len(apr))
			}
			sol := *apr[0]
			if c.unbind {
				sol.Bindings = nil
			}
			if _, err := sys.Execute(context.Background(), &sol); err == nil {
				t.Fatal("run succeeded, want an error")
			}
			m := sys.metrics
			got := [3]uint64{m.prepTotal.Value(), m.prepErrors.Value(), m.prepSeconds.Count()}
			if got != [3]uint64{1, 1, 1} {
				t.Fatalf("prepared total, errors, seconds count = %v, want [1 1 1]", got)
			}
		})
	}
}

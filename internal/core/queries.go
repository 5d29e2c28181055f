package core

// Saved parameterized queries: a curated library of pre-approved
// statements that /search ranks alongside generated solutions. This is
// the paper's evolution story applied to expert knowledge instead of
// clicks — a DBA blesses a statement once ("top customers by revenue
// since $start"), and from then on business users reach it by keyword,
// with the values they typed bound as parameters. Saved queries execute
// exclusively through the backend's prepared-statement path: the SQL
// text is fixed at registration and user values travel as bindings,
// never interpolated into the statement.
//
// Registry entries are replicated state: registration appends an
// OpSetQuery record (the encoded query as payload) to the same WAL the
// feedback log uses, so the library folds deterministically on every
// replica, persists through snapshots (the "queries" section) and
// survives restarts. Like feedback, every change publishes a new ranking
// with an empty answer cache, so cached answers never miss a newly
// blessed query.

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"soda/internal/backend"
	"soda/internal/queryparse"
	"soda/internal/sqlast"
	"soda/internal/sqlparse"
	"soda/internal/store"
)

// approvedBonus is added to an approved solution's keyword-coverage
// score so a fully matching saved query outranks a generated solution
// of equal coverage: the library entry was blessed by a human.
const approvedBonus = 0.1

// savedQueryEntry is the in-memory form of one registry entry: the raw
// record (what snapshots and the cluster wire carry), the parsed
// parameterized statement, and the lower-cased match tokens. Entries are
// immutable after construction and shared by pointer across the live
// map, the folded base and any number of in-flight searches.
type savedQueryEntry struct {
	raw store.SavedQuery
	sel *sqlast.Select
	// nameTokens must all appear in the input for the query to match;
	// tokens (name + description + parameter names) drive coverage.
	nameTokens []string
	tokens     map[string]bool
}

// paramTypes is the closed set of saved-parameter types.
var paramTypes = map[string]bool{
	"string": true, "int": true, "float": true, "date": true, "bool": true,
}

// buildSavedQuery validates a registration request and compiles it into
// an immutable entry. The SQL must be in the generic dialect; its
// placeholders must be declared in occurrence order (?, or $1..$n each
// used once — a repeated $N would silently change meaning when the
// canonical text re-renders with ?), one spec per placeholder. The
// returned entry carries the canonical re-rendered SQL, so every replica
// that folds the record compiles the identical statement.
func buildSavedQuery(q store.SavedQuery) (*savedQueryEntry, error) {
	if strings.TrimSpace(q.Name) == "" {
		return nil, fmt.Errorf("core: saved query needs a name")
	}
	sel, err := sqlparse.ParseDialect(q.SQL, sqlast.Generic)
	if err != nil {
		return nil, fmt.Errorf("core: saved query %q: %w", q.Name, err)
	}
	params := sqlast.ParamsOf(sel)
	if len(params) != len(q.Params) {
		return nil, fmt.Errorf("core: saved query %q: %d placeholder(s) but %d parameter spec(s)",
			q.Name, len(params), len(q.Params))
	}
	for i, p := range params {
		if p.Ordinal != i+1 {
			return nil, fmt.Errorf("core: saved query %q: placeholders must appear in occurrence order ($%d found at position %d; repeat a *name* in the specs to share a binding)",
				q.Name, p.Ordinal, i+1)
		}
	}
	for i, spec := range q.Params {
		if strings.TrimSpace(spec.Name) == "" {
			return nil, fmt.Errorf("core: saved query %q: parameter %d needs a name", q.Name, i+1)
		}
		if !paramTypes[spec.Type] {
			return nil, fmt.Errorf("core: saved query %q: parameter %q has unknown type %q (want string, int, float, date or bool)",
				q.Name, spec.Name, spec.Type)
		}
		if spec.Default != nil {
			if _, err := parseParamValue(spec.Type, *spec.Default); err != nil {
				return nil, fmt.Errorf("core: saved query %q: parameter %q: default %w", q.Name, spec.Name, err)
			}
		}
		params[i].Name = spec.Name
		params[i].Type = litKind(spec.Type)
	}
	// Shared names collapse to one binding ordinal; the canonical text
	// re-renders generically (one ? per occurrence), which reparses to the
	// same statement on every replica that folds this record.
	sqlast.NumberParams(sel)
	canon := q.Clone()
	canon.SQL = sel.Render(sqlast.Generic)
	e := &savedQueryEntry{
		raw:        canon,
		sel:        sel,
		nameTokens: tokenize(canon.Name),
		tokens:     make(map[string]bool),
	}
	if len(e.nameTokens) == 0 {
		return nil, fmt.Errorf("core: saved query %q: name has no keywords", q.Name)
	}
	for _, t := range e.nameTokens {
		e.tokens[t] = true
	}
	for _, t := range tokenize(canon.Description) {
		e.tokens[t] = true
	}
	for _, p := range canon.Params {
		for _, t := range tokenize(p.Name) {
			e.tokens[t] = true
		}
	}
	return e, nil
}

func litKind(typ string) sqlast.LiteralKind {
	switch typ {
	case "int":
		return sqlast.LitInt
	case "float":
		return sqlast.LitFloat
	case "date":
		return sqlast.LitDate
	case "bool":
		return sqlast.LitBool
	case "string":
		return sqlast.LitString
	}
	return sqlast.LitNull
}

// parseParamValue converts parameter text (a default, or an admin-
// supplied binding) into a backend value of the declared type.
func parseParamValue(typ, text string) (backend.Value, error) {
	switch typ {
	case "int":
		i, err := strconv.ParseInt(strings.TrimSpace(text), 10, 64)
		if err != nil {
			return backend.Value{}, fmt.Errorf("value %q is not an int", text)
		}
		return backend.Int(i), nil
	case "float":
		f, err := strconv.ParseFloat(strings.TrimSpace(text), 64)
		if err != nil {
			return backend.Value{}, fmt.Errorf("value %q is not a float", text)
		}
		return backend.Float(f), nil
	case "date":
		t, err := time.Parse("2006-01-02", strings.TrimSpace(text))
		if err != nil {
			return backend.Value{}, fmt.Errorf("value %q is not a date (want YYYY-MM-DD)", text)
		}
		return backend.DateOf(t), nil
	case "bool":
		switch strings.ToLower(strings.TrimSpace(text)) {
		case "true", "1", "yes":
			return backend.Bool(true), nil
		case "false", "0", "no":
			return backend.Bool(false), nil
		}
		return backend.Value{}, fmt.Errorf("value %q is not a bool", text)
	default: // string
		return backend.Str(text), nil
	}
}

// tokenize lower-cases and splits on anything that is not a letter or
// digit — "Top_Customers by-city" → [top customers by city].
func tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !('a' <= r && r <= 'z' || '0' <= r && r <= '9')
	})
}

// applyQueryRecordTo folds one WAL record into a query-library map,
// allocating it on first use. Like applyRecordTo for feedback this is
// the single definition of what a query record *does*: a record that
// fails to compile is dropped on every replica alike (it can only exist
// if written by a newer version with looser validation), so the fold
// stays deterministic. Feedback ops — including OpReset — leave the
// library untouched.
func applyQueryRecordTo(m map[string]*savedQueryEntry, rec store.Record) map[string]*savedQueryEntry {
	switch rec.Op {
	case store.OpSetQuery:
		q, err := store.DecodeSavedQuery(rec.Payload)
		if err != nil {
			return m
		}
		e, err := buildSavedQuery(q)
		if err != nil {
			return m
		}
		if m == nil {
			m = make(map[string]*savedQueryEntry)
		}
		m[e.raw.Name] = e
	case store.OpDelQuery:
		delete(m, string(rec.Payload))
	}
	return m
}

// buildQueryMap compiles a snapshot/catch-up query list into entry form.
func buildQueryMap(queries []store.SavedQuery) map[string]*savedQueryEntry {
	if len(queries) == 0 {
		return nil
	}
	m := make(map[string]*savedQueryEntry, len(queries))
	for _, q := range queries {
		if e, err := buildSavedQuery(q); err == nil {
			m[e.raw.Name] = e
		}
	}
	return m
}

// rawQueries extracts the storable form of a library map.
func rawQueries(m map[string]*savedQueryEntry) []store.SavedQuery {
	if len(m) == 0 {
		return nil
	}
	out := make([]store.SavedQuery, 0, len(m))
	for _, e := range m {
		out = append(out, e.raw.Clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RegisterQuery adds (or replaces) a saved query in the library. The SQL
// must parse in the generic dialect with one parameter spec per
// placeholder occurrence; see buildSavedQuery for the full contract.
// Like Feedback, the change is WAL-logged before it is applied and
// publishes a new ranking, so every cached answer — on this replica and,
// after replication, on every peer — is recomputed against the new
// library.
func (s *System) RegisterQuery(q store.SavedQuery) error {
	e, err := buildSavedQuery(q)
	if err != nil {
		return err
	}
	s.rep.mu.Lock()
	defer s.rep.mu.Unlock()
	if err := s.commitLocked(store.Record{Op: store.OpSetQuery, Payload: store.EncodeSavedQuery(e.raw)}); err != nil {
		return fmt.Errorf("core: logging saved query: %w", err)
	}
	return nil
}

// DeleteQuery removes a saved query from the library.
func (s *System) DeleteQuery(name string) error {
	s.rep.mu.Lock()
	defer s.rep.mu.Unlock()
	if _, ok := s.ranking.Load().queries[name]; !ok {
		return fmt.Errorf("core: no saved query named %q", name)
	}
	if err := s.commitLocked(store.Record{Op: store.OpDelQuery, Payload: []byte(name)}); err != nil {
		return fmt.Errorf("core: logging saved-query delete: %w", err)
	}
	return nil
}

// SavedQueries lists the library sorted by name.
func (s *System) SavedQueries() []store.SavedQuery {
	return rawQueries(s.ranking.Load().queries)
}

// SavedQueryByName returns one library entry.
func (s *System) SavedQueryByName(name string) (store.SavedQuery, bool) {
	e, ok := s.ranking.Load().queries[name]
	if !ok {
		return store.SavedQuery{}, false
	}
	return e.raw.Clone(), true
}

// BoundParam is one parameter binding of an approved solution: the
// declared name and type, the bound value, and whether the value came
// from the query's declared default rather than the search input.
type BoundParam struct {
	Name        string
	Type        string
	Value       backend.Value
	FromDefault bool
}

// approvedStep matches the saved-query library against the analysed
// input and merges matching queries into the ranked solutions. A query
// matches when every keyword of its *name* appears in the input; its
// score is the input's keyword coverage against all of the query's
// tokens plus a flat approved bonus, so a search that names a saved
// query exactly ranks it above same-coverage generated SQL. Parameters
// bind from the input's comparison operators — by name first, then by
// value type in declared order — and fall back to declared defaults; a
// query with an unbindable required parameter is skipped, not offered
// half-bound. Called after the SQL step, it reads the library of the
// analysis's ranking; the merged list is re-sorted and trimmed to TopN
// like any ranked output.
func (s *System) approvedStep(a *Analysis) {
	entries := make([]*savedQueryEntry, 0, len(a.ranking.queries))
	for _, e := range a.ranking.queries {
		entries = append(entries, e)
	}
	if len(entries) == 0 {
		return
	}
	// Match against every input keyword — including words lookup ignored:
	// a library name like "top customers" matches even when "top" exists
	// nowhere in the metadata graph.
	var input []string
	for _, g := range a.Query.Groups {
		for _, w := range g.Words {
			input = append(input, tokenize(w)...)
		}
	}
	if len(input) == 0 {
		return
	}
	inputSet := make(map[string]bool, len(input))
	for _, t := range input {
		inputSet[t] = true
	}
	// Deterministic candidate order regardless of map iteration.
	sort.Slice(entries, func(i, j int) bool { return entries[i].raw.Name < entries[j].raw.Name })

	var approved []*Solution
	for _, e := range entries {
		if !matchesName(e, inputSet) {
			continue
		}
		bindings, ok := bindParams(e, a.Query)
		if !ok {
			continue
		}
		covered := 0
		for _, t := range input {
			if e.tokens[t] {
				covered++
			}
		}
		sol := &Solution{
			Score:     float64(covered)/float64(len(input)) + approvedBonus,
			SQL:       e.sel,
			Dialect:   a.Dialect,
			Approved:  true,
			QueryName: e.raw.Name,
			Bindings:  bindings,
		}
		approved = append(approved, sol)
	}
	if len(approved) == 0 {
		return
	}
	merged := append(a.Solutions, approved...)
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].Score != merged[j].Score {
			return merged[i].Score > merged[j].Score
		}
		return merged[i].Approved && !merged[j].Approved
	})
	if len(merged) > s.Opt.TopN {
		merged = merged[:s.Opt.TopN]
	}
	a.Solutions = merged
}

// matchesName reports whether every keyword of the entry's name appears
// in the input tokens.
func matchesName(e *savedQueryEntry, input map[string]bool) bool {
	for _, t := range e.nameTokens {
		if !input[t] {
			return false
		}
	}
	return true
}

// bindParams resolves every declared parameter of a saved query against
// the input's comparisons ("salary > 100000", "since = date(2020-01-01)").
// Pass one matches a comparison to a parameter by name — the keyword
// group the operator was attached to names the parameter; pass two hands
// out the remaining comparisons by value-type compatibility in declared
// order; pass three applies defaults. Each comparison binds at most one
// parameter.
func bindParams(e *savedQueryEntry, q *queryparse.Query) ([]BoundParam, bool) {
	specs := e.raw.Params
	bound := make([]BoundParam, len(specs))
	done := make([]bool, len(specs))
	used := make([]bool, len(q.Comparisons))

	// Pass 1: by name.
	for i, spec := range specs {
		want := strings.Join(tokenize(spec.Name), " ")
		for ci, c := range q.Comparisons {
			if used[ci] || c.Group < 0 || c.Group >= len(q.Groups) {
				continue
			}
			group := strings.Join(tokenize(strings.Join(q.Groups[c.Group].Words, " ")), " ")
			if group == "" || (group != want && !strings.Contains(group, want) && !strings.Contains(want, group)) {
				continue
			}
			v, ok := comparisonValue(spec.Type, c.Value)
			if !ok {
				continue
			}
			bound[i] = BoundParam{Name: spec.Name, Type: spec.Type, Value: v}
			done[i], used[ci] = true, true
			break
		}
	}
	// Pass 2: by type, in declared order.
	for i, spec := range specs {
		if done[i] {
			continue
		}
		for ci, c := range q.Comparisons {
			if used[ci] {
				continue
			}
			v, ok := comparisonValue(spec.Type, c.Value)
			if !ok {
				continue
			}
			bound[i] = BoundParam{Name: spec.Name, Type: spec.Type, Value: v}
			done[i], used[ci] = true, true
			break
		}
	}
	// Pass 3: defaults.
	for i, spec := range specs {
		if done[i] {
			continue
		}
		if spec.Default == nil {
			return nil, false
		}
		v, err := parseParamValue(spec.Type, *spec.Default)
		if err != nil {
			return nil, false // unreachable: validated at registration
		}
		bound[i] = BoundParam{Name: spec.Name, Type: spec.Type, Value: v, FromDefault: true}
	}
	return bound, true
}

// comparisonValue converts one comparison operand to the parameter's
// declared type; ok=false means the kinds are incompatible (a date
// operand for an int parameter), which makes the comparison ineligible
// for that parameter rather than an error.
func comparisonValue(typ string, v queryparse.Value) (backend.Value, bool) {
	switch typ {
	case "int":
		if v.Kind != queryparse.ValNumber || v.Num != float64(int64(v.Num)) {
			return backend.Value{}, false
		}
		return backend.Int(int64(v.Num)), true
	case "float":
		if v.Kind != queryparse.ValNumber {
			return backend.Value{}, false
		}
		return backend.Float(v.Num), true
	case "date":
		if v.Kind != queryparse.ValDate {
			return backend.Value{}, false
		}
		return backend.DateOf(v.Date), true
	case "bool":
		if v.Kind != queryparse.ValText {
			return backend.Value{}, false
		}
		b, err := parseParamValue("bool", v.Text)
		if err != nil {
			return backend.Value{}, false
		}
		return b, true
	default: // string
		if v.Kind != queryparse.ValText {
			return backend.Value{}, false
		}
		return backend.Str(v.Text), true
	}
}

// binding returns the bound value for a named parameter of an approved
// solution.
func (sol *Solution) binding(name string) (backend.Value, bool) {
	for _, b := range sol.Bindings {
		if b.Name == name {
			return b.Value, true
		}
	}
	return backend.Value{}, false
}

// execApproved runs an approved solution through the backend's
// prepared-statement path — the only execution path for saved queries:
// the statement text is the registration-time render and the bound
// values travel as arguments. limit > 0 caps the row count (snippets)
// via a shallow statement copy; the shared AST is never mutated. Prepare,
// binding and execution are one attempt on the prepared-path
// instruments, so a failure at any stage counts once in both the total
// and the errors.
func (s *System) execApproved(ctx context.Context, sol *Solution, limit int) (*backend.Result, error) {
	sel := sol.SQL
	if limit > 0 && (sel.Limit < 0 || sel.Limit > limit) {
		capped := *sel
		capped.Limit = limit
		sel = &capped
	}
	m := s.metrics
	return instrumentedExec(ctx, "backend:prepared", m.prepTotal, m.prepErrors, m.prepSeconds, func() (*backend.Result, error) {
		pq, err := s.Backend.Prepare(ctx, sel)
		if err != nil {
			return nil, fmt.Errorf("core: preparing saved query %q: %w", sol.QueryName, err)
		}
		defer pq.Close()
		names := pq.BindNames()
		args := make([]backend.Value, len(names))
		for i, name := range names {
			v, ok := sol.binding(name)
			if !ok {
				return nil, fmt.Errorf("core: saved query %q: no binding for parameter %q", sol.QueryName, name)
			}
			args[i] = v
		}
		return s.Backend.ExecPrepared(ctx, pq, args)
	})
}

package soda

// What users and operators teach the system: like/dislike relevance
// feedback on results, and the approved saved-query library.

import (
	"encoding/json"
	"errors"
	"fmt"

	"soda/internal/core"
	"soda/internal/store"
)

// Like records positive relevance feedback on a result: the entry points
// behind it rank higher in future searches (§6.3: "SODA presents several
// possible solutions to its users and allows them to like (or dislike)
// each result").
//
// Feedback is epoch-checked: if other feedback re-ranked the system since
// this result's search, the statement is re-resolved against a fresh
// search before the feedback is applied, so it lands on the entry points
// of the statement the user actually saw. An error is returned when the
// statement no longer appears in the answer, or when persisting the
// feedback to the state store fails, and ErrNoEntryPoints when the result
// has no entry point to adjust.
func (r *Result) Like() error { return r.feedback(true) }

// Dislike records negative relevance feedback on a result. See Like for
// the epoch-check and re-resolution semantics.
func (r *Result) Dislike() error { return r.feedback(false) }

func (r *Result) feedback(like bool) error {
	err := r.sys.Feedback(r.sol, like)
	var stale *core.StaleSolutionError
	// The ranking epoch moved between our search and this feedback call
	// (another user's like, a reset, ...). Re-resolve: re-run the search
	// — served at the current epoch — find the same statement, and apply
	// the feedback to its solution. Bounded retries cover epochs racing
	// forward while we resolve.
	for attempt := 0; errors.As(err, &stale) && attempt < 4; attempt++ {
		a, serr := r.sys.SearchWith(r.analysis.Query.Raw, core.SearchOptions{
			Dialect:  r.analysis.Dialect,
			Snippets: r.analysis.WithSnippets,
		})
		if serr != nil {
			return fmt.Errorf("soda: re-resolving stale feedback: %w", serr)
		}
		var match *core.Solution
		for _, sol := range a.Solutions {
			if sol.SQLText() == r.SQL {
				match = sol
				break
			}
		}
		if match == nil {
			return fmt.Errorf("soda: feedback target no longer in the answer (re-ranked since): %w", err)
		}
		err = r.sys.Feedback(match, like)
	}
	return err
}

// ResetFeedback forgets all relevance feedback recorded on this system.
// With a state store attached the reset is WAL-logged so it also survives
// restarts.
func (s *System) ResetFeedback() error { return s.sys.ResetFeedback() }

// ErrNoEntryPoints reports feedback on a result no keyword entry point
// produced — an approved saved query, or an aggregate over no keyword. A
// like or dislike adjusts entry-point scores, so on such a result it
// would change nothing; it is refused and nothing is recorded.
var ErrNoEntryPoints = core.ErrNoEntryPoints

// StaleFeedbackError reports feedback on a result whose ranking epoch has
// moved on and whose statement could not be re-resolved in the fresh
// answer. Like/Dislike re-resolve transparently first; callers only see
// this when the statement genuinely left the ranked list.
type StaleFeedbackError = core.StaleSolutionError

// SavedQuery is one approved parameterized query in the library: the
// registry key, the human description search keywords match against, the
// SQL in the generic dialect with placeholders (? in occurrence order,
// or $1..$n each used once), and one parameter spec per placeholder.
type SavedQuery = store.SavedQuery

// SavedParam declares one binding of a saved query: a name, a type
// ("string", "int", "float", "date" or "bool") and an optional default.
type SavedParam = store.SavedParam

// RegisterQuery adds (or replaces) a saved parameterized query in the
// library — the admin half of the approved-query workflow. The query is
// validated and canonicalised (the SQL must parse, with one parameter
// spec per placeholder), WAL-logged when a store is attached, replicated
// to fleet peers, and from then on ranked by Search whenever the input
// keywords cover the query's name. Saved queries execute exclusively
// through the backend's prepared-statement path.
func (s *System) RegisterQuery(q SavedQuery) error { return s.sys.RegisterQuery(q) }

// DeleteSavedQuery removes a saved query from the library.
func (s *System) DeleteSavedQuery(name string) error { return s.sys.DeleteQuery(name) }

// SavedQueries lists the library sorted by name.
func (s *System) SavedQueries() []SavedQuery { return s.sys.SavedQueries() }

// SavedQuery returns one library entry by name.
func (s *System) SavedQuery(name string) (SavedQuery, bool) { return s.sys.SavedQueryByName(name) }

// QueriesFromJSON parses a saved-query library file: a JSON array of
//
//	{"name": "...", "description": "...", "sql": "select ... where x = $1",
//	 "params": [{"name": "city", "type": "string", "default": "Zurich"}]}
//
// A parameter's "default" may be omitted to make it required (a search
// that cannot bind it skips the query). This is the file format behind
// the soda/sodad -queries flag; entries still go through RegisterQuery
// validation.
func QueriesFromJSON(data []byte) ([]SavedQuery, error) {
	var out []SavedQuery
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("soda: parsing query library: %w", err)
	}
	return out, nil
}

// ParamBinding is one bound parameter of an approved result: the
// declared name and type, the bound value rendered as text, and whether
// it came from the query's default rather than the search input.
type ParamBinding struct {
	Name        string `json:"name"`
	Type        string `json:"type"`
	Value       string `json:"value"`
	FromDefault bool   `json:"from_default,omitempty"`
}

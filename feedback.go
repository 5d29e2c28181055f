package soda

// What users and operators teach the system: like/dislike relevance
// feedback on results, and the approved saved-query library.

import (
	"encoding/json"
	"fmt"

	"soda/internal/core"
	"soda/internal/store"
)

// Like records positive relevance feedback on a result: the entry points
// behind it rank higher in future searches (§6.3: "SODA presents several
// possible solutions to its users and allows them to like (or dislike)
// each result").
//
// The feedback lands on the entry points of this result, the one the user
// saw, even when other feedback re-ranked the system since its search. An
// error is returned when persisting the feedback to the state store
// fails, and ErrNoEntryPoints when the result has no entry point to
// adjust.
func (r *Result) Like() error { return r.sys.Feedback(r.sol, true) }

// Dislike records negative relevance feedback on a result. See Like.
func (r *Result) Dislike() error { return r.sys.Feedback(r.sol, false) }

// ResetFeedback forgets all relevance feedback recorded on this system.
// With a state store attached the reset is WAL-logged so it also survives
// restarts.
func (s *System) ResetFeedback() error { return s.sys.ResetFeedback() }

// ErrNoEntryPoints reports feedback on a result no keyword entry point
// produced: an approved saved query. A like or dislike adjusts entry-point
// scores, so on such a result it would change nothing; it is refused and
// nothing is recorded.
var ErrNoEntryPoints = core.ErrNoEntryPoints

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

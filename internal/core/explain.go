package core

import (
	"fmt"
	"strings"
)

// Explain renders a human-readable trace of an analysis in the shape of
// the paper's Figures 4–6: the parsed input, the classification of each
// term (Figure 5), and per solution the tables step output (Figure 6),
// filters, and generated SQL.
func Explain(a *Analysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", a.Query.Raw)
	if a.Dialect != nil {
		fmt.Fprintf(&b, "dialect: %s\n", a.Dialect.Name())
	}

	fmt.Fprintf(&b, "\nstep 1 - lookup (complexity %d):\n", a.Complexity)
	for ti, term := range a.Terms {
		cands := a.Candidates[ti]
		fmt.Fprintf(&b, "  %q [%s]: %d entry point(s)\n", term.Text, term.Role, len(cands))
		for _, c := range cands {
			fmt.Fprintf(&b, "    - %s\n", c.Describe())
		}
	}
	if len(a.Ignored) > 0 {
		fmt.Fprintf(&b, "  ignored: %s\n", strings.Join(a.Ignored, ", "))
	}

	fmt.Fprintf(&b, "\nstep 2 - rank and top N: %d solution(s)\n", len(a.Solutions))
	for si, sol := range a.Solutions {
		fmt.Fprintf(&b, "\nsolution %d (score %.2f):\n", si+1, sol.Score)
		for _, e := range sol.Entries {
			fmt.Fprintf(&b, "  input: %q -> %s\n", a.Terms[e.Term].Text, e.Describe())
		}
		fmt.Fprintf(&b, "  step 3 - tables: %s\n", strings.Join(sol.TableNames(), ", "))
		fmt.Fprintf(&b, "    anchors: %s\n", strings.Join(sol.Primaries, ", "))
		fmt.Fprintf(&b, "    sql tables: %s\n", strings.Join(sol.SQLTables, ", "))
		for _, j := range sol.Joins {
			fmt.Fprintf(&b, "    join: %s\n", j)
		}
		if sol.Disconnected {
			fmt.Fprintf(&b, "    (warning: entry points not fully connected by joins)\n")
		}
		if len(sol.Filters) > 0 {
			fmt.Fprintf(&b, "  step 4 - filters:\n")
			for _, f := range sol.Filters {
				fmt.Fprintf(&b, "    %s\n", f)
			}
		}
		if sql := sol.SQLText(); sql != "" {
			fmt.Fprintf(&b, "  step 5 - SQL:\n    %s\n", strings.ReplaceAll(sql, "\n", "\n    "))
		} else {
			fmt.Fprintf(&b, "  step 5 - SQL: (none)\n")
		}
		if sol.Snippet != nil {
			fmt.Fprintf(&b, "  snippet: %d row(s) cached\n", len(sol.Snippet.Rows))
		} else if sol.SnippetErr != "" {
			fmt.Fprintf(&b, "  snippet: error: %s\n", sol.SnippetErr)
		}
	}

	fmt.Fprintf(&b, "\ntimings: lookup=%v rank=%v tables=%v filters=%v sql=%v snippet=%v\n",
		a.Timings.Lookup, a.Timings.Rank, a.Timings.Tables, a.Timings.Filters, a.Timings.SQL, a.Timings.Snippet)
	return b.String()
}

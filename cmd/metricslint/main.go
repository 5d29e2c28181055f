// Command metricslint validates a Prometheus text exposition against the
// repo's metric catalog: it parses stdin with the in-tree parser
// (internal/obs) — the package /metrics is written with — checks every
// family is well-formed (legal metric name, at least one sample, a TYPE
// line), and verifies that every family name given as an argument is
// present. CI pipes each replica's live sodad scrape plus the names
// extracted from the README's Observability catalog through it, so the
// documented names can never silently drift from what the daemon serves.
//
// Usage:
//
//	curl -s localhost:8080/metrics | metricslint soda_cache_entries soda_search_requests_total ...
//
// Exit status 0 when every required family is present and well-formed;
// 1 otherwise, listing what failed.
package main

import (
	"fmt"
	"os"
	"regexp"
	"sort"

	"soda/internal/obs"
)

// metricName is the Prometheus metric-name grammar.
var metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// labelName is the Prometheus label-name grammar.
var labelName = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

func main() {
	fams, err := obs.ParseFamilies(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metricslint: exposition does not parse: %v\n", err)
		os.Exit(1)
	}
	var problems []string
	have := make(map[string]bool, len(fams))
	for _, f := range fams {
		have[f.Name] = true
		if !metricName.MatchString(f.Name) {
			problems = append(problems, fmt.Sprintf("illegal metric name %q", f.Name))
		}
		if f.Type == "" {
			problems = append(problems, fmt.Sprintf("%s: no TYPE line", f.Name))
		}
		if len(f.Points) == 0 {
			problems = append(problems, fmt.Sprintf("%s: family declared but has no samples", f.Name))
		}
		for _, p := range f.Points {
			for _, l := range p.Labels {
				if !labelName.MatchString(l.Name) {
					problems = append(problems, fmt.Sprintf("%s: illegal label name %q", f.Name, l.Name))
				}
			}
		}
	}
	var missing []string
	for _, want := range os.Args[1:] {
		if !have[want] {
			missing = append(missing, want)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		problems = append(problems, fmt.Sprintf("required family %s is absent from the scrape", name))
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "metricslint: %s\n", p)
		}
		os.Exit(1)
	}
	fmt.Printf("metricslint: %d families scraped, all %d required present and well-formed\n",
		len(fams), len(os.Args)-1)
}

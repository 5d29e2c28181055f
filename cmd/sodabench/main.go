// Command sodabench regenerates the paper's tables and figures from the
// synthetic worlds.
//
// Usage:
//
//	sodabench                 # everything
//	sodabench -table 3        # one table (1-5)
//	sodabench -figure 5       # one figure (5-10)
//	sodabench -ablations      # the design-choice ablations
//	sodabench -backend sqldb -driver sodalite -dsn bench -table 4
//	                          # run the experiment systems on a SQL backend
//
// Serving latency, allocations and per-layer costs are not measured here:
// that is benchmark/ (bash benchmark/run.sh), which drives a live sodad.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"strings"

	"soda"
	"soda/internal/bench"
	"soda/internal/sqlast"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sodabench: ")
	table := flag.Int("table", 0, "regenerate one table (1-5)")
	figure := flag.Int("figure", 0, "regenerate one figure (5-10)")
	ablations := flag.Bool("ablations", false, "run the ablation experiments")
	backendName := flag.String("backend", "memory", "execution backend for the experiment systems: "+strings.Join(soda.Backends(), ", "))
	driver := flag.String("driver", "", `database/sql driver for -backend sqldb ("sodalite", "pgwire")`)
	dsn := flag.String("dsn", "", "data source name for -backend sqldb")
	dialect := flag.String("dialect", "generic", "SQL dialect for -backend sqldb: "+strings.Join(soda.Dialects(), ", "))
	flag.Parse()
	if err := validateSelection(*table, *figure); err != nil {
		log.Fatal(err)
	}

	d, ok := sqlast.DialectByName(*dialect)
	if !ok {
		log.Fatalf("unknown dialect %q (want %s)", *dialect, strings.Join(soda.Dialects(), ", "))
	}
	env := bench.NewEnvConfig(bench.Config{
		Backend: *backendName,
		Driver:  *driver,
		DSN:     *dsn,
		Dialect: d,
	})
	all := *table == 0 && *figure == 0 && !*ablations

	out := func(s string, err error) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(s)
	}

	if all || *table == 1 {
		fmt.Println(env.RenderTable1())
	}
	if all || *table == 2 {
		fmt.Println(env.RenderTable2())
	}
	if all || *table == 3 {
		s, err := env.RenderTable3()
		out(s, err)
	}
	if all || *table == 4 {
		s, err := env.RenderTable4()
		out(s, err)
	}
	if all || *table == 5 {
		s, err := env.RenderTable5()
		out(s, err)
	}

	if all || *figure == 5 {
		s, err := env.RenderFigure5()
		out(s, err)
	}
	if all || *figure == 6 {
		s, err := env.RenderFigure6()
		out(s, err)
	}
	if all || *figure == 7 || *figure == 8 {
		fmt.Println(env.RenderFigures7And8())
	}
	if all || *figure == 9 {
		s, err := env.RenderFigure9()
		out(s, err)
	}
	if all || *figure == 10 {
		s, err := env.RenderFigure10()
		out(s, err)
	}

	if all || *ablations {
		s, err := env.RenderAblations()
		out(s, err)
	}
}

// validateSelection rejects a -table or -figure the paper does not have,
// before any experiment runs (0 means "not selected").
func validateSelection(table, figure int) error {
	if table < 0 || table > 5 {
		return fmt.Errorf("no table %d (want -table 1-5)", table)
	}
	switch {
	case figure == 0 || (figure >= 5 && figure <= 10):
		return nil
	case figure >= 1 && figure <= 4:
		return errors.New("figures 1-4 are architecture diagrams; see README.md and cmd/sodagen (want -figure 5-10)")
	}
	return fmt.Errorf("no figure %d (want -figure 5-10)", figure)
}

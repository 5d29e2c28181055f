// Package bench regenerates every table and figure of the paper's
// evaluation (§5) from the synthetic warehouse and the mini-bank example:
//
//	Table 1  – schema-graph complexity
//	Table 2  – the experiment queries with gold standards
//	Table 3  – precision/recall per query (paper vs measured)
//	Table 4  – query complexity and runtimes
//	Table 5  – capability matrix across the six systems
//	Figure 5 – classification of "customers Zürich financial instruments"
//	Figure 6 – tables-step output for that query
//	Figure 7/8 – the metadata graph patterns with live matches
//	Figure 9 – joins on the direct path between entry points
//	Figure 10 – bridge table between inheritance siblings
//
// plus the design-choice ablations (Ablations; sodabench -ablations).
// Each experiment returns structured rows and renders to text;
// cmd/sodabench prints them and bench_test.go wraps them in testing.B
// benchmarks.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"context"

	"soda/internal/backend"
	"soda/internal/backend/memory"
	"soda/internal/backend/sqldb"
	"soda/internal/baseline"
	"soda/internal/core"
	"soda/internal/eval"
	"soda/internal/metagraph"
	"soda/internal/minibank"
	"soda/internal/sqlast"
	"soda/internal/warehouse"
)

// Env caches the two worlds and systems the experiments share.
type Env struct {
	Warehouse *warehouse.World
	WHSys     *core.System
	MiniBank  *minibank.World
	MBSys     *core.System
}

// Config selects the execution backend the experiment systems run on.
// The zero value is the in-memory engine; Backend "sqldb" loads each
// world's corpus into the database named by Driver/DSN (the DSN is used
// for the warehouse; the mini-bank gets DSN+"_minibank" so the two
// corpora never collide in one database).
type Config struct {
	Backend string // "", "memory" or "sqldb"
	Driver  string // database/sql driver name for "sqldb"
	DSN     string
	Dialect *sqlast.Dialect
}

// NewEnv builds the standard environment on the in-memory backend.
func NewEnv() *Env { return NewEnvConfig(Config{}) }

// NewEnvConfig builds the environment on the configured backend.
func NewEnvConfig(cfg Config) *Env {
	wh := warehouse.Build(warehouse.Default())
	mb := minibank.Build(minibank.Default())
	return &Env{
		Warehouse: wh,
		WHSys:     core.NewSystem(cfg.executor(wh.DB, ""), wh.Meta, wh.Index, core.Options{}),
		MiniBank:  mb,
		MBSys:     core.NewSystem(cfg.executor(mb.DB, "_minibank"), mb.Meta, mb.Index, core.Options{}),
	}
}

// executor builds (and loads) the backend for one corpus.
func (cfg Config) executor(db *backend.DB, dsnSuffix string) backend.Executor {
	switch cfg.Backend {
	case "", "memory":
		return memory.New(db)
	case "sqldb":
		ex, err := sqldb.Open(cfg.Driver, suffixDSN(cfg.DSN, dsnSuffix), cfg.Dialect)
		if err != nil {
			panic(fmt.Sprintf("bench: opening %s backend: %v", cfg.Driver, err))
		}
		if err := ex.EnsureLoaded(context.Background(), db); err != nil {
			panic(fmt.Sprintf("bench: loading corpus: %v", err))
		}
		return ex
	default:
		panic(fmt.Sprintf("bench: unknown backend %q", cfg.Backend))
	}
}

// suffixDSN appends suffix to the database *name* inside a DSN rather
// than to the raw string: before any '?' parameter block, and at the
// end of the path for URL-shaped DSNs ("postgres://h/db" →
// "postgres://h/db_minibank", "bench?dialect=db2" →
// "bench_minibank?dialect=db2").
func suffixDSN(dsn, suffix string) string {
	if suffix == "" {
		return dsn
	}
	// Keyword form: suffix the dbname value wherever it sits.
	if i := strings.Index(dsn, "dbname="); i >= 0 {
		end := strings.IndexByte(dsn[i:], ' ')
		if end < 0 {
			return dsn + suffix
		}
		return dsn[:i+end] + suffix + dsn[i+end:]
	}
	rest := ""
	if i := strings.IndexByte(dsn, '?'); i >= 0 {
		dsn, rest = dsn[:i], dsn[i:]
	}
	return dsn + suffix + rest
}

// Table1Row compares one schema-graph statistic with the paper.
type Table1Row struct {
	Metric   string
	Paper    int
	Measured int
}

// Table1 regenerates the schema-graph complexity table.
func (e *Env) Table1() []Table1Row {
	s := e.Warehouse.Meta.Stats()
	return []Table1Row{
		{"#Conceptual entities", warehouse.TargetConceptEntities, s.ConceptEntities},
		{"#Conceptual attributes", warehouse.TargetConceptAttrs, s.ConceptAttrs},
		{"#Conceptual relationships", warehouse.TargetConceptRelations, s.ConceptRelations},
		{"#Logical entities", warehouse.TargetLogicalEntities, s.LogicalEntities},
		{"#Logical attributes", warehouse.TargetLogicalAttrs, s.LogicalAttrs},
		{"#Logical relationships", warehouse.TargetLogicalRelations, s.LogicalRelations},
		{"#Physical tables", warehouse.TargetPhysicalTables, s.PhysicalTables},
		{"#Physical columns", warehouse.TargetPhysicalColumns, s.PhysicalColumns},
	}
}

// RenderTable1 renders Table 1 as text.
func (e *Env) RenderTable1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Complexity of the schema graph (paper vs measured)\n")
	fmt.Fprintf(&b, "%-28s %8s %8s\n", "Type", "Paper", "Measured")
	for _, r := range e.Table1() {
		fmt.Fprintf(&b, "%-28s %8d %8d\n", r.Metric, r.Paper, r.Measured)
	}
	return b.String()
}

// RenderTable2 renders the experiment-query corpus.
func (e *Env) RenderTable2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Experiment queries\n")
	for _, q := range eval.Corpus() {
		types := make([]string, len(q.Types))
		for i, t := range q.Types {
			types[i] = string(t)
		}
		fmt.Fprintf(&b, "Q%-5s %-45q [%s]\n", q.ID, q.Input, strings.Join(types, ","))
		fmt.Fprintf(&b, "       %s\n", q.Comment)
		for _, g := range q.Gold {
			fmt.Fprintf(&b, "       gold: %s\n", strings.Join(strings.Fields(g), " "))
		}
	}
	return b.String()
}

// Table3 runs the full evaluation.
func (e *Env) Table3() ([]*eval.ResultReport, error) {
	return eval.EvaluateAll(e.WHSys, eval.Corpus())
}

// RenderTable3 renders precision/recall per query, paper vs measured.
func (e *Env) RenderTable3() (string, error) {
	reports, err := e.Table3()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: Precision and recall (paper vs measured best result)\n")
	fmt.Fprintf(&b, "%-5s | %6s %6s | %6s %6s | %6s %6s\n",
		"Q", "P", "R", "pap.P", "pap.R", ">0", "=0")
	for _, r := range reports {
		fmt.Fprintf(&b, "%-5s | %6.2f %6.2f | %6.2f %6.2f | %6d %6d\n",
			r.Query.ID, r.Best.Precision, r.Best.Recall,
			r.Query.PaperPrecision, r.Query.PaperRecall,
			r.NumPositive, r.NumZero)
	}
	return b.String(), nil
}

// RenderTable4 renders query complexity and runtime information.
func (e *Env) RenderTable4() (string, error) {
	reports, err := e.Table3()
	if err != nil {
		return "", err
	}
	paper := eval.PaperTable4()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: Query complexity and runtimes\n")
	fmt.Fprintf(&b, "(paper ran Oracle on a shared Sun M5000; absolute times are not comparable,\n")
	fmt.Fprintf(&b, " the shape to check: SODA analysis ≪ total execution)\n")
	fmt.Fprintf(&b, "%-5s | %10s %8s | %12s %12s | %10s %10s\n",
		"Q", "complexity", "#results", "SODA", "total", "paper SODA", "paper tot")
	for _, r := range reports {
		pt := paper[r.Query.ID]
		fmt.Fprintf(&b, "%-5s | %10d %8d | %12v %12v | %9.2fs %8.0fm\n",
			r.Query.ID, r.Complexity, r.NumResults,
			r.SODATime.Round(10_000), r.TotalTime.Round(10_000),
			pt[0], pt[1])
	}
	return b.String(), nil
}

// Table5 builds the capability matrix over all six systems.
func (e *Env) Table5() (*baseline.Matrix, error) {
	systems := []baseline.System{
		baseline.NewDBExplorer(e.Warehouse.Meta, e.Warehouse.Index),
		baseline.NewDiscover(e.Warehouse.Meta, e.Warehouse.Index),
		baseline.NewBanks(e.Warehouse.Meta, e.Warehouse.Index),
		baseline.NewSqak(e.Warehouse.Meta),
		baseline.NewKeymantic(e.Warehouse.Meta),
		&baseline.SODAAdapter{Sys: e.WHSys},
	}
	return baseline.BuildMatrix(e.Warehouse.DB, systems, eval.Corpus())
}

// RenderTable5 renders the measured capability matrix next to the paper's
// published marks.
func (e *Env) RenderTable5() (string, error) {
	m, err := e.Table5()
	if err != nil {
		return "", err
	}
	paper := map[eval.QueryType]map[string]string{
		eval.TypeBaseData: {"DBExplorer": "(X)", "DISCOVER": "(X)", "BANKS": "X",
			"SQAK": "NO", "Keymantic": "(NO)", "SODA": "X"},
		eval.TypeSchema: {"DBExplorer": "NO", "DISCOVER": "NO", "BANKS": "X",
			"SQAK": "NO", "Keymantic": "X", "SODA": "X"},
		eval.TypeInheritance: {"DBExplorer": "NO", "DISCOVER": "NO", "BANKS": "NO",
			"SQAK": "NO", "Keymantic": "NO", "SODA": "X"},
		eval.TypeOntology: {"DBExplorer": "NO", "DISCOVER": "NO", "BANKS": "NO",
			"SQAK": "NO", "Keymantic": "(X)", "SODA": "X"},
		eval.TypePredicate: {"DBExplorer": "NO", "DISCOVER": "NO", "BANKS": "NO",
			"SQAK": "NO", "Keymantic": "NO", "SODA": "X"},
		eval.TypeAggregate: {"DBExplorer": "NO", "DISCOVER": "NO", "BANKS": "NO",
			"SQAK": "X", "Keymantic": "NO", "SODA": "X"},
	}
	typeNames := map[eval.QueryType]string{
		eval.TypeBaseData:    "Base data",
		eval.TypeSchema:      "Schema",
		eval.TypeInheritance: "Inheritance",
		eval.TypeOntology:    "Domain ontology",
		eval.TypePredicate:   "Predicates",
		eval.TypeAggregate:   "Aggregates",
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: Qualitative comparison, measured (paper's mark in brackets)\n")
	fmt.Fprintf(&b, "%-16s", "Query type")
	for _, s := range m.Systems {
		fmt.Fprintf(&b, " %-12s", s)
	}
	b.WriteByte('\n')
	for _, qt := range m.Types {
		fmt.Fprintf(&b, "%-16s", typeNames[qt])
		for _, s := range m.Systems {
			c := m.Cells[s][qt]
			fmt.Fprintf(&b, " %-12s", fmt.Sprintf("%s [%s]", c.Support, paper[qt][s]))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\nQueries per type: ")
	for _, qt := range m.Types {
		fmt.Fprintf(&b, "%s=%v ", qt, baseline.QueriesOfType(eval.Corpus(), qt))
	}
	b.WriteByte('\n')
	return b.String(), nil
}

// Figure5Query is the classification example of Figures 5 and 6.
const Figure5Query = "customers Zürich financial instruments"

// RenderFigure5 regenerates the query classification of Figure 5.
func (e *Env) RenderFigure5() (string, error) {
	a, err := e.MBSys.Search(Figure5Query)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: Query classification of %q\n", Figure5Query)
	for ti, term := range a.Terms {
		fmt.Fprintf(&b, "  %-25q ->", term.Text)
		for _, c := range a.Candidates[ti] {
			fmt.Fprintf(&b, " %s;", c.Describe())
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  query complexity: %d (paper: 1 x 1 x 2 = 2)\n", a.Complexity)
	return b.String(), nil
}

// Figure6Tables returns the union of tables-step outputs across the
// query's solutions.
func (e *Env) Figure6Tables() ([]string, error) {
	a, err := e.MBSys.Search(Figure5Query)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var tables []string
	for _, sol := range a.Solutions {
		for _, t := range sol.TableNames() {
			if !seen[t] {
				seen[t] = true
				tables = append(tables, t)
			}
		}
	}
	sort.Strings(tables)
	return tables, nil
}

// RenderFigure6 regenerates the tables-step output of Figure 6.
func (e *Env) RenderFigure6() (string, error) {
	tables, err := e.Figure6Tables()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: Output of the tables step for %q\n", Figure5Query)
	fmt.Fprintf(&b, "  paper:    parties, individuals, organizations, addresses,\n")
	fmt.Fprintf(&b, "            financial_instruments, fi_contains_sec, securities\n")
	fmt.Fprintf(&b, "  measured: %s\n", strings.Join(tables, ", "))
	return b.String(), nil
}

// RenderFigures7And8 prints the pattern definitions with a live match each.
func (e *Env) RenderFigures7And8() string {
	reg := metagraph.Patterns()
	var b strings.Builder
	fmt.Fprintf(&b, "Figures 7/8: metadata graph patterns (as registered)\n")
	for _, name := range reg.Names() {
		fmt.Fprintf(&b, "\n-- %s --\n%s\n", name, reg.Get(name).String())
	}
	return b.String()
}

// RenderFigure9 demonstrates direct-path join selection: the minibank
// query joining customers to financial instruments routes through the
// transaction fact tables, ignoring joins merely attached to the path.
func (e *Env) RenderFigure9() (string, error) {
	a, err := e.MBSys.Search("customers financial instruments")
	if err != nil {
		return "", err
	}
	if len(a.Solutions) == 0 {
		return "", fmt.Errorf("figure 9: no solutions")
	}
	sol := a.Solutions[0]
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: joins on the direct path between entry points\n")
	fmt.Fprintf(&b, "  query: customers + financial instruments (mini-bank)\n")
	fmt.Fprintf(&b, "  anchors: %s\n", strings.Join(sol.Primaries, ", "))
	fmt.Fprintf(&b, "  used joins:\n")
	for _, j := range sol.Joins {
		fmt.Fprintf(&b, "    %s\n", j)
	}
	fmt.Fprintf(&b, "  FROM list: %s\n", strings.Join(sol.SQLTables, ", "))
	return b.String(), nil
}

// RenderFigure10 demonstrates the warehouse's bridge table between
// inheritance siblings and its effect on Q9.0.
func (e *Env) RenderFigure10() (string, error) {
	a, err := e.WHSys.Search("select count() private customers Switzerland")
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: bridge table between inheritance siblings\n")
	fmt.Fprintf(&b, "  party_td is the parent of individual_td and organization_td;\n")
	fmt.Fprintf(&b, "  associate_employment bridges the two siblings.\n")
	if len(a.Solutions) > 0 {
		sol := a.Solutions[0]
		fmt.Fprintf(&b, "  Q9.0 join path (hijacked by the bridge):\n")
		for _, j := range sol.Joins {
			fmt.Fprintf(&b, "    %s\n", j)
		}
		fmt.Fprintf(&b, "  generated SQL:\n    %s\n",
			strings.ReplaceAll(sol.SQLText(), "\n", "\n    "))
	}
	return b.String(), nil
}

// AblationRow is one ablation measurement: mean best precision/recall over
// the corpus under a configuration, plus how many generated statements
// ended up with disconnected entry points (cross products).
type AblationRow struct {
	Name         string
	Precision    float64
	Recall       float64
	Positive     int
	Disconnected int
}

// Ablations runs the design-choice experiments — each core.Options
// ablation switch, and two worlds with repaired metadata — over the
// evaluation corpus; sodabench -ablations prints them.
func (e *Env) Ablations() ([]AblationRow, error) {
	configs := []struct {
		name string
		opt  core.Options
		cfg  warehouse.Config
	}{
		{"baseline", core.Options{}, warehouse.Default()},
		{"no bridge tables", core.Options{DisableBridges: true}, warehouse.Default()},
		{"no DBpedia", core.Options{DisableDBpedia: true}, warehouse.Default()},
		{"uniform ranking", core.Options{UniformRanking: true}, warehouse.Default()},
		{"all joins (no Fig.9 pruning)", core.Options{AllJoins: true}, warehouse.Default()},
		{"bi-temporal annotations fixed", core.Options{}, fixedBiTemporal()},
		{"sibling bridges annotated", core.Options{}, fixedBridges()},
	}
	var rows []AblationRow
	for _, c := range configs {
		w := warehouse.Build(c.cfg)
		sys := core.NewSystem(memory.New(w.DB), w.Meta, w.Index, c.opt)
		reports, err := eval.EvaluateAll(sys, eval.Corpus())
		if err != nil {
			return nil, err
		}
		var p, r float64
		pos, disc := 0, 0
		for _, rep := range reports {
			p += rep.Best.Precision
			r += rep.Best.Recall
			pos += rep.NumPositive
			disc += rep.NumDisconnected
		}
		n := float64(len(reports))
		rows = append(rows, AblationRow{
			Name: c.name, Precision: p / n, Recall: r / n,
			Positive: pos, Disconnected: disc,
		})
	}
	return rows, nil
}

func fixedBiTemporal() warehouse.Config {
	c := warehouse.Default()
	c.FixBiTemporal = true
	return c
}

func fixedBridges() warehouse.Config {
	c := warehouse.Default()
	c.FixSiblingBridges = true
	return c
}

// RenderAblations renders the ablation table.
func (e *Env) RenderAblations() (string, error) {
	rows, err := e.Ablations()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations: mean best precision/recall over the 13 queries\n")
	fmt.Fprintf(&b, "%-32s %8s %8s %10s %12s\n",
		"configuration", "mean P", "mean R", "#positive", "#disconnect")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-32s %8.3f %8.3f %10d %12d\n",
			r.Name, r.Precision, r.Recall, r.Positive, r.Disconnected)
	}
	s, err := e.RenderDBpediaEffect()
	if err != nil {
		return "", err
	}
	b.WriteByte('\n')
	b.WriteString(s)
	return b.String(), nil
}

// DBpediaEffectRow measures one synonym query with and without DBpedia.
type DBpediaEffectRow struct {
	Query          string
	ComplexityWith int
	ResultsWith    int
	ComplexityOff  int
	ResultsOff     int
}

// DBpediaEffect measures the paper's §7 concern: "the use of DBpedia will
// naturally increase the number of possible query results — the query
// complexity". Synonym-bearing queries are classified with DBpedia
// enabled and disabled.
func (e *Env) DBpediaEffect() ([]DBpediaEffectRow, error) {
	queries := []string{
		"client",            // DBpedia synonym of the customers concept
		"company",           // DBpedia synonym of organizations
		"stock trade order", // stock → investment products via DBpedia
		"payment",           // DBpedia synonym of money orders
		"customer",          // ontology term AND near-synonyms
	}
	withSys := core.NewSystem(memory.New(e.Warehouse.DB), e.Warehouse.Meta, e.Warehouse.Index, core.Options{})
	offSys := core.NewSystem(memory.New(e.Warehouse.DB), e.Warehouse.Meta, e.Warehouse.Index,
		core.Options{DisableDBpedia: true})
	var rows []DBpediaEffectRow
	for _, q := range queries {
		row := DBpediaEffectRow{Query: q}
		if a, err := withSys.Search(q); err == nil {
			row.ComplexityWith = a.Complexity
			row.ResultsWith = len(a.Solutions)
		}
		if a, err := offSys.Search(q); err == nil {
			row.ComplexityOff = a.Complexity
			row.ResultsOff = len(a.Solutions)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderDBpediaEffect renders the DBpedia complexity experiment.
func (e *Env) RenderDBpediaEffect() (string, error) {
	rows, err := e.DBpediaEffect()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "DBpedia effect (§7 future work): complexity and results with/without synonyms\n")
	fmt.Fprintf(&b, "%-22s %12s %10s | %12s %10s\n",
		"query", "cplx (with)", "#results", "cplx (off)", "#results")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22q %12d %10d | %12d %10d\n",
			r.Query, r.ComplexityWith, r.ResultsWith, r.ComplexityOff, r.ResultsOff)
	}
	return b.String(), nil
}

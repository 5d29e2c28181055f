package core

import (
	"fmt"
	"time"

	"soda/internal/backend"
	"soda/internal/metagraph"
	"soda/internal/queryparse"
	"soda/internal/rdf"
	"soda/internal/sqlast"
)

// Role says how a term participates in SQL generation.
type Role uint8

// Term roles.
const (
	RolePlain Role = iota
	RoleAggAttr
	RoleGroupBy
)

func (r Role) String() string {
	switch r {
	case RoleAggAttr:
		return "agg-attr"
	case RoleGroupBy:
		return "group-by"
	default:
		return "keyword"
	}
}

// Term is one semantic unit of the query after longest-combination
// segmentation (§4.2.2 Keywords).
type Term struct {
	Text    string
	Role    Role
	AggFunc string // for RoleAggAttr
	// Comparisons attached to this term by the input parser.
	Comparisons []queryparse.Comparison
}

// EntryKind discriminates metadata entry points from base-data hits.
type EntryKind uint8

// Entry point kinds.
const (
	KindMetadata EntryKind = iota
	KindBaseData
)

// EntryPoint is one place in the extended metadata graph (or base data)
// where a term was found.
type EntryPoint struct {
	Term  int // index into Analysis.Terms
	Kind  EntryKind
	Node  rdf.Term // metadata node (KindMetadata)
	Layer string
	// Base-data location and the matching values (KindBaseData).
	Table, Column string
	Values        []string
	Score         float64
}

// Describe renders the entry point the way Figure 5 annotates them.
func (e EntryPoint) Describe() string {
	if e.Kind == KindBaseData {
		return fmt.Sprintf("%s.%s (Basedata)", e.Table, e.Column)
	}
	return fmt.Sprintf("%s (%s)", e.Node.Value(), layerTitle(e.Layer))
}

func layerTitle(layer string) string {
	switch layer {
	case metagraph.LayerDomainOntology:
		return "Domain ontology"
	case metagraph.LayerConceptual:
		return "Conceptual schema"
	case metagraph.LayerLogical:
		return "Logical schema"
	case metagraph.LayerPhysical:
		return "Physical schema"
	case metagraph.LayerDBpedia:
		return "DBpedia"
	case metagraph.LayerBaseData:
		return "Basedata"
	default:
		return layer
	}
}

// ColRef names a physical column.
type ColRef struct {
	Table, Column string
}

func (c ColRef) String() string { return c.Table + "." + c.Column }

// Join is one join condition between two tables. Via records which pattern
// produced it: "fk", "joinrel", "inheritance", or "bridge".
type Join struct {
	LeftTable, LeftCol   string
	RightTable, RightCol string
	Via                  string
}

func (j Join) String() string {
	var buf [96]byte
	return string(j.Append(buf[:0]))
}

// Append appends String() to dst: "l.c = r.c [via]".
func (j Join) Append(dst []byte) []byte {
	dst = append(append(append(dst, j.LeftTable...), '.'), j.LeftCol...)
	dst = append(append(append(append(dst, " = "...), j.RightTable...), '.'), j.RightCol...)
	return append(append(append(dst, " ["...), j.Via...), ']')
}

// Filter is one WHERE condition. Source records provenance: "input" (an
// operator in the query), "basedata" (an inverted-index hit), or
// "metadata" (a filter stored in the metadata graph, e.g. wealthy
// customers).
type Filter struct {
	Col    ColRef
	Op     string // =, <>, >, >=, <, <=, like, between
	Value  string
	Value2 string // for between
	IsDate bool
	IsNum  bool
	Source string
}

func (f Filter) String() string {
	var buf [96]byte
	return string(f.Append(buf[:0]))
}

// Append appends String() to dst: "t.c op value [source]", or
// "t.c BETWEEN value AND value2 [source]".
func (f Filter) Append(dst []byte) []byte {
	dst = append(append(append(dst, f.Col.Table...), '.'), f.Col.Column...)
	if f.Op == "between" {
		dst = append(append(append(dst, " BETWEEN "...), f.Value...), " AND "...)
		dst = append(dst, f.Value2...)
	} else {
		dst = append(append(append(append(dst, ' '), f.Op...), ' '), f.Value...)
	}
	return append(append(append(dst, " ["...), f.Source...), ']')
}

// Agg is a resolved aggregate; a nil Col means count(*).
type Agg struct {
	Func string
	Col  *ColRef
}

// Solution is one fully processed combination of entry points, carrying
// everything the five steps derived and the final SQL.
type Solution struct {
	Entries []EntryPoint
	Score   float64

	// tables is the discovery output of the tables step (Figure 6), as
	// IDs into catalog: every table reachable from the entry points plus
	// bridge tables between them (see TableNames). Primaries anchors each
	// entry to its nearest table, and SQLTables is the pruned FROM list:
	// anchors, join-path intermediates and inheritance parents.
	tables    []int32
	catalog   *tableInterner
	Primaries []string
	SQLTables []string

	Joins        []Join
	Filters      []Filter
	Aggs         []Agg
	GroupBy      []ColRef
	TopN         int
	Disconnected bool // no join path connected some entry points

	SQL *sqlast.Select
	// Dialect the statement is rendered in (set by the SQL step; nil
	// means sqlast.Generic).
	Dialect *sqlast.Dialect

	// Snippet rows executed during the pipeline when the search asked
	// for them (SearchOptions.Snippets). Cached with the analysis, so a
	// cache hit serves them without re-executing the SQL; feedback
	// drops them together with the answer.
	Snippet    *backend.Result
	SnippetErr string
	// snippetCut marks a snippet execution ended by the request's context
	// (cancelled or past its deadline): the error says nothing about the
	// statement, so the answer must not be cached.
	snippetCut bool

	// Approved marks a solution drawn from the saved-query library
	// (queries.go) rather than generated by the pipeline. QueryName is
	// the library key and Bindings the parameter values extracted from
	// the search input (or defaults). Approved solutions execute
	// exclusively through the backend's prepared-statement path.
	Approved  bool
	QueryName string
	Bindings  []BoundParam
}

// TableNames returns the discovery output of the tables step (Figure 6)
// in its order: entry by entry, the tables its traversal collects,
// nearest first (a base-data entry's own table and its inheritance
// parents lead), each table once; then the bridges between discovered
// tables. Each call returns a new slice, nil when the view is empty.
func (s *Solution) TableNames() []string {
	if len(s.tables) == 0 {
		return nil
	}
	out := make([]string, len(s.tables))
	for i, id := range s.tables {
		out[i] = s.catalog.name(id)
	}
	return out
}

// AppendTablesJSON appends TableNames as a JSON array of strings, null
// when it is empty, copying each name's JSON form from the catalog
// instead of escaping it again.
func (s *Solution) AppendTablesJSON(dst []byte) []byte {
	if len(s.tables) == 0 {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, id := range s.tables {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, s.catalog.quotedName(id)...)
	}
	return append(dst, ']')
}

// SQLText renders the generated statement in the solution's dialect; the
// empty string means SQL generation failed for this solution.
func (s *Solution) SQLText() string {
	if s.SQL == nil {
		return ""
	}
	return s.SQL.Render(s.dialect())
}

// AppendSQL appends SQLText() to dst.
func (s *Solution) AppendSQL(dst []byte) []byte {
	if s.SQL == nil {
		return dst
	}
	return s.SQL.AppendRender(dst, s.dialect())
}

func (s *Solution) dialect() *sqlast.Dialect {
	if s.Dialect == nil {
		return sqlast.Generic
	}
	return s.Dialect
}

// Timings records per-step wall-clock durations (Table 4 reports the SODA
// runtime split by algorithmic step).
type Timings struct {
	Lookup  time.Duration
	Rank    time.Duration
	Tables  time.Duration
	Filters time.Duration
	SQL     time.Duration
	Snippet time.Duration // snippet execution, when requested
}

// Total sums the step durations.
func (t Timings) Total() time.Duration {
	return t.Lookup + t.Rank + t.Tables + t.Filters + t.SQL + t.Snippet
}

// Analysis is the full result of running the pipeline on one input query.
type Analysis struct {
	Query      *queryparse.Query
	Terms      []Term
	Candidates [][]EntryPoint // per term
	Ignored    []string       // words that matched nothing ("and" ...)
	Complexity int            // product of entry-point counts (Table 4)
	Solutions  []*Solution    // ranked, best first, len <= TopN
	Timings    Timings

	// Dialect the solutions' SQL is rendered in; WithSnippets records
	// that snippet rows were executed and cached on the solutions.
	Dialect      *sqlast.Dialect
	WithSnippets bool

	// ranking is the ranking the analysis is computed under, loaded once
	// by the search: Step 1 scores and approvedStep matches with it, and
	// the answer is cached in its cache.
	ranking *ranking

	// StepAllocs is the number of heap allocations each step performed,
	// keyed by step name ("lookup" ... "sqlgen", "snippet"). Only set
	// when the search ran with SearchOptions.CountAllocs.
	StepAllocs map[string]uint64
}

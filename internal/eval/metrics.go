package eval

import (
	"context"
	"fmt"
	"strings"
	"time"

	"soda/internal/backend"
	"soda/internal/backend/memory"
	"soda/internal/core"
	"soda/internal/sqlparse"
)

// Metrics is one precision/recall measurement.
type Metrics struct {
	Precision float64
	Recall    float64
}

// Positive reports whether both precision and recall are greater than 0
// (the paper's "#Results P,R > 0" column).
func (m Metrics) Positive() bool { return m.Precision > 0 && m.Recall > 0 }

// KeySet projects a result onto the query's key columns and returns the
// distinct tuple keys. With no key columns the full rows are compared.
// A result that lacks one of the key columns is incomparable: it returns
// ok=false and the caller scores it zero.
func KeySet(res *backend.Result, keys []string) (map[string]struct{}, bool) {
	if len(keys) == 0 {
		return res.KeySet(), true
	}
	idx := make([]int, len(keys))
	for ki, key := range keys {
		idx[ki] = -1
		for ci, col := range res.Columns {
			if strings.EqualFold(col, key) {
				idx[ki] = ci
				break
			}
		}
		if idx[ki] < 0 {
			return nil, false
		}
	}
	set := make(map[string]struct{}, len(res.Rows))
	for _, row := range res.Rows {
		parts := make([]string, len(idx))
		for ki, ci := range idx {
			parts[ki] = row[ci].Key()
		}
		set[strings.Join(parts, "\x1f")] = struct{}{}
	}
	return set, true
}

// Score computes precision and recall of a result against the gold set.
// Precision 1.0 means every returned tuple appears in the gold standard
// (#R ⊆ #G); recall 1.0 means every gold tuple was returned (#G ⊆ #R).
func Score(got map[string]struct{}, gold map[string]struct{}) Metrics {
	if len(got) == 0 {
		return Metrics{}
	}
	inter := 0
	for k := range got {
		if _, ok := gold[k]; ok {
			inter++
		}
	}
	m := Metrics{Precision: float64(inter) / float64(len(got))}
	if len(gold) > 0 {
		m.Recall = float64(inter) / float64(len(gold))
	}
	return m
}

// ResultReport is the evaluation of one experiment query (one row of
// Tables 3 and 4).
type ResultReport struct {
	Query      Query
	Complexity int
	NumResults int

	Best      Metrics
	BestIndex int // index into the analysis' solutions; -1 if none
	BestSQL   string

	NumPositive int // #Results with P,R > 0
	NumZero     int // #Results with P,R = 0
	// NumDisconnected counts generated statements whose entry points the
	// tables step could not fully connect (cross products).
	NumDisconnected int

	SODATime  time.Duration // the five pipeline steps
	ExecTime  time.Duration // executing every generated statement
	TotalTime time.Duration // SODATime + ExecTime

	PerSolution []Metrics
}

// Evaluate runs one experiment query through the full pipeline, executes
// the gold standard and every generated statement, and scores them. Gold
// statements run on the same backend the system executes against, so the
// comparison stays apples-to-apples when the backend is a real database.
func Evaluate(sys *core.System, q Query) (*ResultReport, error) {
	gold, err := GoldSetOn(sys.Backend, q)
	if err != nil {
		return nil, fmt.Errorf("eval %s: gold standard: %w", q.ID, err)
	}

	start := time.Now()
	a, err := sys.Search(q.Input)
	if err != nil {
		return nil, fmt.Errorf("eval %s: search: %w", q.ID, err)
	}
	sodaTime := time.Since(start)

	rep := &ResultReport{
		Query:      q,
		Complexity: a.Complexity,
		NumResults: len(a.Solutions),
		BestIndex:  -1,
		SODATime:   sodaTime,
	}

	execStart := time.Now()
	for i, sol := range a.Solutions {
		if sol.Disconnected {
			rep.NumDisconnected++
		}
		var m Metrics
		if sol.SQL != nil {
			res, err := sys.Execute(context.Background(), sol)
			if err == nil {
				if got, ok := KeySet(res, q.Keys); ok {
					m = Score(got, gold)
				}
			}
		}
		rep.PerSolution = append(rep.PerSolution, m)
		if m.Positive() {
			rep.NumPositive++
		} else {
			rep.NumZero++
		}
		if rep.BestIndex < 0 || better(m, rep.Best) {
			rep.Best = m
			rep.BestIndex = i
			rep.BestSQL = sol.SQLText()
		}
	}
	rep.ExecTime = time.Since(execStart)
	rep.TotalTime = rep.SODATime + rep.ExecTime
	return rep, nil
}

// EvaluateAll runs the whole corpus, warming the system's caches first so
// per-query timings reflect the algorithm.
func EvaluateAll(sys *core.System, corpus []Query) ([]*ResultReport, error) {
	sys.Warm()
	reports := make([]*ResultReport, 0, len(corpus))
	for _, q := range corpus {
		rep, err := Evaluate(sys, q)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

func better(a, b Metrics) bool {
	return a.Precision+a.Recall > b.Precision+b.Recall
}

// GoldSet executes the query's gold statements against an in-memory
// dataset and unions their key sets.
func GoldSet(db *backend.DB, q Query) (map[string]struct{}, error) {
	return GoldSetOn(memory.New(db), q)
}

// GoldSetOn executes the query's gold statements on an execution backend
// and unions their key sets.
func GoldSetOn(be backend.Executor, q Query) (map[string]struct{}, error) {
	union := make(map[string]struct{})
	for _, sql := range q.Gold {
		sel, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, err
		}
		res, err := be.Exec(context.Background(), sel)
		if err != nil {
			return nil, err
		}
		set, ok := KeySet(res, q.Keys)
		if !ok {
			return nil, fmt.Errorf("gold statement lacks key columns %v", q.Keys)
		}
		for k := range set {
			union[k] = struct{}{}
		}
	}
	return union, nil
}

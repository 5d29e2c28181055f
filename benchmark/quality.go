package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"

	"soda/internal/eval"
)

// The correctness check runs against the live daemon before anything is
// timed. On the warehouse it is the paper's evaluation (§5, Tables 2-3):
// the 13 corpus inputs go to /search, every returned statement and the
// hand-written gold SQL are executed through /sql, and the best
// precision and recall per query, at key-set granularity, must equal the
// values pinned in expected_quality.json. MiniBank has no gold corpus, so
// there the answers to the paper's running examples are pinned instead:
// the top statement and a digest of its snippet rows.

//go:embed expected_quality.json
var expectedQualityJSON []byte

// queryQuality is the pinned outcome of one corpus query.
type queryQuality struct {
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	Results   int     `json:"results"`
}

// pinnedAnswer is the pinned outcome of one MiniBank example.
type pinnedAnswer struct {
	Results    int    `json:"results"`
	TopSQL     string `json:"top_sql"`
	SnippetSHA string `json:"snippet_sha256"`
}

type quality struct {
	Warehouse map[string]queryQuality `json:"warehouse"`
	MiniBank  map[string]pinnedAnswer `json:"minibank"`
}

// miniBankExamples are the paper's running examples (§2, §4.4).
var miniBankExamples = []string{
	"customers Zürich financial instruments",
	"wealthy customers",
	"sum (amount) group by (transaction date)",
	"top 10 trading volume customer",
	"Sara Guttinger",
}

type rowsReply struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

type fullSearchReply struct {
	Results []struct {
		SQL          string     `json:"sql"`
		Snippet      *rowsReply `json:"snippet"`
		SnippetError string     `json:"snippet_error"`
	} `json:"results"`
}

// post sends one JSON request to the daemon and decodes a 200 reply.
func (d *daemon) post(path string, req, reply any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := d.scraper.Post("http://"+d.addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct{ Error string }
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, e.Error)
	}
	return json.NewDecoder(resp.Body).Decode(reply)
}

// keySet projects rows onto the key columns; no keys means whole rows.
// ok is false when a key column is missing, which scores zero.
func keySet(res *rowsReply, keys []string) (set map[string]struct{}, ok bool) {
	idx := make([]int, 0, len(keys))
	for _, key := range keys {
		at := -1
		for ci, col := range res.Columns {
			if strings.EqualFold(col, key) {
				at = ci
				break
			}
		}
		if at < 0 {
			return nil, false
		}
		idx = append(idx, at)
	}
	set = make(map[string]struct{}, len(res.Rows))
	for _, row := range res.Rows {
		parts := row
		if len(keys) > 0 {
			parts = make([]string, len(idx))
			for i, ci := range idx {
				parts[i] = row[ci]
			}
		}
		set[strings.Join(parts, "\x1f")] = struct{}{}
	}
	return set, true
}

// measureQuality computes the world's quality figures from the daemon.
func measureQuality(d *daemon, world string) (*quality, error) {
	q := &quality{}
	if world == "minibank" {
		q.MiniBank = make(map[string]pinnedAnswer)
		for _, input := range miniBankExamples {
			var ans fullSearchReply
			if err := d.post("/search", map[string]any{"query": input, "snippets": true}, &ans); err != nil {
				return nil, err
			}
			p := pinnedAnswer{Results: len(ans.Results)}
			if len(ans.Results) > 0 {
				top := ans.Results[0]
				if top.Snippet == nil {
					return nil, fmt.Errorf("%q: top result has no snippet: %s", input, top.SnippetError)
				}
				rows, _ := json.Marshal(top.Snippet)
				sum := sha256.Sum256(rows)
				p.TopSQL, p.SnippetSHA = top.SQL, hex.EncodeToString(sum[:])
			}
			q.MiniBank[input] = p
		}
		return q, nil
	}
	q.Warehouse = make(map[string]queryQuality)
	for _, cq := range eval.Corpus() {
		gold := make(map[string]struct{})
		for _, sql := range cq.Gold {
			var rows rowsReply
			if err := d.post("/sql", map[string]string{"sql": sql}, &rows); err != nil {
				return nil, fmt.Errorf("gold SQL of query %s: %w", cq.ID, err)
			}
			set, ok := keySet(&rows, cq.Keys)
			if !ok {
				return nil, fmt.Errorf("gold SQL of query %s lacks key columns %v", cq.ID, cq.Keys)
			}
			for k := range set {
				gold[k] = struct{}{}
			}
		}
		var ans fullSearchReply
		if err := d.post("/search", map[string]string{"query": cq.Input}, &ans); err != nil {
			return nil, err
		}
		var best eval.Metrics
		for _, res := range ans.Results {
			var rows rowsReply
			if err := d.post("/sql", map[string]string{"sql": res.SQL}, &rows); err != nil {
				return nil, fmt.Errorf("query %s: generated SQL does not execute: %w", cq.ID, err)
			}
			var m eval.Metrics
			if got, ok := keySet(&rows, cq.Keys); ok {
				m = eval.Score(got, gold)
			}
			if m.Precision+m.Recall > best.Precision+best.Recall {
				best = m
			}
		}
		q.Warehouse[cq.ID] = queryQuality{best.Precision, best.Recall, len(ans.Results)}
	}
	return q, nil
}

// checkQuality compares the daemon's quality with the pinned figures and
// returns one line per difference.
func checkQuality(d *daemon, world string) (problems []string, err error) {
	var want quality
	if err := json.Unmarshal(expectedQualityJSON, &want); err != nil {
		return nil, fmt.Errorf("expected_quality.json: %w", err)
	}
	got, err := measureQuality(d, world)
	if err != nil {
		return nil, fmt.Errorf("correctness check: %w", err)
	}
	if world == "minibank" {
		for _, input := range miniBankExamples {
			if got.MiniBank[input] != want.MiniBank[input] {
				problems = append(problems, fmt.Sprintf("minibank %q: got %+v, pinned %+v", input, got.MiniBank[input], want.MiniBank[input]))
			}
		}
		return problems, nil
	}
	for _, cq := range eval.Corpus() {
		g, w := got.Warehouse[cq.ID], want.Warehouse[cq.ID]
		if math.Abs(g.Precision-w.Precision) > 1e-9 || math.Abs(g.Recall-w.Recall) > 1e-9 || g.Results != w.Results {
			problems = append(problems, fmt.Sprintf("warehouse query %s: got %+v, pinned %+v", cq.ID, g, w))
		}
	}
	return problems, nil
}

package soda

// Ordered-row golden: every statement the pipeline generates on MiniBank
// for the eval corpus inputs and for 500 synthetic workload queries must
// execute to the same columns and the same rows in the same emission
// order as when testdata/exec_rows.golden.json was written. Emission
// order matters because snippets are LIMIT-without-ORDER-BY prefixes of
// it. Regenerate (only when the engine's output is meant to change) with
//
//	go test -run TestExecRowsGolden -update

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"soda/internal/eval"
	"soda/internal/workload"
)

const execRowsGoldenSeed = 20120827

// rowsDigest hashes a result's column names and rows, in order.
func rowsDigest(rows *Rows) string {
	h := sha256.New()
	for _, c := range rows.Columns {
		h.Write([]byte(c))
		h.Write([]byte{0x1f})
	}
	for _, row := range rows.Values {
		h.Write([]byte{0x1e})
		for _, v := range row {
			h.Write([]byte(v.Key()))
			h.Write([]byte{0x1f})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestExecRowsGolden(t *testing.T) {
	w := MiniBank()
	sys := NewSystem(w, Options{})
	var queries []string
	for _, q := range eval.Corpus() {
		queries = append(queries, q.Input)
	}
	queries = append(queries, workload.New(w.Meta(), w.Index(), execRowsGoldenSeed).Queries(500)...)

	got := make(map[string]string)
	for _, q := range queries {
		ans, err := sys.Search(q)
		if err != nil {
			t.Fatalf("Search(%q): %v", q, err)
		}
		for _, r := range ans.Results {
			if _, done := got[r.SQL]; done {
				continue
			}
			rows, err := r.Execute()
			if err != nil {
				got[r.SQL] = "error: " + err.Error()
				continue
			}
			got[r.SQL] = rowsDigest(rows)
		}
	}

	path := filepath.Join("testdata", "exec_rows.golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Errorf("pipeline generated %d distinct statements, golden has %d", len(got), len(want))
	}
	for sql, digest := range want {
		if got[sql] != digest {
			t.Errorf("rows changed for\n  %s\n  got  %s\n  want %s", sql, got[sql], digest)
		}
	}
}

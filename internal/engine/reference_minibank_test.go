package engine_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"soda/internal/engine"
	"soda/internal/minibank"
	"soda/internal/sqlparse"
)

// TestDifferentialMiniBank runs every statement the row golden pins (the
// SQL the pipeline generates on MiniBank for the eval corpus and 500
// workload queries) as generated and with the snippet cap LIMIT 20, which
// the golden never exercises, against the reference executor.
func TestDifferentialMiniBank(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "exec_rows.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	db := minibank.BuildNoIndex(minibank.Default()).DB
	for sql := range golden {
		for _, limit := range []int{-1, 20} {
			sel, err := sqlparse.Parse(sql)
			if err != nil {
				t.Fatalf("parse %q: %v", sql, err)
			}
			if limit >= 0 && (sel.Limit < 0 || sel.Limit > limit) {
				sel.Limit = limit
			}
			if d := engine.DiffExec(db, sel); d != "" {
				t.Errorf("LIMIT %d: %s\n  %s", sel.Limit, sql, d)
			}
		}
	}
}

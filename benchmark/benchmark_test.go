package main

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite expected_quality.json from the daemon's current answers")

func TestInputsFollowTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7)
		c, _ := generate(name, 8)
		if a.sha256 != b.sha256 {
			t.Errorf("%s: same seed, different inputs_sha256", name)
		}
		if a.sha256 == c.sha256 {
			t.Errorf("%s: different seeds, same inputs_sha256", name)
		}
	}
}

func TestDistinctWorkloadsRepeatNoQuery(t *testing.T) {
	for _, name := range []string{adhocCold, snippetExec} {
		in, err := generate(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for _, rq := range append(append([]request(nil), in.warm...), in.reqs...) {
			if seen[rq.query] {
				t.Fatalf("%s: query %q occurs twice", name, rq.query)
			}
			seen[rq.query] = true
		}
	}
}

func TestFeedbackMixSchedule(t *testing.T) {
	in, err := generate(feedbackMix, 5)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	for i, ri := range in.schedule {
		if in.reqs[ri].isWrite() != (i%mixWriteEvery == mixWriteEvery-1) {
			t.Fatalf("position %d: write=%t", i, in.reqs[ri].isWrite())
		}
		if in.reqs[ri].isWrite() {
			writes++
		}
	}
	if writes == 0 {
		t.Fatal("no writes")
	}
}

// The benchmark must not build on the packages ROADMAP marks for audit.
func TestImportsNoAuditedPackage(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "soda/internal/workload" || pkg == "soda/internal/bench" || strings.HasPrefix(pkg, "soda/internal/bench/") {
			t.Errorf("benchmark depends on %s", pkg)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	got := quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	want := [3]float64{3.5, 13.5, 31}
	if got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

// The names in BENCHMARK.json are the names the benchmark prints.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) || len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the benchmark has %d, %d and %d",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer), len(workloadNames), len(endToEnd), len(perLayer))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the benchmark", i, w.Name, workloadNames[i])
		}
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: %v in BENCHMARK.json, %v in the benchmark", i, m, endToEnd[i])
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: %v in BENCHMARK.json, %v in the benchmark", i, m, perLayer[i])
		}
	}
}

// testEnv builds sodad into the test's temp directory.
func testEnv(t *testing.T) env {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns sodad")
	}
	root, err := checkoutRoot()
	if err != nil {
		t.Fatal(err)
	}
	e := env{bin: filepath.Join(t.TempDir(), "sodad"), tmp: t.TempDir(), setups: 1}
	if err := buildDaemon(context.Background(), root, e.bin); err != nil {
		t.Fatal(err)
	}
	return e
}

// With -update, rewrites the pinned quality figures; without, checks that
// the daemon still produces them.
func TestExpectedQuality(t *testing.T) {
	e := testEnv(t)
	var all quality
	for _, world := range []string{"warehouse", "minibank"} {
		d, err := startDaemon(context.Background(), e.bin, world, "")
		if err != nil {
			t.Fatal(err)
		}
		if *update {
			var got *quality
			if got, err = measureQuality(d, world); err == nil && world == "warehouse" {
				all.Warehouse = got.Warehouse
			} else if err == nil {
				all.MiniBank = got.MiniBank
			}
		} else {
			var problems []string
			problems, err = checkQuality(d, world)
			for _, p := range problems {
				t.Error(p)
			}
		}
		d.stop()
		if err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		data, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expected_quality.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// Every workload, untraced and traced, on a timed section of one second:
// every metric the benchmark names is there, finite, and has its unit.
func TestSmoke(t *testing.T) {
	e := testEnv(t)
	for _, name := range workloadNames {
		in, err := generate(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := runUntraced(context.Background(), e, in, 1, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runTraced(context.Background(), e, in, 1, time.Second, filepath.Join(e.tmp, "spans.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			rep  *report
			want []metricDef
		}{{plain, endToEnd}, {traced, perLayer}} {
			for _, p := range run.rep.problems {
				t.Errorf("%s: %s", name, p)
			}
			if !run.rep.Correct || run.rep.Failed != 0 || run.rep.Attempted == 0 {
				t.Errorf("%s: correct=%t attempted=%d failed=%d", name, run.rep.Correct, run.rep.Attempted, run.rep.Failed)
			}
			if len(run.rep.Metrics) != len(run.want) {
				t.Errorf("%s: %d metrics, want %d", name, len(run.rep.Metrics), len(run.want))
			}
			for _, m := range run.want {
				got, ok := run.rep.Metrics[m.name]
				if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: metric %s = %+v (present %t), want a finite value in %s", name, m.name, got, ok, m.unit)
				}
			}
		}
		for _, m := range endToEnd {
			if plain.Metrics[m.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, m.name, plain.Metrics[m.name].Value)
			}
		}
		var spans []struct{ Name string }
		raw, err := os.ReadFile(filepath.Join(e.tmp, "spans.json"))
		if err == nil {
			err = json.Unmarshal(raw, &spans)
		}
		if err != nil || len(spans) == 0 {
			t.Errorf("%s: trace-out: %d spans, %v", name, len(spans), err)
		}
	}
}

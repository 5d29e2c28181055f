// Command benchmark is the repo's serving benchmark: it builds and spawns
// sodad, drives it over loopback from two closed-loop clients, and
// reports what a client of the daemon sees (tracing off) or, in a
// separate traced run, what each layer costs. See README.md.
//
// The driver's form, one workload per process, last line a JSON result:
//
//	bash benchmark/run.sh --workload explore_hot --seed 1 --seconds 15 --trace 0
//
// Without --workload all four workloads run in turn. With -repeat N they
// run N times on seeds seed..seed+N-1 and the spread of every end-to-end
// metric is printed against its bound in BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (empty = all four)")
		seed     = flag.Int64("seed", 1, "seed of the workload's inputs")
		seconds  = flag.Float64("seconds", 15, "length of the timed section")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics, tracing off; 1 = per-layer metrics from the traced run")
		traceOut = flag.String("trace-out", "", "with --trace 1: write the spans to this file as JSON")
		repeat   = flag.Int("repeat", 0, "run the untraced set this many times and print each metric's spread against its bound")
	)
	flag.Parse()
	// Ending on a signal or at the deadline goes through the same deferred
	// clean-up as ending normally: the daemon stopped, its files removed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second*time.Duration(max(1, *repeat*len(workloadNames))))
	code := run(ctx, *workload, *seed, *seconds, *trace, *traceOut, *repeat)
	cancel()
	stop()
	os.Exit(code)
}

func run(ctx context.Context, workload string, seed int64, seconds float64, trace int, traceOut string, repeat int) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if seconds <= 0 || trace < 0 || trace > 1 || flag.NArg() > 0 {
		return fail(errors.New("want --seconds > 0, --trace 0 or 1, and no other arguments"))
	}
	root, err := checkoutRoot()
	if err != nil {
		return fail(err)
	}
	tmp, err := tempDir(root)
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)
	e := env{bin: filepath.Join(root, ".bench_build", "sodad"), tmp: tmp, setups: 3}
	if err := buildDaemon(ctx, root, e.bin); err != nil {
		return fail(err)
	}
	printEnvironment(root)
	dur := time.Duration(seconds * float64(time.Second))

	one := func(name string, seed int64) (*report, error) {
		in, err := generate(name, seed)
		if err != nil {
			return nil, err
		}
		var rep *report
		if trace == 1 {
			rep, err = runTraced(ctx, e, in, seed, dur, traceOut)
		} else {
			rep, err = runUntraced(ctx, e, in, seed, dur)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rep.print()
		return rep, nil
	}

	switch {
	case repeat > 0:
		if err := repeatRuns(root, repeat, seed, one); err != nil {
			return fail(err)
		}
		return 0
	case workload != "":
		rep, err := one(workload, seed)
		if err != nil {
			return fail(err)
		}
		line, _ := json.Marshal(rep.result)
		fmt.Println(string(line))
		if !rep.Correct {
			return 1
		}
		return 0
	}
	// The whole set: a summary that makes no claim.
	summary := struct {
		Seed      int64             `json:"seed"`
		Workloads map[string]result `json:"workloads"`
		Inputs    map[string]string `json:"inputs_sha256"`
		Claim     any               `json:"claim"`
	}{seed, map[string]result{}, map[string]string{}, nil}
	code := 0
	for _, name := range workloadNames {
		rep, err := one(name, seed)
		if err != nil {
			return fail(err)
		}
		summary.Workloads[name], summary.Inputs[name] = rep.result, rep.inputs
		if !rep.Correct {
			code = 1
		}
	}
	line, _ := json.Marshal(summary)
	fmt.Println(string(line))
	return code
}

// checkoutRoot finds the checkout the benchmark measures: the working
// directory when run from the root, as run.sh does, or its parent when
// run from the benchmark's own directory (go run .).
func checkoutRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "sodad", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cmd/sodad not found: run from the checkout's root or from benchmark/")
}

func printEnvironment(root string) {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	// Look for a repository in the checkout itself, not above it.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default"
	}
	fmt.Printf("environment: nproc=%d clients=%d %s sodad GOMAXPROCS=default(%d) GOGC=%s commit=%s\n",
		runtime.NumCPU(), clients(), runtime.Version(), runtime.GOMAXPROCS(0), gogc, commit)
}

// print writes the human-readable report: every metric by name with its
// unit, then the notes and any problem found.
func (rep *report) print() {
	fmt.Printf("workload=%s seed=%d inputs_sha256=%s\n", rep.workload, rep.seed, rep.inputs)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("  %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Println("  #", n)
	}
	for _, p := range rep.problems {
		fmt.Println("  PROBLEM:", p)
	}
	fmt.Printf("  attempted=%d failed=%d correct=%t\n", rep.Attempted, rep.Failed, rep.Correct)
}

// repeatRuns is the repeatability tool: n untraced sets on consecutive
// seeds, then per workload and end-to-end metric the median, the range,
// and the spread the driver computes — the distance between the first
// and third quartile as a share of the median — against the bound.
func repeatRuns(root string, n int, seed int64, one func(string, int64) (*report, error)) error {
	var spec struct {
		EndToEnd []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	for i := 0; i < n; i++ {
		for _, name := range workloadNames {
			rep, err := one(name, seed+int64(i))
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("%s seed %d: run is not correct", name, seed+int64(i))
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for metric, m := range rep.Metrics {
				values[name][metric] = append(values[name][metric], m.Value)
			}
		}
	}
	fmt.Printf("repeatability over %d runs, seeds %d..%d\n", n, seed, seed+int64(n)-1)
	fmt.Printf("%-14s %-22s %12s %12s %12s %8s %6s %s\n", "workload", "metric", "median", "min", "max", "spread", "bound", "spread/bound")
	for _, name := range workloadNames {
		for _, m := range spec.EndToEnd {
			v := values[name][m.Name]
			sort.Float64s(v)
			spread := 0.0
			if len(v) >= 2 {
				q := quartiles(v)
				spread = (q[2] - q[0]) / q[1]
			}
			fmt.Printf("%-14s %-22s %12.6g %12.6g %12.6g %8.4f %6.2f %.2f\n", name, m.Name, median(v), v[0], v[len(v)-1], spread, m.Bound, spread/m.Bound)
		}
	}
	return nil
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"soda/internal/server"
)

// daemonEnv, when set to 1, makes the test binary run sodad's main on its
// own arguments instead of the tests: the restart test starts, signals
// and reboots the real daemon without building a second binary.
const daemonEnv = "SODAD_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is one sodad child process.
type daemon struct {
	cmd  *exec.Cmd
	url  string        // http://host:port it serves on
	done chan struct{} // closed once its stderr reaches EOF
	mu   sync.Mutex
	log  []string // its stderr lines so far
}

// startDaemon re-executes the test binary as sodad on a free loopback
// port and returns once the daemon logs the address it serves on.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	t.Cleanup(func() {
		if cmd.ProcessState == nil { // still running: the test failed early
			_ = cmd.Process.Kill()
			<-d.done
			_ = cmd.Wait()
		}
	})
	addrc := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log = append(d.log, line)
			d.mu.Unlock()
			if strings.Contains(line, "sodad serving ") {
				addrc <- line[strings.LastIndex(line, " on ")+len(" on "):]
			}
		}
	}()
	select {
	case addr := <-addrc:
		d.url = "http://" + addr
	case <-d.done:
		t.Fatalf("sodad exited before serving:\n%s", d.logs())
	case <-time.After(30 * time.Second):
		t.Fatalf("sodad did not serve within 30s:\n%s", d.logs())
	}
	return d
}

func (d *daemon) logs() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.log, "\n")
}

// stop sends SIGTERM and waits for a clean exit.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("sodad still running 30s after SIGTERM:\n%s", d.logs())
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("sodad exit after SIGTERM: %v\n%s", err, d.logs())
	}
}

// call sends one request and returns the body of a 200 answer.
func (d *daemon) call(t *testing.T, method, path, body string) []byte {
	t.Helper()
	req, err := http.NewRequest(method, d.url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s %s: status %d: %s", method, path, body, resp.StatusCode, data)
	}
	return data
}

// TestRestartSurvival: feedback applied to a live sodad survives SIGTERM
// and a reboot on the same -data-dir. The shutdown folds the WAL into a
// snapshot, so the second boot is a warm start that replays nothing, and
// the feedback-adjusted /search answer is byte-identical.
func TestRestartSurvival(t *testing.T) {
	args := []string{"-world", "minibank", "-data-dir", t.TempDir()}
	const search = `{"query": "customers Zürich financial instruments"}`

	d := startDaemon(t, args...)
	d.call(t, http.MethodPost, "/feedback", `{"query": "customers Zürich financial instruments", "result": 1, "like": true}`)
	d.call(t, http.MethodPost, "/feedback", `{"query": "wealthy customers", "result": 0, "like": false}`)
	before := d.call(t, http.MethodPost, "/search", search)
	d.stop(t)

	d = startDaemon(t, args...)
	var health server.HealthResponse
	if err := json.Unmarshal(d.call(t, http.MethodGet, "/healthz", ""), &health); err != nil {
		t.Fatal(err)
	}
	if st := health.Store; st == nil || !st.WarmStart || st.ReplayedRecords != 0 {
		t.Errorf("second boot store = %+v, want a warm start with 0 WAL records replayed", st)
	}
	after := d.call(t, http.MethodPost, "/search", search)
	d.stop(t)
	if !bytes.Equal(before, after) {
		t.Errorf("/search changed across the restart:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestRunRejectsBadFlags: run refuses an unknown world or dialect, and
// -peers without -data-dir, before it builds a world or opens a listener.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-world", "nosuch"}, `unknown world "nosuch"`},
		{[]string{"-world", "warehouse", "-dialect", "sqlserver"}, `unknown dialect "sqlserver"`},
		{[]string{"-world", "warehouse", "-peers", "http://b:8080"}, "-peers requires -data-dir"},
	} {
		var err error
		// Building the warehouse world takes ~140k allocations; parsing
		// and checking the flags takes a few hundred.
		allocs := testing.AllocsPerRun(1, func() { err = run(tc.args) })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
		if allocs > 10000 {
			t.Errorf("run(%q) made %.0f allocations: the world was built before the flags were checked", tc.args, allocs)
		}
	}
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"soda/internal/obs"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// buildDaemon compiles cmd/sodad from the checkout at root into out.
func buildDaemon(ctx context.Context, root, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/sodad")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/sodad: %w\n%s", err, msg)
	}
	return nil
}

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is one running sodad child.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // service host:port
	debug   string // pprof host:port
	dataDir string // removed on stop; "" when the daemon runs in memory
	stderr  *lockedBuffer
	exited  chan struct{} // closed once Wait has returned
	scraper http.Client
}

// startDaemon spawns sodad and returns once /healthz answers 200. The
// benchmark picks the ports and lets sodad bind them itself; when a port
// turns out to be taken it picks another pair, so no port is ever probed
// free and then lost to someone else before the child binds it.
func startDaemon(ctx context.Context, bin, world, dataDir string) (*daemon, error) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano() + int64(os.Getpid())))
	var last error
	for attempt := 0; attempt < 8; attempt++ {
		port := 20000 + 2*rng.Intn(20000)
		d, retry, err := spawnDaemon(ctx, bin, world, dataDir, port)
		if err == nil {
			return d, nil
		}
		if !retry {
			return nil, err
		}
		last = err
	}
	return nil, fmt.Errorf("no free port pair in 8 attempts: %w", last)
}

func spawnDaemon(ctx context.Context, bin, world, dataDir string, port int) (d *daemon, retry bool, err error) {
	d = &daemon{
		addr:    "127.0.0.1:" + strconv.Itoa(port),
		debug:   "127.0.0.1:" + strconv.Itoa(port+1),
		dataDir: dataDir,
		stderr:  &lockedBuffer{},
		exited:  make(chan struct{}),
		scraper: http.Client{Timeout: 10 * time.Second},
	}
	args := []string{"-addr", d.addr, "-debug-addr", d.debug, "-world", world}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	d.cmd = exec.CommandContext(ctx, bin, args...)
	d.cmd.Stderr = d.stderr
	// If the benchmark is killed outright, the kernel takes the child too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, false, fmt.Errorf("starting sodad: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is read from ProcessState
		close(d.exited)
	}()

	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-d.exited:
			msg := d.stderr.String()
			d.stop()
			return nil, strings.Contains(msg, "address already in use"),
				fmt.Errorf("sodad exited before serving: %s", msg)
		case <-ctx.Done():
			d.stop()
			return nil, false, ctx.Err()
		default:
		}
		if resp, err := d.scraper.Get("http://" + d.addr + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			msg := d.stderr.String()
			d.stop()
			return nil, false, fmt.Errorf("sodad /healthz not 200 within 30s: %s", msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// sodad only logs a failed pprof bind, so look for that line too.
	if _, err := d.memStats(); err != nil || strings.Contains(d.stderr.String(), "debug server: listen") {
		d.stop()
		return nil, true, fmt.Errorf("sodad debug port %s unusable: %v", d.debug, err)
	}
	return d, false, nil
}

// stop ends the child (SIGTERM, then SIGKILL after 10s), waits for it
// and removes its data dir. Safe to call twice.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	if d.dataDir != "" {
		_ = os.RemoveAll(d.dataDir)
	}
}

func (d *daemon) get(url string) ([]byte, error) {
	resp, err := d.scraper.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// scrape reads /metrics into a map keyed by obs.SeriesKey.
func (d *daemon) scrape() (map[string]float64, error) {
	body, err := d.get("http://" + d.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	return obs.ParseText(bytes.NewReader(body))
}

// memStats is the part of runtime.MemStats the pprof allocs endpoint
// prints as comments.
type memStats struct {
	mallocs, totalAlloc, numGC uint64
	pauseNs                    []uint64 // ring: cycle n is at n % len
}

func (d *daemon) memStats() (memStats, error) {
	var m memStats
	body, err := d.get("http://" + d.debug + "/debug/pprof/allocs?debug=1")
	if err != nil {
		return m, err
	}
	found := 0
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok || !strings.HasPrefix(line, "# ") {
			continue
		}
		switch name {
		case "Mallocs":
			m.mallocs, err = strconv.ParseUint(val, 10, 64)
		case "TotalAlloc":
			m.totalAlloc, err = strconv.ParseUint(val, 10, 64)
		case "NumGC":
			m.numGC, err = strconv.ParseUint(val, 10, 64)
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				var ns uint64
				if ns, err = strconv.ParseUint(f, 10, 64); err != nil {
					break
				}
				m.pauseNs = append(m.pauseNs, ns)
			}
		default:
			continue
		}
		if err != nil {
			return m, fmt.Errorf("pprof allocs: %q: %w", line, err)
		}
		found++
	}
	if found != 4 || len(m.pauseNs) == 0 {
		return m, errors.New("pprof allocs: MemStats comment block not found")
	}
	return m, nil
}

// gcPauseNs sums the pauses of the GC cycles between two readings. The
// runtime keeps the last len(ring) pauses; if more cycles ran, the sum
// of those kept is scaled up to the number that ran.
func gcPauseNs(before, after memStats) float64 {
	cycles := after.numGC - before.numGC
	ring := uint64(len(after.pauseNs))
	kept := min(cycles, ring)
	var sum uint64
	for n := after.numGC - kept; n < after.numGC; n++ {
		sum += after.pauseNs[n%ring]
	}
	if kept == 0 {
		return 0
	}
	return float64(sum) * float64(cycles) / float64(kept)
}

// cpuSeconds is the child's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is the third
	// field of the line, utime the 14th, stime the 15th.
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) / clockTicks, nil
}

// peakRSSMB is the child's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

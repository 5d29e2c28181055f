package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"soda"
	"soda/internal/backend"
	"soda/internal/backend/memory"
	"soda/internal/backend/sqldb"
	"soda/internal/core"
	"soda/internal/obs"
	"soda/internal/queryparse"
	"soda/internal/server"
	"soda/internal/sqlast"
	"soda/internal/store"
)

// The traced run replays a workload's request list at successively
// deeper public entry points — socket, server.ServeHTTP, the soda facade,
// core, and single layer calls — timing every call from here, so that
// nothing is added to the program. Each in-process rung gets a fresh
// System and the full warm-up pass, and replays the list in order on one
// goroutine: the same requests meet the same cache and memo state as on
// the socket, and a malloc count over the replay belongs to that rung
// alone. Counts come from the daemon's /metrics and pprof endpoints.

// perLayer lists the metrics of the traced run, layer by layer. A
// duration is a median over the rung's calls unless its name says
// otherwise; a metric with no sample on a workload (a write latency
// where nothing writes, a pipeline step where every request hits the
// cache) is 0.
var perLayer = func() []metricDef {
	out := []metricDef{
		{"sodad.socket_self_us", "us"},
		{"sodad.latency_p99_ms", "ms"},
		{"sodad.latency_max_ms", "ms"},
		{"sodad.write_ack_p50_ms", "ms"},
		{"sodad.gc_cycles", "count"},
		{"sodad.gc_pause_ms_total", "ms"},
		{"sodad.bytes_alloc_per_op", "B"},
		{"server.handle_us", "us"},
		{"server.handle_p99_us", "us"},
		{"server.handle_self_us", "us"},
		{"server.handle_allocs_per_op", "count"},
		{"server.resp_bytes_per_op", "B"},
		{"obs.accesslog_us_per_op", "us"},
		{"obs.flight_record_ns", "ns"},
		{"obs.metrics_write_us", "us"},
		{"soda.search_us", "us"},
		{"soda.search_allocs_per_op", "count"},
		{"queryparse.parse_us", "us"},
		{"queryparse.parse_allocs_per_op", "count"},
	}
	for _, suffix := range []metricDef{{"_us", "us"}, {"_p99_us", "us"}, {"_allocs_per_op", "count"}} {
		for _, step := range coreSteps {
			out = append(out, metricDef{"core." + step + suffix.name, suffix.unit})
		}
	}
	return append(out, []metricDef{
		{"core.cache_hit_share", "ratio"},
		{"sqlast.render_us", "us"},
		{"sqlast.render_allocs_per_op", "count"},
		{"backend.memory.exec_us", "us"},
		{"backend.memory.exec_p99_us", "us"},
		{"backend.memory.exec_allocs_per_op", "count"},
		{"backend.sodalite.exec_us", "us"},
		{"backend.exec_per_op", "count"},
		{"store.wal_append_us", "us"},
		{"store.wal_append_p99_us", "us"},
		{"store.fsyncs_per_append", "ratio"},
		{"store.compactions", "count"},
		{"store.snapshot_write_ms", "ms"},
		{"store.open_cold_ms", "ms"},
		{"store.open_warm_ms", "ms"},
		{"trace.overhead_share", "ratio"},
	}...)
}()

// coreSteps are the pipeline steps in core.Timings order, under the names
// core itself uses for them.
var coreSteps = []string{"lookup", "rank", "tables", "filters", "sqlgen", "snippet"}

func stepTimings(t core.Timings) [6]time.Duration {
	return [6]time.Duration{t.Lookup, t.Rank, t.Tables, t.Filters, t.SQL, t.Snippet}
}

// Shares of the run's seconds each rung may use. The handler rung fixes
// how many requests the rungs below it replay; they do less per request,
// so they need no more time than it.
const (
	socketShare  = 0.30
	handlerShare = 0.15
	microShare   = 0.02 // each single-layer loop
)

func us(ns float64) float64 { return ns / 1e3 }

// mallocs counts the heap allocations f makes, with the collector's own
// work kept out by running it first.
func mallocs(f func()) uint64 {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// warm sends the warm-up pass through call, in order; position -1 tells
// call that the request is not timed.
func warm(in *inputs, name int, call func(rq *request, pos int64) error) error {
	for i := range in.warm {
		if err := call(&in.warm[i], -1); err != nil {
			return fmt.Errorf("%s: warm-up %s: %w", spanNames[name], in.warm[i].body, err)
		}
	}
	return nil
}

// replay sends the timed list through call from position from on, in
// order, on this goroutine, until it has made n calls or dur has passed.
// Each call is a span called name, or the name after it for a write.
// replay returns the calls made and the heap allocations they made.
func replay(in *inputs, from, n int64, dur time.Duration, tr *tracer, name int, call func(rq *request, pos int64) error) (ops int64, allocs uint64, err error) {
	allocs = mallocs(func() {
		deadline := time.Now().Add(dur)
		for ; ops < n; ops++ {
			t0 := time.Now()
			if !t0.Before(deadline) {
				return
			}
			pos := from + ops
			rq := &in.reqs[in.schedule[pos%int64(len(in.schedule))]]
			if err = call(rq, pos); err != nil {
				err = fmt.Errorf("%s: request %d (%s): %w", spanNames[name], pos, rq.body, err)
				return
			}
			span := name
			if rq.isWrite() {
				span++
			}
			tr.add(span, pos, t0, time.Now())
		}
	})
	return ops, allocs, err
}

// rung warms a fresh rung up and replays the timed list from its start.
func rung(in *inputs, n int64, dur time.Duration, tr *tracer, name int, call func(rq *request, pos int64) error) (ops int64, allocs uint64, err error) {
	if err := warm(in, name, call); err != nil {
		return 0, 0, err
	}
	return replay(in, 0, n, dur, tr, name, call)
}

// newSystem builds a System the way sodad does for the workload: default
// options, the memory backend, a state store when the workload has one,
// join-graph caches warmed.
func newSystem(in *inputs, tmp string) (*soda.System, error) {
	w := newWorld(in.world)
	var sys *soda.System
	var err error
	if in.dataDir {
		var dir string
		if dir, err = os.MkdirTemp(tmp, "data-"); err != nil {
			return nil, err
		}
		sys, err = soda.Open(w, soda.Options{}, dir)
	} else {
		sys, err = soda.Connect(w, soda.Options{})
	}
	if err != nil {
		return nil, err
	}
	sys.Warm()
	return sys, nil
}

// recorder is the ResponseWriter of the handler rung. It is reused, so
// that the allocations counted are the server's.
type recorder struct {
	header http.Header
	status int
	bytes  int64
}

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}
func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	r.bytes += int64(len(p))
	return len(p), nil
}

// requestBody is a request body that can be pointed at the next request.
type requestBody struct{ bytes.Reader }

func (*requestBody) Close() error { return nil }

// handlerCall returns a replay call that serves each request through h
// without a socket, and the recorder that counts the bytes written.
func handlerCall(h http.Handler) (func(rq *request, pos int64) error, *recorder) {
	rec := &recorder{header: make(http.Header)}
	body := &requestBody{}
	req := &http.Request{Method: http.MethodPost, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Content-Type": {"application/json"}}, Host: "sodad"}
	urls := map[string]*url.URL{"/search": {Path: "/search"}, "/feedback": {Path: "/feedback"}}
	return func(rq *request, _ int64) error {
		clear(rec.header)
		rec.status = 0
		body.Reset(rq.body)
		req.URL, req.Body, req.ContentLength = urls[rq.path], body, int64(len(rq.body))
		h.ServeHTTP(rec, req)
		if rec.status != http.StatusOK {
			return fmt.Errorf("status %d", rec.status)
		}
		return nil
	}, rec
}

// facadeBytes stands in for the response bytes at the facade rung: the
// facade caches whatever its render callback returns, and encoding the
// real response is the handler's work, not the facade's.
var facadeBytes = []byte("{}")

// facadeCall returns a replay call on the soda facade: the same
// SearchRendered the handler calls for /search, and Search plus
// Like/Dislike for /feedback.
func facadeCall(sys *soda.System) func(rq *request, pos int64) error {
	render := func(*soda.Answer) ([]byte, error) { return facadeBytes, nil }
	return func(rq *request, _ int64) error {
		if rq.isWrite() {
			ans, err := sys.Search(rq.query)
			if err != nil {
				return err
			}
			if rq.like {
				return ans.Results[0].Like()
			}
			return ans.Results[0].Dislike()
		}
		_, _, err := sys.SearchRendered(rq.query, soda.SearchOptions{Dialect: rq.dialect, Snippets: rq.snippets}, render)
		return err
	}
}

// coreRung is what the core rung collects besides its spans.
type coreRung struct {
	steps      [6][]sample      // per step: every pipeline run in the timed list
	statements []*sqlast.Select // top statement of the first analyses, for the render loop
}

// coreCall returns a replay call on a core.System. The step Timings of
// an analysis are recorded the first time the analysis is returned, that
// is when the pipeline ran rather than the cache answered.
func coreCall(cs *core.System, tr *tracer, out *coreRung, countAllocs func(*core.Analysis)) func(rq *request, pos int64) error {
	seen := make(map[*core.Analysis]bool)
	return func(rq *request, pos int64) error {
		if rq.isWrite() {
			a, err := cs.Search(rq.query)
			if err != nil {
				return err
			}
			return cs.Feedback(a.Solutions[0], rq.like)
		}
		d, _ := sqlast.DialectByName(rq.dialect)
		start := time.Now()
		a, err := cs.SearchWith(rq.query, core.SearchOptions{Dialect: d, Snippets: rq.snippets, CountAllocs: countAllocs != nil})
		if err != nil || seen[a] {
			return err
		}
		seen[a] = true
		if len(out.statements) < 500 && len(a.Solutions) > 0 && a.Solutions[0].SQL != nil {
			out.statements = append(out.statements, a.Solutions[0].SQL)
		}
		if pos < 0 {
			return nil
		}
		if countAllocs != nil {
			countAllocs(a)
		}
		for i, dur := range stepTimings(a.Timings) {
			if i == 5 && !rq.snippets {
				break
			}
			out.steps[i] = append(out.steps[i], sample{pos, int64(dur)})
			tr.add(spCoreStep+i, pos, start, start.Add(dur))
			start = start.Add(dur)
		}
		return nil
	}
}

func newCore(world string) *core.System {
	w := newWorld(world)
	cs := core.NewSystem(memory.New(w.DB()), w.Meta(), w.Index(), core.Options{})
	cs.Warm()
	return cs
}

// timeEach times f(i) for i below n, over and over until dur has passed
// and at least once, and returns the ns of every call and the mean heap
// allocations per call.
func timeEach(n int, dur time.Duration, f func(i int) error) (ns []int64, allocsPerCall float64, err error) {
	if n == 0 {
		return nil, 0, nil
	}
	allocs := mallocs(func() {
		for deadline := time.Now().Add(dur); err == nil && (len(ns) == 0 || time.Now().Before(deadline)); {
			for i := 0; i < n && err == nil; i++ {
				t0 := time.Now()
				err = f(i)
				ns = append(ns, int64(time.Since(t0)))
			}
		}
	})
	return ns, float64(allocs) / float64(len(ns)), err
}

// probeStatements returns the statements the backend loops execute on
// every workload: the top statement, with the snippet row cap, of the
// first 200 warm-up queries of the seed's snippet_exec list, on MiniBank.
func probeStatements(in *inputs, seed int64) (*backend.DB, []*sqlast.Select, error) {
	if in.workload != snippetExec {
		var err error
		if in, err = generate(snippetExec, seed); err != nil {
			return nil, nil, err
		}
	}
	w := newWorld("minibank")
	cs := core.NewSystem(memory.New(w.DB()), w.Meta(), w.Index(), core.Options{})
	var out []*sqlast.Select
	for i := range in.warm[:200] {
		a, err := cs.Search(in.warm[i].query)
		if err != nil {
			return nil, nil, err
		}
		if len(a.Solutions) == 0 || a.Solutions[0].SQL == nil {
			continue
		}
		sel := *a.Solutions[0].SQL
		if sel.Limit < 0 || sel.Limit > cs.Opt.SnippetRows {
			sel.Limit = cs.Opt.SnippetRows
		}
		out = append(out, &sel)
	}
	return w.DB(), out, nil
}

// runTraced measures the per-layer metrics of one workload.
func runTraced(ctx context.Context, e env, in *inputs, seed int64, dur time.Duration, traceOut string) (*report, error) {
	rep := &report{workload: in.workload, seed: seed, inputs: in.sha256}
	part := func(share float64) time.Duration { return time.Duration(share * float64(dur)) }
	v := make(map[string]float64) // metric values
	epoch := time.Now()

	// Socket rung: the daemon in its own process.
	d, hasResults, _, err := boot(ctx, e, in)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	if rep.problems, err = checkQuality(d, in.world); err != nil {
		return nil, err
	}
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	memBefore, err := d.memStats()
	if err != nil {
		return nil, err
	}
	clientTracers := make([]*tracer, clients())
	for i := range clientTracers {
		clientTracers[i] = newTracer(epoch)
	}
	sec, err := drive(d.addr, in, 0, part(socketShare), hasResults, clientTracers, func(int) {})
	if err != nil {
		return nil, err
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	memAfter, err := d.memStats()
	if err != nil {
		return nil, err
	}
	d.stop()
	hitShare, problems := selfCheck(in, sec, before, after)
	rep.problems = append(rep.problems, problems...)
	ops := float64(sec.ops())
	v["sodad.gc_cycles"] = float64(memAfter.numGC - memBefore.numGC)
	v["sodad.gc_pause_ms_total"] = gcPauseNs(memBefore, memAfter) / 1e6
	v["sodad.bytes_alloc_per_op"] = ratio(float64(memAfter.totalAlloc-memBefore.totalAlloc), ops)
	v["core.cache_hit_share"] = hitShare
	v["backend.exec_per_op"] = ratio(delta(before, after, backendExecs), ops)
	v["store.fsyncs_per_append"] = ratio(delta(before, after, walFsyncs), delta(before, after, walAppends))
	v["store.compactions"] = delta(before, after, compactions)
	// Tracing adds the same to every request, so its cost shows in the
	// median latency of the traced requests against the untraced ones, and
	// in a closed loop a share of latency is a share of throughput.
	var byMode [2][]int64
	for _, s := range sec.searches() {
		mode := 0
		if tracedPosition(s.pos) {
			mode = 1
		}
		byMode[mode] = append(byMode[mode], s.ns)
	}
	v["trace.overhead_share"] = 1 - ratio(quantile(byMode[0], 0.50), quantile(byMode[1], 0.50))

	// Handler rung: server.ServeHTTP in this process. It runs for its
	// share of the seconds, and the rungs below replay as many requests.
	tr := newTracer(epoch)
	sys, err := newSystem(in, e.tmp)
	if err != nil {
		return nil, err
	}
	call, rec := handlerCall(server.New(sys))
	n, allocs, err := rung(in, math.MaxInt64, part(handlerShare), tr, spHandle, call)
	if err != nil {
		return nil, err
	}
	v["server.handle_allocs_per_op"] = ratio(float64(allocs), float64(n))
	// The recorder also counted the warm-up pass; the ratio is over all
	// it served, which for a list of distinct requests changes nothing.
	v["server.resp_bytes_per_op"] = ratio(float64(rec.bytes), float64(n+int64(len(in.warm))))
	if err := obsLoops(in, sys, part(microShare), v); err != nil {
		return nil, err
	}
	if err := sys.Close(); err != nil {
		return nil, err
	}

	// Facade rung: soda.System, below the handler.
	if sys, err = newSystem(in, e.tmp); err != nil {
		return nil, err
	}
	nFacade, allocs, err := rung(in, n, 2*part(handlerShare), tr, spFacade, facadeCall(sys))
	if err != nil {
		return nil, err
	}
	if err := sys.Close(); err != nil {
		return nil, err
	}
	v["soda.search_allocs_per_op"] = ratio(float64(allocs), float64(nFacade))

	// Core rung: the pipeline's own step Timings. Then the same System
	// goes on down the list with one worker and allocation counting on:
	// a MemStats delta around a step is exact when nothing runs beside it.
	var cr coreRung
	cs := newCore(in.world)
	nCore, _, err := rung(in, n, 2*part(handlerShare), tr, spCore, coreCall(cs, tr, &cr, nil))
	if err != nil {
		return nil, err
	}
	var stepAllocs [6][]float64
	cs.Opt.Parallelism = 1
	counted := coreCall(cs, nil, &coreRung{}, func(a *core.Analysis) {
		for i, step := range coreSteps {
			if n, ok := a.StepAllocs[step]; ok {
				stepAllocs[i] = append(stepAllocs[i], float64(n))
			}
		}
	})
	if _, _, err = replay(in, nCore, n, part(handlerShare), nil, spCore, counted); err != nil {
		return nil, err
	}

	// Every timing of the ladder is taken over the requests all rungs
	// replayed, so that each rung met them in the same cache and memo
	// state and the differences between rungs are the layers' own.
	common := min(sec.next, n, nFacade, nCore)
	client := nsBelow(sec.searches(), common)
	clientP50 := quantile(client, 0.50)
	v["sodad.latency_p99_ms"] = quantile(client, 0.99) / 1e6
	v["sodad.latency_max_ms"] = quantile(client, 1) / 1e6
	v["sodad.write_ack_p50_ms"] = quantile(nsBelow(sec.writes(), common), 0.50) / 1e6
	handle := tr.durations(spHandle, common)
	v["server.handle_us"] = us(quantile(handle, 0.50))
	v["server.handle_p99_us"] = us(quantile(handle, 0.99))
	v["soda.search_us"] = us(quantile(tr.durations(spFacade, common), 0.50))
	// The ledger closes by construction: the three self times sum to the
	// client's median.
	v["sodad.socket_self_us"] = us(clientP50) - v["server.handle_us"]
	v["server.handle_self_us"] = v["server.handle_us"] - v["soda.search_us"]
	for i, step := range coreSteps {
		ns := nsBelow(cr.steps[i], common)
		v["core."+step+"_us"] = us(quantile(ns, 0.50))
		v["core."+step+"_p99_us"] = us(quantile(ns, 0.99))
		sum := 0.0
		for _, a := range stepAllocs[i] {
			sum += a
		}
		v["core."+step+"_allocs_per_op"] = ratio(sum, float64(len(stepAllocs[i])))
	}

	rendered, err := layerLoops(ctx, in, seed, cr.statements, part(microShare), v)
	if err != nil {
		return nil, err
	}
	if err := storeRung(in.world, e.tmp, part(microShare), v); err != nil {
		return nil, err
	}

	rep.Metrics = make(map[string]metric)
	for _, m := range perLayer {
		rep.Metrics[m.name] = metric{v[m.name], m.unit}
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("requests replayed by every rung: %d (socket %d, handler %d, facade %d, core %d); pipeline runs among them %d; rendered %d bytes",
			common, sec.next, n, nFacade, nCore, len(nsBelow(cr.steps[0], common)), rendered),
		fmt.Sprintf("ledger: client p50 %.3f us = socket self %.3f + handler self %.3f + facade %.3f",
			us(clientP50), v["sodad.socket_self_us"], v["server.handle_self_us"], v["soda.search_us"]))
	rep.finish(sec)
	if traceOut != "" {
		spans := tr.spans
		for _, ct := range clientTracers {
			spans = append(spans, ct.spans...)
		}
		data, err := json.Marshal(spans)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(traceOut, data, 0o644); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// obsLoops times what the telemetry around a request costs, on the
// handler rung's System after its replay.
func obsLoops(in *inputs, sys *soda.System, dur time.Duration, v map[string]float64) error {
	ns, _, err := timeEach(1, dur, func(int) error { return sys.Metrics().WriteText(io.Discard) })
	if err != nil {
		return err
	}
	v["obs.metrics_write_us"] = us(quantile(ns, 0.50))

	// The access log is the difference between two servers over the same
	// System, one with the log on, serving cache hits in alternating
	// blocks.
	var hits []*request
	for i := range in.reqs {
		if !in.reqs[i].isWrite() && len(hits) < 100 {
			hits = append(hits, &in.reqs[i])
		}
	}
	calls := [2]func(*request, int64) error{}
	calls[0], _ = handlerCall(server.New(sys))
	calls[1], _ = handlerCall(server.NewWith(sys, server.Config{AccessLog: io.Discard}))
	for _, rq := range hits { // fill the cache
		if err := calls[0](rq, -1); err != nil {
			return err
		}
	}
	var perOp [2][]int64 // per block: mean ns per request
	for deadline, block := time.Now().Add(dur), 0; time.Now().Before(deadline); block++ {
		t0 := time.Now()
		for _, rq := range hits {
			if err := calls[block%2](rq, -1); err != nil {
				return err
			}
		}
		perOp[block%2] = append(perOp[block%2], int64(time.Since(t0))/int64(len(hits)))
	}
	v["obs.accesslog_us_per_op"] = us(quantile(perOp[1], 0.50) - quantile(perOp[0], 0.50))

	flight := obs.NewFlightRecorder(0, time.Millisecond, 20*time.Millisecond)
	rec := obs.FlightSample{TraceID: "0af7651916cd43dd8448eb211c80319c", RequestID: "3f9ac2d1-000042", Method: "POST",
		Path: "/search", Status: 200, Start: time.Now(), Dur: 100 * time.Microsecond, Outcome: "hit", Query: hits[0].query, Backend: "memory"}
	const batch = 1000
	ns, _, _ = timeEach(1, dur, func(int) error {
		for i := 0; i < batch; i++ {
			flight.Record(rec)
		}
		return nil
	})
	v["obs.flight_record_ns"] = quantile(ns, 0.50) / batch
	return nil
}

// layerLoops times single layers on their own: the parser on the
// workload's queries, the renderer on the statements the core rung
// produced, and the two backends on the probe statements. It returns the
// bytes rendered, which keeps the render calls alive.
func layerLoops(ctx context.Context, in *inputs, seed int64, statements []*sqlast.Select, dur time.Duration, v map[string]float64) (rendered int, err error) {
	var queries []string
	for i := range in.reqs {
		if !in.reqs[i].isWrite() && len(queries) < 2000 {
			queries = append(queries, in.reqs[i].query)
		}
	}
	ns, perCall, err := timeEach(len(queries), dur, func(i int) error {
		_, err := queryparse.Parse(queries[i])
		return err
	})
	if err != nil {
		return 0, err
	}
	v["queryparse.parse_us"], v["queryparse.parse_allocs_per_op"] = us(quantile(ns, 0.50)), perCall

	var ds []*sqlast.Dialect
	for _, name := range dialects {
		d, _ := sqlast.DialectByName(name)
		ds = append(ds, d)
	}
	ns, perCall, _ = timeEach(len(statements)*len(ds), dur, func(i int) error {
		rendered += len(statements[i/len(ds)].Render(ds[i%len(ds)]))
		return nil
	})
	v["sqlast.render_us"], v["sqlast.render_allocs_per_op"] = us(quantile(ns, 0.50)), perCall

	db, stmts, err := probeStatements(in, seed)
	if err != nil {
		return 0, err
	}
	mem := memory.New(db)
	ns, perCall, err = timeEach(len(stmts), dur, func(i int) error {
		_, err := mem.Exec(ctx, stmts[i])
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("backend.memory: %w", err)
	}
	v["backend.memory.exec_us"], v["backend.memory.exec_p99_us"] = us(quantile(ns, 0.50)), us(quantile(ns, 0.99))
	v["backend.memory.exec_allocs_per_op"] = perCall
	lite, err := sqldb.Open("sodalite", ":memory:", sqlast.Generic)
	if err != nil {
		return 0, err
	}
	defer lite.Close()
	if err := lite.Load(ctx, db); err != nil {
		return 0, err
	}
	ns, _, err = timeEach(len(stmts), dur, func(i int) error {
		_, err := lite.Exec(ctx, stmts[i])
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("backend.sodalite: %w", err)
	}
	v["backend.sodalite.exec_us"] = us(quantile(ns, 0.50))
	return rendered, nil
}

// storeRung times the state store on its own: WAL appends, and a cold
// open, a snapshot and a warm open of the workload's world.
func storeRung(world, tmp string, dur time.Duration, v map[string]float64) error {
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	seq := uint64(0)
	ns, _, err := timeEach(1, dur, func(int) error {
		seq++
		_, err := st.Append(store.Record{Origin: "bench", OriginSeq: seq, LC: seq, Op: store.OpLike,
			Keys: []store.Key{{Node: "http://soda/bench/node"}, {Table: "party_td", Column: "id"}}})
		return err
	})
	if err := errors.Join(err, st.Close()); err != nil {
		return err
	}
	v["store.wal_append_us"], v["store.wal_append_p99_us"] = us(quantile(ns, 0.50)), us(quantile(ns, 0.99))

	var cold, snap, warm []float64
	for i := 0; i < 3; i++ {
		data := filepath.Join(dir, fmt.Sprintf("open-%d", i))
		w := newWorld(world)
		t0 := time.Now()
		sys, err := soda.Open(w, soda.Options{}, data)
		if err != nil {
			return err
		}
		cold = append(cold, float64(time.Since(t0))/1e6)
		t0 = time.Now()
		if _, err := sys.Snapshot(); err != nil {
			return err
		}
		snap = append(snap, float64(time.Since(t0))/1e6)
		if err := sys.Close(); err != nil {
			return err
		}
		w = newWorld(world)
		t0 = time.Now()
		if sys, err = soda.Open(w, soda.Options{}, data); err != nil {
			return err
		}
		warm = append(warm, float64(time.Since(t0))/1e6)
		if err := sys.Close(); err != nil {
			return err
		}
	}
	v["store.open_cold_ms"], v["store.snapshot_write_ms"], v["store.open_warm_ms"] = median(cold), median(snap), median(warm)
	return nil
}

// Package server exposes a soda.System as a JSON HTTP API — the serving
// layer that turns the library into the self-service search box the paper
// targets (§1: business users query the warehouse themselves). One Server
// wraps one shared System; the System is safe for concurrent use, so the
// handler serves requests in parallel and hot repeated queries are
// answered from the core answer cache.
//
// Routes:
//
//	GET  /healthz          liveness + world name + cache/execution/store/cluster counters
//	GET  /metrics          Prometheus text exposition of the full metric registry
//	GET  /debug/requests   flight recorder: recent + slow/error request traces
//	                       (?id=<trace or request id> for one trace's spans)
//	POST /search           {"query": "...", "snippets": true?, "dialect": "db2"?} -> ranked SQL
//	POST /sql              {"sql": "...", "dialect": "mysql"?} -> rows (exploration, §5.3.2)
//	GET  /browse/{table}   schema-browser view of one physical table
//	POST /feedback         {"query": "...", "result": 0, "like": true}
//	GET  /explain?q=...    text/plain pipeline trace (Figures 4-6)
//	GET  /admin/queries    list the saved-query library
//	PUT  /admin/queries/{name}
//	                       register an approved parameterized query
//	GET  /admin/queries/{name}
//	                       fetch one saved query
//	DELETE /admin/queries/{name}
//	                       remove a saved query
//	POST /admin/snapshot   persist durable state + compact the feedback WAL
//	POST /admin/decommission?replica=<id>
//	                       remove a dead peer from the feedback fold quorum
//	GET  /cluster/pull     replication pull: feedback records beyond the
//	                       caller's vector (?since=origin:seq,...&from=id)
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"soda"
	"soda/internal/obs"
)

// maxBodyBytes caps request bodies; queries and SQL are tiny.
const maxBodyBytes = 1 << 20

// queuePerSlot sizes the /search admission queue: with MaxInflight set,
// up to queuePerSlot×MaxInflight requests wait for a slot before any is
// shed.
const queuePerSlot = 2

// The server's latency SLO: a cache-hit /search answers within 1ms, every
// other request within 20ms. A request over its threshold is logged to
// the slow-query log, counted in soda_slow_requests_total and pinned in
// the flight recorder, which owns the outcome → threshold decision.
const (
	sloHit  = time.Millisecond
	sloCold = 20 * time.Millisecond
)

// LatencySummary re-exports the /healthz latency-distribution shape
// (promoted into internal/obs; the JSON contract is unchanged).
type LatencySummary = obs.LatencySummary

// Server is the HTTP serving layer over one shared soda.System.
type Server struct {
	sys   *soda.System
	mux   *http.ServeMux
	start time.Time
	log   *obs.Logger // component-tagged diagnostics ("server: ...")

	// Admission control for /search (nil inflight = unlimited): inflight
	// is a counting semaphore over executing searches and queue bounds
	// how many more may wait for a slot; anything beyond gets an
	// immediate 503 with Retry-After, so saturation degrades into fast,
	// explicit shedding instead of an unbounded goroutine pile-up.
	inflight chan struct{}
	queue    chan struct{}

	// Cache-hit vs cold /search service time, registered in the System's
	// metric registry (soda_search_latency_seconds{outcome}) and surfaced
	// in /healthz (search_latency) against the SLO (sloHit, sloCold).
	// Pointers resolved once at construction — the hit path records
	// through direct atomics, no registry lookups.
	hitLat    *obs.Histogram
	coldLat   *obs.Histogram
	reqHit    *obs.Counter // soda_search_requests_total{outcome="hit"}
	reqCold   *obs.Counter // soda_search_requests_total{outcome="cold"}
	shed      *obs.Counter // soda_search_shed_total
	accessLog *accessLogger
	reqIDs    requestIDs

	// Flight recorder + slow-query accounting: every request is recorded;
	// over-SLO /search requests additionally bump soda_slow_requests_total
	// and emit one structured slow-query log line.
	flight    *obs.FlightRecorder
	slowHit   *obs.Counter // soda_slow_requests_total{outcome="hit"}
	slowCold  *obs.Counter // soda_slow_requests_total{outcome="cold"}
	slowOther *obs.Counter // soda_slow_requests_total{outcome="other"}
	slowLog   *obs.Logger
	backendID string
}

// Config tunes the serving layer. The zero value serves like the
// pre-Config server: no admission limit, silent logging, metrics on.
type Config struct {
	// MaxInflight caps concurrently executing /search requests
	// (the daemon's -max-inflight flag); 0 means unlimited. Up to
	// 2×MaxInflight more (queuePerSlot) wait for a slot before load
	// shedding starts.
	MaxInflight int
	// Logf receives serving diagnostics — response-write failures, encode
	// errors. nil is silent.
	Logf func(format string, args ...any)
	// AccessLog, when set, receives the structured request log: one JSON
	// line per request (request id, method, path, dialect, cache outcome,
	// per-step pipeline timings, status, bytes, duration). Writes are
	// serialized; the writer need not be concurrency-safe.
	AccessLog io.Writer
	// DisableMetrics hides GET /metrics (the daemon's -metrics=false).
	// Instruments still record — only the exposition route is gated.
	DisableMetrics bool
}

// New builds a Server over sys with default Config.
func New(sys *soda.System) *Server { return NewWith(sys, Config{}) }

// NewWith builds a Server over sys with explicit serving configuration.
func NewWith(sys *soda.System, cfg Config) *Server {
	s := &Server{sys: sys, mux: http.NewServeMux(), start: time.Now(),
		log: obs.NewLogger(cfg.Logf).With("server")}
	reg := sys.Metrics()
	outcome := func(v string) obs.Label { return obs.Label{Name: "outcome", Value: v} }
	s.hitLat = reg.Histogram("soda_search_latency_seconds",
		"/search service time by cache outcome.", outcome("hit"))
	s.coldLat = reg.Histogram("soda_search_latency_seconds",
		"/search service time by cache outcome.", outcome("cold"))
	s.reqHit = reg.Counter("soda_search_requests_total",
		"/search requests served, by cache outcome.", outcome("hit"))
	s.reqCold = reg.Counter("soda_search_requests_total",
		"/search requests served, by cache outcome.", outcome("cold"))
	s.shed = reg.Counter("soda_search_shed_total",
		"/search requests shed with 503 (admission queue full).")
	s.slowHit = reg.Counter("soda_slow_requests_total",
		"Requests that exceeded their SLO threshold, by cache outcome.", outcome("hit"))
	s.slowCold = reg.Counter("soda_slow_requests_total",
		"Requests that exceeded their SLO threshold, by cache outcome.", outcome("cold"))
	s.slowOther = reg.Counter("soda_slow_requests_total",
		"Requests that exceeded their SLO threshold, by cache outcome.", outcome("other"))
	s.backendID = sys.Backend()
	// Build identity as a constant-1 gauge: scrapes can tell replicas'
	// versions apart during rolling upgrades by label, not value.
	reg.Gauge("soda_build_info", "Build and corpus identity (value is always 1).",
		obs.Label{Name: "go_version", Value: runtime.Version()},
		obs.Label{Name: "corpus", Value: sys.World().Name()},
		obs.Label{Name: "backend", Value: s.backendID},
		obs.Label{Name: "replica", Value: sys.ReplicaID()},
	).Set(1)
	s.flight = obs.NewFlightRecorder(0, sloHit, sloCold)
	s.slowLog = obs.NewLogger(cfg.Logf).With("server/slow")
	if cfg.AccessLog != nil {
		s.accessLog = &accessLogger{w: cfg.AccessLog}
	}
	s.reqIDs.init()
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
		s.queue = make(chan struct{}, queuePerSlot*cfg.MaxInflight)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if !cfg.DisableMetrics {
		s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	s.mux.HandleFunc("POST /search", s.handleSearch)
	s.mux.HandleFunc("POST /sql", s.handleSQL)
	s.mux.HandleFunc("GET /browse/{table}", s.handleBrowse)
	s.mux.HandleFunc("POST /feedback", s.handleFeedback)
	s.mux.HandleFunc("GET /explain", s.handleExplain)
	s.mux.HandleFunc("GET /admin/queries", s.handleQueryList)
	s.mux.HandleFunc("PUT /admin/queries/{name}", s.handleQueryPut)
	s.mux.HandleFunc("GET /admin/queries/{name}", s.handleQueryGet)
	s.mux.HandleFunc("DELETE /admin/queries/{name}", s.handleQueryDelete)
	s.mux.HandleFunc("POST /admin/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /admin/decommission", s.handleDecommission)
	s.mux.HandleFunc("GET /cluster/pull", s.handleClusterPull)
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	return s
}

// traceparentKey is the traceparent header's canonical form: looking the
// header up by it does not canonicalise the name, an allocation, on every
// request.
var traceparentKey = http.CanonicalHeaderKey(obs.TraceparentHeader)

// ServeHTTP implements http.Handler. Every request gets an id and a W3C
// trace context — adopted from a valid inbound `traceparent` header, or
// freshly minted — so one trace id follows a query across the fleet.
// X-Request-Id echoes the trace id when one was propagated in (the
// caller's correlation key) and the local request id otherwise. After the
// handler returns, the request's record is built exactly once and read by
// all three outputs — the flight recorder, the slow-query log and (when
// on) the access log — so they agree on status, duration and trace id.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.ContentLength < 0 || r.ContentLength > maxBodyBytes {
		// net/http already stops a body of known length at that length.
		// Leaving such a body unwrapped also lets net/http see that
		// decodeBody closed it, so it does not discard the rest.
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	}
	info := &requestInfo{statusWriter: statusWriter{ResponseWriter: w},
		id: s.reqIDs.next(), start: time.Now()}
	tc, propagated := obs.ParseTraceparent(r.Header.Get(traceparentKey))
	if propagated {
		info.reqIDHdr[0] = tc.TraceID
	} else {
		tc = obs.MintTraceContext()
		info.reqIDHdr[0] = info.id
	}
	info.ctx = requestContext{info: info, ActiveContext: obs.ActiveContext{
		Context: r.Context(), Active: obs.ActiveTrace{TC: tc, Spans: &info.tr}}}
	w.Header()["X-Request-Id"] = info.reqIDHdr[:]
	panicked := s.serveRecovered(info, r.WithContext(&info.ctx))

	status := info.status
	switch {
	case panicked:
		status = http.StatusInternalServerError
	case status == 0:
		status = http.StatusOK // handler wrote nothing: net/http sends 200
	}
	info.mu.Lock()
	sample := obs.FlightSample{
		TraceID:   info.ctx.Active.TC.TraceID,
		RequestID: info.id,
		Method:    r.Method,
		Path:      r.URL.Path,
		Status:    status,
		Start:     info.start,
		Dur:       time.Since(info.start),
		Dialect:   info.dialect,
		Outcome:   info.outcome,
		Query:     info.query,
		SQL:       info.sqlText,
		Backend:   s.backendID,
	}
	info.mu.Unlock()
	if info.tr.Len() > 0 {
		sample.Spans = info.tr.Spans()
	}
	s.finish(&sample)
	if s.accessLog != nil {
		s.accessLog.write(&sample, info.bytes)
	}
}

// serveRecovered routes one request and turns a handler panic — including
// one forEachSolution re-panics from a snippet worker — into a 500 with the
// JSON error envelope, if nothing was written yet, and a log line with
// the stack. It reports whether the handler panicked, so the request is
// recorded as a 500 either way. http.ErrAbortHandler is re-panicked: it
// is net/http's signal to abort the response.
func (s *Server) serveRecovered(w *requestInfo, r *http.Request) (panicked bool) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		if v == http.ErrAbortHandler {
			panic(v)
		}
		panicked = true
		s.log.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
		if w.status == 0 {
			s.writeError(w, r, http.StatusInternalServerError, errors.New("internal error"))
		}
	}()
	s.mux.ServeHTTP(w, r)
	return false
}

// slowQueryLine is one structured slow-query log record, emitted through
// the diagnostics logger (component "server/slow") when a request
// exceeds its SLO threshold.
type slowQueryLine struct {
	TraceID   string             `json:"trace_id"`
	RequestID string             `json:"request_id"`
	Method    string             `json:"method"`
	Path      string             `json:"path"`
	Status    int                `json:"status"`
	DurUs     float64            `json:"dur_us"`
	SLOUs     float64            `json:"slo_us"`
	Dialect   string             `json:"dialect,omitempty"`
	Cache     string             `json:"cache,omitempty"`
	Query     string             `json:"query,omitempty"`
	SQL       string             `json:"sql,omitempty"`
	Steps     map[string]float64 `json:"steps,omitempty"`
}

// finish records the completed request in the flight recorder and, when
// it exceeded its SLO threshold, bumps soda_slow_requests_total and
// writes the slow-query log line.
func (s *Server) finish(sample *obs.FlightSample) {
	slo := s.flight.Record(*sample)
	if slo == 0 {
		return
	}
	switch sample.Outcome {
	case "hit":
		s.slowHit.Inc()
	case "cold":
		s.slowCold.Inc()
	default:
		s.slowOther.Inc()
	}
	line := slowQueryLine{
		TraceID:   sample.TraceID,
		RequestID: sample.RequestID,
		Method:    sample.Method,
		Path:      sample.Path,
		Status:    sample.Status,
		DurUs:     float64(sample.Dur) / float64(time.Microsecond),
		SLOUs:     float64(slo) / float64(time.Microsecond),
		Dialect:   sample.Dialect,
		Cache:     sample.Outcome,
		Query:     sample.Query,
		SQL:       sample.SQL,
		Steps:     stepsUs(sample.Spans),
	}
	if data, err := json.Marshal(line); err == nil {
		s.slowLog.Printf("%s", data)
	}
}

// stepsUs renders a request's trace spans as the "<name>_us" map the
// slow-query and access-log lines carry; nil (omitted) without spans.
func stepsUs(spans []obs.Span) map[string]float64 {
	if len(spans) == 0 {
		return nil
	}
	steps := make(map[string]float64, len(spans))
	for _, sp := range spans {
		steps[sp.Name+"_us"] = float64(sp.Dur) / float64(time.Microsecond)
	}
	return steps
}

// errorResponse is the uniform error envelope. RequestID echoes the
// X-Request-Id header so a client error report can be matched against the
// server's request log.
type errorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// encodeJSON renders v the way responses are framed: no HTML escaping
// (generated SQL contains < and >), trailing newline. Encoding into a
// buffer — instead of straight onto the wire — is what lets writeJSON
// surface encode failures as a clean 500 and is the byte source the
// rendered-answer cache stores.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// jsonContentType is every JSON response's Content-Type value, shared so
// that setting it allocates nothing. Nothing writes into a header value
// in place, so sharing is safe.
var jsonContentType = []string{"application/json"}

// writeRaw writes pre-encoded JSON with an exact Content-Length. A write
// failure means the client went away mid-response; it is logged, not
// retried.
func (s *Server) writeRaw(w http.ResponseWriter, status int, data []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	if info, ok := w.(*requestInfo); ok {
		info.lenHdr[0] = strconv.Itoa(len(data))
		h["Content-Length"] = info.lenHdr[:]
	} else {
		h.Set("Content-Length", strconv.Itoa(len(data)))
	}
	w.WriteHeader(status)
	if _, err := w.Write(data); err != nil {
		s.log.Printf("writing response: %v", err)
	}
}

// writeJSON encodes v to a buffer first, so an encode failure becomes a
// clean 500 instead of a 200 status already on the wire followed by
// truncated JSON, then writes it with Content-Length.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := encodeJSON(v)
	if err != nil {
		s.log.Printf("encoding %T response: %v", v, err)
		http.Error(w, `{"error":"internal: response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	s.writeRaw(w, status, data)
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	resp := errorResponse{Error: err.Error()}
	if info := requestInfoFrom(r); info != nil {
		resp.RequestID = info.id
	}
	s.writeJSON(w, status, resp)
}

// handleMetrics serves the registry in Prometheus text format — every
// instrument in the process: pipeline steps, cache, backend executions,
// store WAL/snapshot timings, cluster replication lag, serving latency.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := s.sys.Metrics().WriteText(&buf); err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", obs.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.log.Printf("writing metrics response: %v", err)
	}
}

// errTrailingData rejects a request body with more than one JSON value.
var errTrailingData = errors.New("data after the JSON value")

// decodeBody parses the JSON request body into v: one JSON value, with
// nothing but whitespace after it. It reads the body to EOF and closes
// it, so net/http has nothing left to discard after the handler.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			_ = r.Body.Close()
			return true
		}
		var syntaxErr *json.SyntaxError
		if err == nil || errors.As(err, &syntaxErr) {
			err = errTrailingData
		}
	}
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		s.writeError(w, r, http.StatusRequestEntityTooLarge, err)
		return false
	}
	s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
	return false
}

// admit reserves an inflight slot for one /search, waiting in the bounded
// queue when the server is saturated. false means the request should be
// shed with 503 + Retry-After (or the client went away while queued).
func (s *Server) admit(r *http.Request) bool {
	if s.inflight == nil {
		return true
	}
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
	}
	select {
	case s.queue <- struct{}{}:
	default:
		return false // queue full too: shed
	}
	defer func() { <-s.queue }()
	select {
	case s.inflight <- struct{}{}:
		return true
	case <-r.Context().Done():
		return false
	}
}

func (s *Server) release() {
	if s.inflight != nil {
		<-s.inflight
	}
}

package server

// The read-only diagnostic routes: /healthz (further down) and
// GET /debug/requests — the flight recorder's HTTP face. The list view
// returns the recorder's health summary plus recent and retained
// slow/error traces, newest first; ?id=<trace or request id> returns one
// trace in full: per-step pipeline spans, backend-execution spans, the
// resolved SQL, cache outcome and backend identity. This is the
// "why was that query slow" endpoint — the per-request counterpart of
// the aggregate /metrics histograms.

import (
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"soda"
	"soda/internal/obs"
)

// DebugRequestsResponse is the GET /debug/requests list payload.
type DebugRequestsResponse struct {
	FlightRecorder obs.FlightStats   `json:"flight_recorder"`
	Requests       []obs.FlightEntry `json:"requests"`
}

// defaultDebugRequestLimit caps the list view; ?limit= overrides.
const defaultDebugRequestLimit = 100

func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if id := q.Get("id"); id != "" {
		entry, ok := s.flight.Get(id)
		if !ok {
			s.writeError(w, r, http.StatusNotFound,
				fmt.Errorf("no retained trace with id %q (the ring may have churned past it)", id))
			return
		}
		s.writeJSON(w, http.StatusOK, entry)
		return
	}
	limit := defaultDebugRequestLimit
	if ls := q.Get("limit"); ls != "" {
		l, err := strconv.Atoi(ls)
		if err != nil || l <= 0 {
			s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad limit %q", ls))
			return
		}
		limit = l
	}
	s.writeJSON(w, http.StatusOK, DebugRequestsResponse{
		FlightRecorder: s.flight.Stats(),
		Requests:       s.flight.List(limit),
	})
}

// --- /healthz ---------------------------------------------------------

// HealthResponse is the healthz payload.
type HealthResponse struct {
	Status        string          `json:"status"`
	World         string          `json:"world"`
	Tables        int             `json:"tables"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	Cache         soda.CacheStats `json:"cache"`
	// Backend identifies the execution backend generated SQL runs on
	// ("memory", "sqldb:pgwire:…"); Executions counts the statements that
	// backend has run for this System — together with the cache counters
	// it shows how much work snippet caching saves, per backend.
	Backend    string `json:"backend"`
	Executions uint64 `json:"executions"`
	// Dialects lists the SQL dialects accepted in the per-request
	// "dialect" field of /search and /sql.
	Dialects []string `json:"dialects"`
	// Store describes the persistent state store (WAL size, snapshot,
	// whether durable state came from a snapshot); absent when the daemon
	// runs without -data-dir.
	Store *soda.StoreStats `json:"store,omitempty"`
	// Cluster describes the replication state: this replica's id and
	// applied vector, plus per-peer lag (records behind, last contact).
	// Absent without -data-dir; present with an empty peer list for a
	// single persistent replica (it can still be pulled from).
	Cluster *soda.ClusterStatus `json:"cluster,omitempty"`
	// SearchLatency reports /search service-time percentiles since boot,
	// split cache-hit vs cold (full pipeline), to be read against the
	// server's SLO (sloHit, sloCold).
	SearchLatency SearchLatency `json:"search_latency"`
	// Build identifies this replica's build — the JSON twin of the
	// soda_build_info gauge, for telling replicas apart during rolling
	// upgrades.
	Build BuildInfo `json:"build"`
	// FlightRecorder summarizes the /debug/requests ring: capacity,
	// retained traces, notable (over-SLO / 5xx) traces, drops and the
	// slowest trace id seen since boot.
	FlightRecorder obs.FlightStats `json:"flight_recorder"`
}

// BuildInfo identifies the running build on /healthz.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Corpus    string `json:"corpus"`
	Backend   string `json:"backend"`
	Replica   string `json:"replica,omitempty"`
}

// SearchLatency splits /search service time by cache outcome.
type SearchLatency struct {
	Hit  LatencySummary `json:"hit"`
	Cold LatencySummary `json:"cold"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		World:         s.sys.World().Name(),
		Tables:        len(s.sys.World().TableNames()),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Cache:         s.sys.CacheStats(),
		Backend:       s.sys.Backend(),
		Executions:    s.sys.ExecCount(),
		Dialects:      soda.Dialects(),
		Store:         s.sys.StoreStats(),
		Cluster:       s.sys.ClusterStatus(),
		SearchLatency: SearchLatency{Hit: s.hitLat.Summary(), Cold: s.coldLat.Summary()},
		Build: BuildInfo{
			GoVersion: runtime.Version(),
			Corpus:    s.sys.World().Name(),
			Backend:   s.backendID,
			Replica:   s.sys.ReplicaID(),
		},
		FlightRecorder: s.flight.Stats(),
	})
}

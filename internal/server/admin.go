package server

// The operator routes under /admin: manual snapshots and the saved-query
// library, with the library's wire types. (/admin/decommission lives
// with the replication routes in cluster.go.)

import (
	"fmt"
	"net/http"

	"soda"
)

// --- /admin/snapshot --------------------------------------------------

// SnapshotResponse reports the store state after a manual snapshot.
type SnapshotResponse struct {
	OK    bool            `json:"ok"`
	Store soda.StoreStats `json:"store"`
}

// handleSnapshot persists the current durable state and compacts the
// feedback WAL — the operational hook for "flush before maintenance".
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	st, err := s.sys.Snapshot()
	if err != nil {
		s.writeError(w, r, http.StatusConflict, err)
		return
	}
	s.writeJSON(w, http.StatusOK, SnapshotResponse{OK: true, Store: *st})
}

// --- /admin/queries -----------------------------------------------------

// QueryListResponse is the GET /admin/queries payload.
type QueryListResponse struct {
	Queries []soda.SavedQuery `json:"queries"`
}

// QueryPutResponse confirms a registration.
type QueryPutResponse struct {
	OK    bool            `json:"ok"`
	Query soda.SavedQuery `json:"query"`
}

// QueryDeleteResponse confirms a removal.
type QueryDeleteResponse struct {
	OK   bool   `json:"ok"`
	Name string `json:"name"`
}

// handleQueryPut registers (or replaces) a saved query under the path
// name. The registration is validated — parse, placeholder/spec
// agreement, default values — before it is accepted, so a 200 means the
// query will compile on every replica. The record replicates through the
// cluster like any feedback write.
func (s *Server) handleQueryPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var q soda.SavedQuery
	if !s.decodeBody(w, r, &q) {
		return
	}
	if q.Name != "" && q.Name != name {
		s.writeError(w, r, http.StatusBadRequest,
			fmt.Errorf("body name %q does not match path name %q", q.Name, name))
		return
	}
	q.Name = name
	if err := s.sys.RegisterQuery(q); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	stored, _ := s.sys.SavedQuery(name)
	s.log.Printf("saved query %q registered (%d params)", name, len(stored.Params))
	s.writeJSON(w, http.StatusOK, QueryPutResponse{OK: true, Query: stored})
}

func (s *Server) handleQueryGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	q, ok := s.sys.SavedQuery(name)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf("no saved query %q", name))
		return
	}
	s.writeJSON(w, http.StatusOK, q)
}

func (s *Server) handleQueryDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.sys.DeleteSavedQuery(name); err != nil {
		s.writeError(w, r, http.StatusNotFound, err)
		return
	}
	s.log.Printf("saved query %q deleted", name)
	s.writeJSON(w, http.StatusOK, QueryDeleteResponse{OK: true, Name: name})
}

func (s *Server) handleQueryList(w http.ResponseWriter, r *http.Request) {
	// An empty library lists as an empty array, not null.
	s.writeJSON(w, http.StatusOK, QueryListResponse{Queries: append([]soda.SavedQuery{}, s.sys.SavedQueries()...)})
}

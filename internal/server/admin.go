package server

// The operator routes under /admin: manual snapshots and the saved-query
// library, with the library's wire types. (/admin/fleet/metrics lives in
// fleet.go, /admin/decommission with the replication routes in
// cluster.go.)

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

// handleSnapshot persists the current derived state and compacts the
// feedback WAL — the operational hook for "flush before maintenance" and
// for pre-baking warm snapshots on a running daemon.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	st, err := s.sys.Snapshot()
	if err != nil {
		s.writeError(w, r, http.StatusConflict, err)
		return
	}
	s.writeJSON(w, http.StatusOK, SnapshotResponse{OK: true, Store: *st})
}

// --- /admin/queries -----------------------------------------------------

// SavedParamJSON is one parameter spec of a saved query on the wire.
// Default is a pointer so "no default" (parameter required) and "default
// is the empty string" stay distinguishable.
type SavedParamJSON struct {
	Name    string  `json:"name"`
	Type    string  `json:"type"`
	Default *string `json:"default,omitempty"`
}

// SavedQueryJSON is one library entry on the wire. SQL is the
// parameterized statement in the generic dialect with $1..$n
// placeholders in occurrence order; Params describes each placeholder.
type SavedQueryJSON struct {
	Name        string           `json:"name"`
	Description string           `json:"description,omitempty"`
	SQL         string           `json:"sql"`
	Params      []SavedParamJSON `json:"params,omitempty"`
}

// QueryListResponse is the GET /admin/queries payload.
type QueryListResponse struct {
	Queries []SavedQueryJSON `json:"queries"`
}

// QueryPutResponse confirms a registration.
type QueryPutResponse struct {
	OK    bool           `json:"ok"`
	Query SavedQueryJSON `json:"query"`
}

// QueryDeleteResponse confirms a removal.
type QueryDeleteResponse struct {
	OK   bool   `json:"ok"`
	Name string `json:"name"`
}

func savedQueryJSON(q soda.SavedQuery) SavedQueryJSON {
	out := SavedQueryJSON{Name: q.Name, Description: q.Description, SQL: q.SQL}
	for _, p := range q.Params {
		pj := SavedParamJSON{Name: p.Name, Type: p.Type}
		if p.HasDefault {
			d := p.Default
			pj.Default = &d
		}
		out.Params = append(out.Params, pj)
	}
	return out
}

func savedQueryFromJSON(qj SavedQueryJSON) soda.SavedQuery {
	q := soda.SavedQuery{Name: qj.Name, Description: qj.Description, SQL: qj.SQL}
	for _, p := range qj.Params {
		sp := soda.SavedParam{Name: p.Name, Type: p.Type}
		if p.Default != nil {
			sp.Default = *p.Default
			sp.HasDefault = true
		}
		q.Params = append(q.Params, sp)
	}
	return q
}

// handleQueryPut registers (or replaces) a saved query under the path
// name. The registration is validated — parse, placeholder/spec
// agreement, default values — before it is accepted, so a 200 means the
// query will compile on every replica. The record replicates through the
// cluster like any feedback write.
func (s *Server) handleQueryPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var qj SavedQueryJSON
	if !s.decodeBody(w, r, &qj) {
		return
	}
	if qj.Name != "" && qj.Name != name {
		s.writeError(w, r, http.StatusBadRequest,
			fmt.Errorf("body name %q does not match path name %q", qj.Name, name))
		return
	}
	qj.Name = name
	q := savedQueryFromJSON(qj)
	if err := s.sys.RegisterQuery(q); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	stored, _ := s.sys.SavedQuery(name)
	s.log.Printf("saved query %q registered (%d params)", name, len(stored.Params))
	s.writeJSON(w, http.StatusOK, QueryPutResponse{OK: true, Query: savedQueryJSON(stored)})
}

func (s *Server) handleQueryGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	q, ok := s.sys.SavedQuery(name)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf("no saved query %q", name))
		return
	}
	s.writeJSON(w, http.StatusOK, savedQueryJSON(q))
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
	resp := QueryListResponse{Queries: []SavedQueryJSON{}}
	for _, q := range s.sys.SavedQueries() {
		resp.Queries = append(resp.Queries, savedQueryJSON(q))
	}
	s.writeJSON(w, http.StatusOK, resp)
}

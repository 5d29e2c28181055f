package store

// Saved parameterized queries — the durable form of the pre-approved
// query library. A saved query travels as the Payload of an OpSetQuery
// WAL record (OpDelQuery carries just the name) and is folded into the
// snapshot's "queries" section, so the library survives restarts and
// replicates through the same canonical-order machinery as feedback: a
// pull carries the records as WAL frames, and a catch-up state carries
// the same "queries" section (EncodeState).
// The store keeps the SQL as rendered text (generic dialect, with
// placeholders); parsing it back into an AST is the caller's concern —
// the storage layer must not depend on the SQL packages.

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// SavedQuery is one approved parameterized query. Its JSON form is the
// one every HTTP and file surface speaks: the /admin/queries bodies and
// responses and the -queries library file. Disk and replication use
// EncodeSavedQuery's binary form.
type SavedQuery struct {
	// Name is the registry key, unique per system.
	Name string `json:"name"`
	// Description is the human explanation search terms match against.
	Description string `json:"description,omitempty"`
	// SQL is the statement rendered in the generic dialect, placeholders
	// included ("SELECT … WHERE amount > ?").
	SQL string `json:"sql"`
	// Params declares the bindings in statement ordinal order.
	Params []SavedParam `json:"params,omitempty"`
}

// SavedParam declares one binding of a saved query.
type SavedParam struct {
	// Name is the parameter's name ("min_amount").
	Name string `json:"name"`
	// Type is the value type: "string", "int", "float", "date" or "bool".
	Type string `json:"type"`
	// Default is the textual default value; nil (absent in JSON) makes
	// the parameter required: it must be bound from the search terms.
	Default *string `json:"default,omitempty"`
}

// Clone returns a deep copy (Params are private to the copy).
func (q SavedQuery) Clone() SavedQuery {
	q.Params = append([]SavedParam(nil), q.Params...)
	return q
}

// EncodeSavedQuery serialises a saved query into a record payload.
func EncodeSavedQuery(q SavedQuery) []byte {
	buf := appendString(nil, q.Name)
	buf = appendString(buf, q.Description)
	buf = appendString(buf, q.SQL)
	buf = binary.AppendUvarint(buf, uint64(len(q.Params)))
	for _, p := range q.Params {
		buf = appendString(buf, p.Name)
		buf = appendString(buf, p.Type)
		if p.Default != nil {
			buf = append(appendString(buf, *p.Default), 1)
		} else {
			buf = append(appendString(buf, ""), 0)
		}
	}
	return buf
}

// DecodeSavedQuery parses an OpSetQuery record payload.
func DecodeSavedQuery(payload []byte) (SavedQuery, error) {
	var q SavedQuery
	rest := payload
	var err error
	if q.Name, rest, err = takeString(rest); err != nil {
		return q, fmt.Errorf("store: saved query name: %w", err)
	}
	if q.Description, rest, err = takeString(rest); err != nil {
		return q, fmt.Errorf("store: saved query description: %w", err)
	}
	if q.SQL, rest, err = takeString(rest); err != nil {
		return q, fmt.Errorf("store: saved query sql: %w", err)
	}
	n, rest, err := takeCount(rest, 4)
	if err != nil {
		return q, fmt.Errorf("store: saved query param count: %w", err)
	}
	q.Params = make([]SavedParam, n)
	for i := range q.Params {
		p := &q.Params[i]
		if p.Name, rest, err = takeString(rest); err != nil {
			return q, err
		}
		if p.Type, rest, err = takeString(rest); err != nil {
			return q, err
		}
		var def string
		if def, rest, err = takeString(rest); err != nil {
			return q, err
		}
		if len(rest) == 0 {
			return q, fmt.Errorf("store: saved query param %d: missing default flag", i)
		}
		if rest[0] != 0 {
			p.Default = &def
		}
		rest = rest[1:]
	}
	if len(rest) != 0 {
		return q, fmt.Errorf("store: trailing bytes in saved query")
	}
	return q, nil
}

// encodeQueries serialises the folded query library sorted by name, so
// snapshots of the same state are byte-identical.
func encodeQueries(queries []SavedQuery) []byte {
	sorted := make([]SavedQuery, len(queries))
	copy(sorted, queries)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	buf := binary.AppendUvarint(nil, uint64(len(sorted)))
	for _, q := range sorted {
		body := EncodeSavedQuery(q)
		buf = binary.AppendUvarint(buf, uint64(len(body)))
		buf = append(buf, body...)
	}
	return buf
}

func decodeQueries(payload []byte) ([]SavedQuery, error) {
	n, rest, err := takeCount(payload, 1)
	if err != nil {
		return nil, fmt.Errorf("query count: %w", err)
	}
	queries := make([]SavedQuery, 0, n)
	for i := 0; i < n; i++ {
		var body string
		if body, rest, err = takeString(rest); err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		q, err := DecodeSavedQuery([]byte(body))
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		queries = append(queries, q)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("trailing bytes in queries section")
	}
	return queries, nil
}

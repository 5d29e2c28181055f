package invidx

// Binary serialisation of the inverted index for the persistent state
// store's snapshots. The paper reports the production index build taking
// "about 24 hours" (§5.1.2); our synthetic worlds build in seconds but the
// principle is the same — the index is the most expensive derived
// structure in the system, so a warm start must load it instead of
// re-scanning every text column.
//
// The format interns every string (tokens, table and column names, raw
// values) once in a string table; postings are varint triples of interned
// indices plus a row number. Posting-list order is preserved exactly:
// Hits() derives its column and value ordering from it, and snapshot
// restarts must produce byte-identical rankings.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// codecMaxCount caps decoded collection sizes against corrupt headers.
const codecMaxCount = 1 << 28

type indexEncoder struct {
	w       *bufio.Writer
	strings []string
	index   map[string]uint64
	buf     [binary.MaxVarintLen64]byte
	err     error
}

func (e *indexEncoder) intern(s string) uint64 {
	if i, ok := e.index[s]; ok {
		return i
	}
	i := uint64(len(e.strings))
	e.index[s] = i
	e.strings = append(e.strings, s)
	return i
}

func (e *indexEncoder) uvarint(v uint64) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:n])
}

// sortedKeys returns map keys in sorted order so the encoding is
// deterministic (snapshots of the same index are byte-identical, which
// makes checksums and tests meaningful).
func sortedKeys(m map[string][]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Encode serialises the index. The layout is:
//
//	string table (interned, first-appearance order)
//	postings map  (sorted by token; lists in stored order)
//	values map    (sorted by normalised value; lists in stored order)
//	rawValue map  (sorted by table/column/row)
//	token count
//
// The string table is built in a first pass and written first, so decode
// is single-pass.
func (x *Index) Encode(w io.Writer) error {
	e := &indexEncoder{w: bufio.NewWriter(w), index: make(map[string]uint64)}

	postingKeys := sortedKeys(x.postings)
	valueKeys := sortedKeys(x.values)
	// Raw values are written as (table, column, row, value) tuples sorted
	// by table/column/row — column IDs ascend in that order.
	nRaw := 0
	for _, col := range x.rawIDs {
		for _, v := range col {
			if x.raws[v] != "" {
				nRaw++
			}
		}
	}

	// Pass 1: intern every string in the order it will be referenced.
	for _, k := range postingKeys {
		e.intern(k)
		for _, c := range x.postings[k] {
			e.intern(x.cols[c>>32].table)
			e.intern(x.cols[c>>32].column)
		}
	}
	for _, k := range valueKeys {
		e.intern(k)
		for _, c := range x.values[k] {
			e.intern(x.cols[c>>32].table)
			e.intern(x.cols[c>>32].column)
		}
	}
	for id, col := range x.rawIDs {
		for _, v := range col {
			if x.raws[v] == "" {
				continue
			}
			e.intern(x.cols[id].table)
			e.intern(x.cols[id].column)
			e.intern(x.raws[v])
		}
	}

	// Pass 2: write.
	e.uvarint(uint64(len(e.strings)))
	for _, s := range e.strings {
		e.uvarint(uint64(len(s)))
		if e.err == nil {
			_, e.err = e.w.WriteString(s)
		}
	}
	writePostingMap := func(keys []string, m map[string][]uint64) {
		e.uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.uvarint(e.index[k])
			list := m[k]
			e.uvarint(uint64(len(list)))
			for _, c := range list {
				e.uvarint(e.index[x.cols[c>>32].table])
				e.uvarint(e.index[x.cols[c>>32].column])
				e.uvarint(c & rowMask)
			}
		}
	}
	writePostingMap(postingKeys, x.postings)
	writePostingMap(valueKeys, x.values)
	e.uvarint(uint64(nRaw))
	for id, col := range x.rawIDs {
		for row, v := range col {
			if x.raws[v] == "" {
				continue
			}
			e.uvarint(e.index[x.cols[id].table])
			e.uvarint(e.index[x.cols[id].column])
			e.uvarint(uint64(row))
			e.uvarint(e.index[x.raws[v]])
		}
	}
	e.uvarint(uint64(x.tokens))
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// indexDecoder decodes from an in-memory byte slice. Snapshot sections
// arrive fully buffered (they are checksummed as a unit), so indexing a
// slice with inline varint decoding beats a byte-at-a-time reader — this
// is half the warm-start budget.
type indexDecoder struct {
	data    []byte
	off     int
	strings []string
	b       *builder
	// arena backs every decoded cell list. Lists are carved out of large
	// chunks instead of one allocation per token: the warehouse index
	// holds tens of thousands of short lists.
	arena []uint64
}

func (d *indexDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated or malformed varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

// cellList returns a length-l, exact-cap slice backed by the arena.
func (d *indexDecoder) cellList(l int) []uint64 {
	const chunk = 1 << 14
	if cap(d.arena)-len(d.arena) < l {
		d.arena = make([]uint64, 0, max(l, chunk))
	}
	n := len(d.arena)
	d.arena = d.arena[:n+l]
	return d.arena[n : n+l : n+l]
}

func (d *indexDecoder) count(what string) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, fmt.Errorf("invidx: decode %s count: %w", what, err)
	}
	if v > codecMaxCount {
		return 0, fmt.Errorf("invidx: %s count %d exceeds limit", what, v)
	}
	// Every counted item takes at least one byte of what is left, so a
	// larger count is corrupt — and must not size an allocation.
	if v > uint64(len(d.data)-d.off) {
		return 0, fmt.Errorf("invidx: %s count %d exceeds the remaining input", what, v)
	}
	return int(v), nil
}

func (d *indexDecoder) str(what string) (string, error) {
	i, err := d.uvarint()
	if err != nil {
		return "", fmt.Errorf("invidx: decode %s: %w", what, err)
	}
	if i >= uint64(len(d.strings)) {
		return "", fmt.Errorf("invidx: %s string index %d out of range", what, i)
	}
	return d.strings[i], nil
}

// location reads one (table, column, row) triple as a provisional column
// ID and a row.
func (d *indexDecoder) location() (uint32, int, error) {
	tbl, err := d.str("posting table")
	if err != nil {
		return 0, 0, err
	}
	col, err := d.str("posting column")
	if err != nil {
		return 0, 0, err
	}
	row, err := d.uvarint()
	if err != nil {
		return 0, 0, fmt.Errorf("invidx: decode posting row: %w", err)
	}
	if row > codecMaxCount {
		return 0, 0, fmt.Errorf("invidx: posting row %d exceeds limit", row)
	}
	return d.b.col(tbl, col), int(row), nil
}

func (d *indexDecoder) cellMap(what string) (map[string][]uint64, error) {
	n, err := d.count(what)
	if err != nil {
		return nil, err
	}
	m := make(map[string][]uint64, n)
	for i := 0; i < n; i++ {
		key, err := d.str(what + " key")
		if err != nil {
			return nil, err
		}
		l, err := d.count(what + " list")
		if err != nil {
			return nil, err
		}
		list := d.cellList(l)
		for j := range list {
			col, row, err := d.location()
			if err != nil {
				return nil, err
			}
			list[j] = pack(col, row)
		}
		m[key] = list
	}
	return m, nil
}

// ReadIndex decodes an index written by Encode.
func ReadIndex(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("invidx: read: %w", err)
	}
	return DecodeIndex(data)
}

// DecodeIndex decodes an index from an in-memory encoding — the snapshot
// path, where the section is already buffered and checksummed; ReadIndex
// is the io.Reader convenience wrapper.
func DecodeIndex(data []byte) (*Index, error) {
	d := &indexDecoder{data: data}
	nStrings, err := d.count("string table")
	if err != nil {
		return nil, err
	}
	d.strings = make([]string, nStrings)
	for i := range d.strings {
		l, err := d.count("string length")
		if err != nil {
			return nil, err
		}
		if l > len(d.data)-d.off {
			return nil, fmt.Errorf("invidx: decode string %d: truncated", i)
		}
		d.strings[i] = string(d.data[d.off : d.off+l])
		d.off += l
	}

	d.b = newBuilder()
	x := d.b.x
	if x.postings, err = d.cellMap("postings"); err != nil {
		return nil, err
	}
	if x.values, err = d.cellMap("values"); err != nil {
		return nil, err
	}
	nRaw, err := d.count("rawValue")
	if err != nil {
		return nil, err
	}
	slots, maxSlots := 0, max(1<<20, 64*len(data))
	for i := 0; i < nRaw; i++ {
		col, row, err := d.location()
		if err != nil {
			return nil, err
		}
		raw, err := d.str("raw value")
		if err != nil {
			return nil, err
		}
		// A raw value costs a slot for every row up to its own, so a
		// corrupt row number could ask for gigabytes; a real index, one
		// slot per row up to its last non-empty cell, stays far below
		// this budget.
		if grow := row + 1 - len(d.b.raws[col]); grow > 0 {
			if slots += grow; slots > maxSlots {
				return nil, fmt.Errorf("invidx: raw values span more than %d rows", maxSlots)
			}
		}
		d.b.setRaw(col, row, raw)
	}
	tokens, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("invidx: decode token count: %w", err)
	}
	if tokens > codecMaxCount {
		return nil, fmt.Errorf("invidx: token count %d exceeds limit", tokens)
	}
	x.tokens = int(tokens)
	return d.b.finish(), nil
}

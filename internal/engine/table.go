package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Column describes one column of a table.
type Column struct {
	Name string
	Type Type
}

// Table is an in-memory relation. Rows are dense slices aligned with Cols.
// Rows change only through Insert, which appends: the join indexes rely on
// it, since an index over the first n rows stays right while n stays put.
type Table struct {
	Name   string
	Cols   []Column
	Rows   [][]Value
	byName map[string]int

	joinMu sync.Mutex                  // serialises join index builds
	joins  []atomic.Pointer[joinIndex] // per column, built on first probe
}

// joinIndex chains the first len(next) rows of a table by one column's
// join key: head maps a key to 1 + the first row holding it, and next maps
// each row to 1 + the following one, 0 ending the chain. Chains run in row
// order and NULLs, which never equi-join, are on none.
type joinIndex struct {
	head map[joinKey]int32
	next []int32
}

// joinIndex returns the join index of column col over at least the first
// n rows. It is built the first time a hash join probes the column, and
// again once Insert has appended rows past the ones it covers; concurrent
// callers share one build.
func (t *Table) joinIndex(col, n int) *joinIndex {
	if ix := t.joins[col].Load(); ix != nil && len(ix.next) >= n {
		return ix
	}
	t.joinMu.Lock()
	defer t.joinMu.Unlock()
	if ix := t.joins[col].Load(); ix != nil && len(ix.next) >= n {
		return ix
	}
	rows := t.Rows
	ix := new(joinIndex)
	ix.head, ix.next = chains(len(rows), func(i int) (joinKey, bool) {
		if v := rows[i][col]; !v.IsNull() {
			return keyOf(v), true
		}
		return joinKey{}, false
	})
	t.joins[col].Store(ix)
	return ix
}

// NewTable returns an empty table with the given columns. Column names are
// stored lower-cased; SQL identifiers in this engine are case-insensitive.
func NewTable(name string, cols ...Column) *Table {
	t := &Table{
		Name:   strings.ToLower(name),
		byName: make(map[string]int, len(cols)),
		joins:  make([]atomic.Pointer[joinIndex], len(cols)),
	}
	for _, c := range cols {
		c.Name = strings.ToLower(c.Name)
		if _, dup := t.byName[c.Name]; dup {
			panic(fmt.Sprintf("engine: duplicate column %s.%s", name, c.Name))
		}
		t.byName[c.Name] = len(t.Cols)
		t.Cols = append(t.Cols, c)
	}
	return t
}

// ColIndex returns the position of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Insert appends a row; it is the only way rows change. The row length
// must match the column count; values are checked for kind compatibility
// (NULL is always allowed).
func (t *Table) Insert(row ...Value) {
	if len(row) != len(t.Cols) {
		panic(fmt.Sprintf("engine: %s: inserting %d values into %d columns", t.Name, len(row), len(t.Cols)))
	}
	for i, v := range row {
		if v.IsNull() {
			continue
		}
		if !kindMatches(t.Cols[i].Type, v.Kind) {
			panic(fmt.Sprintf("engine: %s.%s: inserting %v into %v column",
				t.Name, t.Cols[i].Name, v.Kind, t.Cols[i].Type))
		}
	}
	t.Rows = append(t.Rows, row)
}

func kindMatches(t Type, k ValueKind) bool {
	switch t {
	case TString:
		return k == KString
	case TInt:
		return k == KInt
	case TFloat:
		return k == KFloat || k == KInt
	case TDate:
		return k == KDate
	case TBool:
		return k == KBool
	default:
		return false
	}
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return len(t.Rows) }

// DB is a named collection of tables.
type DB struct {
	tables map[string]*Table
	order  []string
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// Create adds a new table and returns it. It panics on duplicate names,
// which always indicates a generator bug.
func (db *DB) Create(name string, cols ...Column) *Table {
	t := NewTable(name, cols...)
	if _, dup := db.tables[t.Name]; dup {
		panic("engine: duplicate table " + t.Name)
	}
	db.tables[t.Name] = t
	db.order = append(db.order, t.Name)
	return t
}

// Add registers an existing table, panicking on duplicates.
func (db *DB) Add(t *Table) {
	if _, dup := db.tables[t.Name]; dup {
		panic("engine: duplicate table " + t.Name)
	}
	db.tables[t.Name] = t
	db.order = append(db.order, t.Name)
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table { return db.tables[strings.ToLower(name)] }

// TableNames returns all table names in creation order.
func (db *DB) TableNames() []string {
	out := make([]string, len(db.order))
	copy(out, db.order)
	return out
}

// NumTables returns the number of tables.
func (db *DB) NumTables() int { return len(db.order) }

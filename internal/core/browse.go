package core

import (
	"fmt"
	"sort"

	"soda/internal/metagraph"
	"soda/internal/rdf"
)

// Schema browsing (§5.3.2): a group of users "sees the potential of using
// SODA as an exploratory tool to analyze the schema ... to find out which
// entities are related with others", issuing a query, getting a table,
// then diving deeper with the schema browser. These helpers expose the
// join graph and layer metadata for that workflow.

// TableInfo describes one physical table for the browser.
type TableInfo struct {
	Name    string
	Columns []ColumnInfo
	// Related lists join-graph neighbours with the join condition.
	Related []RelatedTable
	// Labels are the searchable business terms reaching this table
	// through the metadata layers (logical/conceptual entities and
	// ontology concepts that implement or classify it).
	Labels []string
	// InheritanceParent / InheritanceChildren from the inheritance node,
	// when the table participates in one.
	InheritanceParent   string
	InheritanceChildren []string
}

// ColumnInfo is one column with its declared SQL type.
type ColumnInfo struct {
	Name string
	Type string
}

// RelatedTable is one join-graph neighbour.
type RelatedTable struct {
	Table string
	Join  Join
}

// Browse assembles the browser view of one physical table, or an error if
// the table is unknown. It only reads the immutable substrates and the
// once-built join graph, so it is safe to call concurrently with searches.
// The name is validated against the backend catalog (when the backend
// knows its schema) before anything else: a hostile path segment from
// /browse/{table} must die here as "unknown table", never travel further
// as raw text.
func (s *System) Browse(table string) (*TableInfo, error) {
	if cat := s.Backend.Catalog(); cat != nil && len(cat.TableNames()) > 0 {
		if _, ok := cat.Table(table); !ok {
			return nil, fmt.Errorf("core: unknown table %q", table)
		}
	}
	node, ok := s.compiled().tableNode(table)
	if !ok {
		return nil, fmt.Errorf("core: unknown table %q", table)
	}
	info := &TableInfo{Name: table}

	// Columns with their metadata-declared types.
	for _, col := range s.Meta.G.Objects(node, rdf.NewIRI(metagraph.PredColumn)) {
		name, _ := s.Meta.ColumnName(col)
		typ := ""
		if o, ok := s.Meta.G.Object(col, rdf.NewIRI(metagraph.PredColumnType)); ok {
			typ = o.Value()
		}
		info.Columns = append(info.Columns, ColumnInfo{Name: name, Type: typ})
	}

	// Join-graph neighbours: the raw discovery view (adjAll), which keeps
	// ignored edges — the browser shows what is related, not what the
	// pathfinder may traverse.
	jg := s.joinGraphCached()
	if id := jg.tables.id(table); id >= 0 {
		seen := map[string]bool{}
		for _, ei := range jg.adjAll[id] {
			e := jg.edges[ei]
			other := e.t1
			if other == table {
				other = e.t2
			}
			key := other + "/" + e.c1 + "/" + e.c2
			if seen[key] {
				continue
			}
			seen[key] = true
			info.Related = append(info.Related, RelatedTable{Table: other, Join: e.join()})
		}
	}
	sort.Slice(info.Related, func(i, j int) bool {
		if info.Related[i].Table != info.Related[j].Table {
			return info.Related[i].Table < info.Related[j].Table
		}
		return info.Related[i].Join.LeftCol < info.Related[j].Join.LeftCol
	})

	// Inheritance structure.
	for _, b := range s.matcher.MatchName(metagraph.PatInheritanceChild, node) {
		if p, ok := b.Get("p"); ok {
			if name, ok := s.Meta.TableName(p); ok {
				info.InheritanceParent = name
			}
		}
		break
	}
	for _, inh := range s.Meta.G.Objects(node, rdf.NewIRI(metagraph.PredInheritanceRef)) {
		if !s.Meta.IsType(inh, metagraph.TypeInheritanceNode) {
			continue
		}
		parent, ok := s.Meta.G.Object(inh, rdf.NewIRI(metagraph.PredInheritanceParent))
		if !ok || parent != node {
			continue
		}
		for _, c := range s.Meta.G.Objects(inh, rdf.NewIRI(metagraph.PredInheritanceChild)) {
			if name, ok := s.Meta.TableName(c); ok {
				info.InheritanceChildren = append(info.InheritanceChildren, name)
			}
		}
	}
	sort.Strings(info.InheritanceChildren)

	// Business terms reaching the table: walk incoming implements /
	// classifies chains up to three hops and collect labels.
	info.Labels = s.businessTerms(node)
	return info, nil
}

// businessTerms walks upward (incoming refinement edges) from a physical
// node collecting the labels of the logical/conceptual/ontology nodes
// that lead to it.
func (s *System) businessTerms(node rdf.Term) []string {
	upPreds := map[string]bool{
		metagraph.PredImplements: true,
		metagraph.PredClassifies: true,
		metagraph.PredRefersTo:   true,
	}
	visited := map[rdf.Term]bool{node: true}
	queue := []rdf.Term{node}
	labelSet := map[string]bool{}
	var labels []string
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		s.Meta.G.Incoming(n, func(p, src rdf.Term) bool {
			if !upPreds[p.Value()] || visited[src] {
				return true
			}
			visited[src] = true
			queue = append(queue, src)
			for _, l := range s.Meta.G.Objects(src, rdf.NewIRI(metagraph.PredLabel)) {
				if l.IsText() && !labelSet[l.Value()] {
					labelSet[l.Value()] = true
					labels = append(labels, l.Value())
				}
			}
			return true
		})
	}
	sort.Strings(labels)
	return labels
}

package core

// filtersStep implements Step 4 (Figure 4): "Filters can be found in two
// ways: a) by parsing the input query or b) by looking for filter
// conditions while traversing the metadata graph." Three provenances:
//
//   - base-data entry points become equality (or LIKE) conditions on the
//     column where the keyword was found ("the filter conditions are used
//     to connect 'Zürich' to the city column within the addresses table");
//   - comparison operators from the input attach to the column their
//     preceding keyword resolves to;
//   - metadata filters stored in the graph ("wealthy individuals").
func (s *System) filtersStep(sol *Solution, a *Analysis) {
	m := s.compiled()
	var filters []Filter

	for _, e := range sol.Entries {
		term := a.Terms[e.Term]
		hasComparison := len(term.Comparisons) > 0

		// a) base-data hits → value conditions, unless the term also has
		// an explicit comparison (then the user's operator wins; the hit
		// located the column).
		if e.Kind == KindBaseData && !hasComparison {
			filters = append(filters, baseDataFilter(e, term))
		}

		// b) input comparisons: resolve the term's entry to a column.
		if hasComparison {
			col, ok := s.entryColumn(e)
			if !ok {
				continue // cannot anchor the operator — skip (paper: ignore)
			}
			for _, cmp := range term.Comparisons {
				f := Filter{Col: col, Op: cmp.Op, Source: "input"}
				f.Value, f.IsDate, f.IsNum = comparisonValueString(cmp.Value)
				if cmp.Op == "between" && cmp.Value2 != nil {
					v2, d2, n2 := comparisonValueString(*cmp.Value2)
					f.Value2 = v2
					f.IsDate = f.IsDate && d2
					f.IsNum = f.IsNum && n2
				}
				filters = append(filters, f)
			}
		}

		// c) metadata filters attached to the entry node.
		if e.Kind == KindMetadata {
			for _, f := range m.nodeFilters(m.node(e.Node)) {
				filters = append(filters, f)
				s.ensureTable(sol, f.Col.Table)
			}
		}
	}
	sol.Filters = filters
}

// baseDataFilter builds the condition for an inverted-index hit: equality
// when the keyword matched a single distinct value, LIKE otherwise (the
// keyword is a substring of several values).
func baseDataFilter(e EntryPoint, term Term) Filter {
	col := ColRef{Table: e.Table, Column: e.Column}
	if len(e.Values) == 1 {
		return Filter{Col: col, Op: "=", Value: e.Values[0], Source: "basedata"}
	}
	return Filter{Col: col, Op: "like", Value: "%" + term.Text + "%", Source: "basedata"}
}

// entryColumn resolves an entry point to the physical column a comparison
// should constrain.
func (s *System) entryColumn(e EntryPoint) (ColRef, bool) {
	if e.Kind == KindBaseData {
		return ColRef{Table: e.Table, Column: e.Column}, true
	}
	return s.resolveColumn(e.Node)
}

// ensureTable joins an extra table into the solution when a metadata
// filter references a table the tables step did not collect. The join path
// comes from the global join graph.
func (s *System) ensureTable(sol *Solution, table string) {
	for _, t := range sol.SQLTables {
		if t == table {
			return
		}
	}
	if len(sol.SQLTables) == 0 {
		sol.SQLTables = append(sol.SQLTables, table)
		return
	}
	jg := s.joinGraphCached()
	var buf [8]int32
	path, ok := jg.multiPath(buf[:0], sol.SQLTables, table, s.Opt.DisableBridges)
	if !ok {
		sol.SQLTables = append(sol.SQLTables, table)
		sol.Disconnected = true
		return
	}
	have := make(map[string]bool, len(sol.SQLTables))
	for _, t := range sol.SQLTables {
		have[t] = true
	}
	joinSeen := make(map[Join]bool, len(sol.Joins))
	for _, j := range sol.Joins {
		joinSeen[j] = true
	}
	for _, ei := range path {
		e := &jg.edges[ei]
		j := e.join()
		if !joinSeen[j] {
			joinSeen[j] = true
			sol.Joins = append(sol.Joins, j)
		}
		for _, t := range []string{e.t1, e.t2} {
			if !have[t] {
				have[t] = true
				sol.SQLTables = append(sol.SQLTables, t)
			}
		}
	}
}

func isNumeric(s string) bool {
	if s == "" {
		return false
	}
	dot := false
	for i, r := range s {
		switch {
		case r >= '0' && r <= '9':
		case r == '.' && !dot && i > 0:
			dot = true
		case r == '-' && i == 0 && len(s) > 1:
		default:
			return false
		}
	}
	return true
}

func isISODate(s string) bool {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return false
	}
	for i, r := range s {
		if i == 4 || i == 7 {
			continue
		}
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

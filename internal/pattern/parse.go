package pattern

import (
	"fmt"
	"strings"
)

// Parse parses the concrete pattern syntax into a named Pattern. The
// grammar mirrors the paper's notation:
//
//	pattern := clause ( "&" clause )*
//	clause  := "(" elem PRED elem ")"        -- triple clause
//	         | "(" elem "matches-"NAME ")"   -- pattern reference
//	elem    := "?"IDENT | "t:?"IDENT | "t:"IDENT | IDENT
//
// Comments start with "#" and run to end of line.
func Parse(name, src string) (*Pattern, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, fmt.Errorf("pattern %q: %w", name, err)
	}
	p := &Pattern{Name: name}
	i := 0
	for i < len(toks) {
		if toks[i] != "(" {
			return nil, fmt.Errorf("pattern %q: expected '(' at token %d, got %q", name, i, toks[i])
		}
		close := indexFrom(toks, i, ")")
		if close < 0 {
			return nil, fmt.Errorf("pattern %q: unclosed clause", name)
		}
		body := toks[i+1 : close]
		clause, err := parseClause(body)
		if err != nil {
			return nil, fmt.Errorf("pattern %q: %w", name, err)
		}
		p.Clauses = append(p.Clauses, clause)
		i = close + 1
		if i < len(toks) {
			if toks[i] != "&" {
				return nil, fmt.Errorf("pattern %q: expected '&' between clauses, got %q", name, toks[i])
			}
			i++
			if i == len(toks) {
				return nil, fmt.Errorf("pattern %q: trailing '&'", name)
			}
		}
	}
	if len(p.Clauses) == 0 {
		return nil, fmt.Errorf("pattern %q: empty pattern", name)
	}
	if err := checkVarKinds(p); err != nil {
		return nil, fmt.Errorf("pattern %q: %w", name, err)
	}
	return p, nil
}

// checkVarKinds rejects a variable written both as a node variable and as
// a text variable ("?v" and "t:?v"). No graph element is both a node and a
// label, so such a pattern could never match.
func checkVarKinds(p *Pattern) error {
	kinds := make(map[string]ElemKind)
	check := func(e Elem) error {
		if !e.IsVar() {
			return nil
		}
		if k, ok := kinds[e.Name]; ok && k != e.Kind {
			return fmt.Errorf("variable %q is used both as ?%s and as t:?%s", e.Name, e.Name, e.Name)
		}
		kinds[e.Name] = e.Kind
		return nil
	}
	for _, c := range p.Clauses {
		var err error
		if c.Kind == RefClause {
			err = check(c.Ref)
		} else if err = check(c.S); err == nil {
			err = check(c.O)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// MustParse is Parse that panics on error; intended for the built-in
// pattern tables that ship with the system.
func MustParse(name, src string) *Pattern {
	p, err := Parse(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

func parseClause(body []string) (Clause, error) {
	switch len(body) {
	case 2:
		// Pattern reference: ( ?x matches-column )
		if !strings.HasPrefix(body[1], "matches-") {
			return Clause{}, fmt.Errorf("two-element clause must be a matches- reference, got %q", body[1])
		}
		refName := strings.TrimPrefix(body[1], "matches-")
		if refName == "" {
			return Clause{}, fmt.Errorf("empty pattern reference name")
		}
		ref, err := parseElem(body[0])
		if err != nil {
			return Clause{}, err
		}
		return Clause{Kind: RefClause, Ref: ref, RefName: refName}, nil
	case 3:
		s, err := parseElem(body[0])
		if err != nil {
			return Clause{}, err
		}
		if strings.HasPrefix(body[1], "?") || strings.HasPrefix(body[1], "t:") {
			return Clause{}, fmt.Errorf("predicate must be a static URI, got %q", body[1])
		}
		o, err := parseElem(body[2])
		if err != nil {
			return Clause{}, err
		}
		return Clause{Kind: TripleClause, S: s, Pred: body[1], O: o}, nil
	default:
		return Clause{}, fmt.Errorf("clause must have 2 or 3 elements, got %d", len(body))
	}
}

func parseElem(tok string) (Elem, error) {
	switch {
	case strings.HasPrefix(tok, "t:?"):
		name := strings.TrimPrefix(tok, "t:?")
		if name == "" {
			return Elem{}, fmt.Errorf("empty text variable name")
		}
		return TextVar(name), nil
	case strings.HasPrefix(tok, "t:"):
		return Text(strings.TrimPrefix(tok, "t:")), nil
	case strings.HasPrefix(tok, "?"):
		name := strings.TrimPrefix(tok, "?")
		if name == "" {
			return Elem{}, fmt.Errorf("empty variable name")
		}
		return Var(name), nil
	default:
		return IRI(tok), nil
	}
}

func tokenize(src string) ([]string, error) {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	inComment := false
	for _, r := range src {
		if inComment {
			if r == '\n' {
				inComment = false
			}
			continue
		}
		switch r {
		case '#':
			flush()
			inComment = true
		case '(', ')', '&':
			flush()
			toks = append(toks, string(r))
		case ' ', '\t', '\n', '\r':
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return toks, nil
}

func indexFrom(toks []string, from int, want string) int {
	for i := from; i < len(toks); i++ {
		if toks[i] == want {
			return i
		}
	}
	return -1
}

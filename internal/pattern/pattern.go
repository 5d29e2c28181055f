// Package pattern implements SODA's metadata-graph pattern language (paper
// §4.2.1). The language is inspired by SPARQL filter expressions: a pattern
// is a conjunction of triples; each triple connects two nodes or a node and
// a text label. A node position holds either a static URI or a variable;
// edges (predicates) are always static URIs. Within one match a variable
// keeps its assignment. A pattern may also reference another pattern by
// name — the paper writes "( x matches-column )" to require that x also
// satisfies the Column pattern.
//
// Concrete syntax: the paper distinguishes variables typographically
// (italics). This package uses the SPARQL convention instead: "?x" is a
// node variable, "t:?y" is a text-label variable, a bare token is a static
// URI, and "t:foo" is a static text label. The paper's Table pattern
//
//	( x tablename t:y ) &
//	( x type physical_table )
//
// is therefore written
//
//	( ?x tablename t:?y ) &
//	( ?x type physical_table )
package pattern

import (
	"fmt"
	"strings"

	"soda/internal/rdf"
)

// ElemKind discriminates the four element shapes allowed in a node position
// of a pattern triple.
type ElemKind uint8

const (
	// VarElem is a variable ranging over graph nodes (IRIs), written "?x".
	VarElem ElemKind = iota
	// TextVarElem is a variable ranging over text labels, written "t:?y".
	TextVarElem
	// IRIElem is a static node URI, written bare.
	IRIElem
	// TextElem is a static text label, written "t:label".
	TextElem
)

// Elem is one element of a pattern triple: a variable or a constant.
type Elem struct {
	Kind ElemKind
	// Name is the variable name for VarElem/TextVarElem, or the constant
	// value for IRIElem/TextElem.
	Name string
}

// Var returns a node-variable element.
func Var(name string) Elem { return Elem{Kind: VarElem, Name: name} }

// TextVar returns a text-label-variable element.
func TextVar(name string) Elem { return Elem{Kind: TextVarElem, Name: name} }

// IRI returns a static node URI element.
func IRI(value string) Elem { return Elem{Kind: IRIElem, Name: value} }

// Text returns a static text-label element.
func Text(value string) Elem { return Elem{Kind: TextElem, Name: value} }

// IsVar reports whether the element is a variable of either kind.
func (e Elem) IsVar() bool { return e.Kind == VarElem || e.Kind == TextVarElem }

// String renders the element in the package's concrete syntax.
func (e Elem) String() string {
	switch e.Kind {
	case VarElem:
		return "?" + e.Name
	case TextVarElem:
		return "t:?" + e.Name
	case TextElem:
		return "t:" + e.Name
	default:
		return e.Name
	}
}

// ClauseKind discriminates triple clauses from pattern references.
type ClauseKind uint8

const (
	// TripleClause matches one triple in the graph.
	TripleClause ClauseKind = iota
	// RefClause requires an element to satisfy another named pattern,
	// written "( ?x matches-column )".
	RefClause
)

// Clause is one conjunct of a pattern.
type Clause struct {
	Kind ClauseKind

	// TripleClause fields. Pred is a static URI per the paper ("An edge is
	// a static URI").
	S    Elem
	Pred string
	O    Elem

	// RefClause fields: Ref must satisfy the pattern named RefName.
	Ref     Elem
	RefName string
}

// String renders the clause in the package's concrete syntax.
func (c Clause) String() string {
	if c.Kind == RefClause {
		return fmt.Sprintf("( %s matches-%s )", c.Ref, c.RefName)
	}
	return fmt.Sprintf("( %s %s %s )", c.S, c.Pred, c.O)
}

// Pattern is a named conjunction of clauses. By convention the variable "x"
// denotes "the node being tested" (paper Figures 7 and 8): Match binds it
// to the candidate node before solving the clauses.
type Pattern struct {
	Name    string
	Clauses []Clause
}

// String renders the pattern with " &\n" between clauses, mirroring the
// paper's layout.
func (p *Pattern) String() string {
	parts := make([]string, len(p.Clauses))
	for i, c := range p.Clauses {
		parts[i] = c.String()
	}
	return strings.Join(parts, " &\n")
}

// Vars returns the distinct variable names used by the pattern, in first
// appearance order.
func (p *Pattern) Vars() []string {
	seen := make(map[string]struct{})
	var names []string
	add := func(e Elem) {
		if !e.IsVar() {
			return
		}
		if _, dup := seen[e.Name]; dup {
			return
		}
		seen[e.Name] = struct{}{}
		names = append(names, e.Name)
	}
	for _, c := range p.Clauses {
		if c.Kind == RefClause {
			add(c.Ref)
			continue
		}
		add(c.S)
		add(c.O)
	}
	return names
}

// Registry holds named patterns so that RefClauses ("matches-column") can
// resolve. Porting SODA to a different warehouse means swapping the
// registry contents while the algorithm stays the same (paper §4.1).
type Registry struct {
	byName map[string]*Pattern
	names  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Pattern)}
}

// Register adds or replaces the pattern under its name.
func (r *Registry) Register(p *Pattern) {
	if p.Name == "" {
		panic("pattern: Register called with unnamed pattern")
	}
	if _, dup := r.byName[p.Name]; !dup {
		r.names = append(r.names, p.Name)
	}
	r.byName[p.Name] = p
}

// Get returns the pattern registered under name, or nil.
func (r *Registry) Get(name string) *Pattern { return r.byName[name] }

// Names returns the registered pattern names in registration order.
func (r *Registry) Names() []string { return r.names }

// Binding maps variable names to the graph terms they were assigned during
// a match. The distinguished variable "x" is always present.
type Binding map[string]rdf.Term

// Get returns the term bound to name and whether it is bound.
func (b Binding) Get(name string) (rdf.Term, bool) {
	t, ok := b[name]
	return t, ok
}

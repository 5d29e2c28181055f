package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// N-Triples-style serialisation of the metadata graph. The paper's fourth
// feedback group (§5.3.2) wants to reverse-engineer legacy systems: "After
// the reverse engineering is completed, the RDF schema graph can be
// generated and annotated accordingly." Export/import makes the graph a
// durable, diffable artefact.
//
// The dialect is a pragmatic subset of W3C N-Triples: IRIs in angle
// brackets, text labels as quoted literals, one triple per line,
// terminated with " .". Spaces and special characters inside IRIs are
// percent-escaped.

// WriteNTriples serialises every triple of g to w in insertion order.
func WriteNTriples(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for tr := range g.All() {
		if _, err := fmt.Fprintf(bw, "%s %s %s .\n",
			formatIRI(tr.S.Value()), formatIRI(tr.P.Value()), formatTerm(tr.O)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseNTriples reads triples in the WriteNTriples dialect into a fresh
// graph. Blank lines and '#' comment lines are skipped.
func ParseNTriples(r io.Reader) (*Graph, error) {
	g := NewGraph()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, p, o, err := parseTripleLine(line)
		if err != nil {
			return nil, fmt.Errorf("rdf: line %d: %w", lineNo, err)
		}
		g.Add(s, p, o)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
}

func parseTripleLine(line string) (s, p, o Term, err error) {
	rest := line
	sv, rest, err := takeIRI(rest)
	if err != nil {
		return s, p, o, err
	}
	pv, rest, err := takeIRI(rest)
	if err != nil {
		return s, p, o, err
	}
	rest = strings.TrimLeft(rest, " \t")
	var obj Term
	switch {
	case strings.HasPrefix(rest, "<"):
		ov, r2, err := takeIRI(rest)
		if err != nil {
			return s, p, o, err
		}
		rest = r2
		obj = NewIRI(ov)
	case strings.HasPrefix(rest, `"`):
		end := -1
		for i := 1; i < len(rest); i++ {
			if rest[i] == '"' && rest[i-1] != '\\' {
				end = i
				break
			}
		}
		if end < 0 {
			return s, p, o, fmt.Errorf("unterminated literal")
		}
		obj = NewText(unescapeLiteral(rest[1:end]))
		rest = rest[end+1:]
	default:
		return s, p, o, fmt.Errorf("expected IRI or literal object, got %q", rest)
	}
	rest = strings.TrimSpace(rest)
	if rest != "." {
		return s, p, o, fmt.Errorf("missing terminating dot, got %q", rest)
	}
	return NewIRI(sv), NewIRI(pv), obj, nil
}

func takeIRI(s string) (value, rest string, err error) {
	s = strings.TrimLeft(s, " \t")
	if !strings.HasPrefix(s, "<") {
		return "", "", fmt.Errorf("expected '<', got %q", s)
	}
	end := strings.IndexByte(s, '>')
	if end < 0 {
		return "", "", fmt.Errorf("unterminated IRI")
	}
	return unescapeIRI(s[1:end]), s[end+1:], nil
}

func formatTerm(t Term) string {
	if t.IsText() {
		return `"` + escapeLiteral(t.Value()) + `"`
	}
	return formatIRI(t.Value())
}

func formatIRI(v string) string { return "<" + escapeIRI(v) + ">" }

// escapeIRI percent-escapes the characters N-Triples forbids in IRIs
// (whitespace, angle brackets, quotes and the escape character itself).
func escapeIRI(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case ' ':
			b.WriteString("%20")
		case '<':
			b.WriteString("%3C")
		case '>':
			b.WriteString("%3E")
		case '%':
			b.WriteString("%25")
		case '"':
			b.WriteString("%22")
		case '\n':
			b.WriteString("%0A")
		case '\t':
			b.WriteString("%09")
		case '\r':
			b.WriteString("%0D")
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func unescapeIRI(v string) string {
	replacer := strings.NewReplacer(
		"%20", " ", "%3C", "<", "%3E", ">", "%22", `"`,
		"%0A", "\n", "%09", "\t", "%0D", "\r", "%25", "%",
	)
	return replacer.Replace(v)
}

func escapeLiteral(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func unescapeLiteral(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] != '\\' || i+1 >= len(v) {
			b.WriteByte(v[i])
			continue
		}
		i++
		switch v[i] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case 'r':
			b.WriteByte('\r')
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		default:
			b.WriteByte('\\')
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

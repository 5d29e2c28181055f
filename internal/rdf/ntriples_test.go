package rdf

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestNTriplesRoundTripBasic(t *testing.T) {
	g := NewGraph()
	g.Add(NewIRI("tbl:parties"), NewIRI("tablename"), NewText("parties"))
	g.Add(NewIRI("tbl:parties"), NewIRI("type"), NewIRI("physical_table"))
	g.Add(NewIRI("con:x"), NewIRI("label"), NewText(`tricky "quoted" \ label`))
	g.Add(NewIRI("spaced iri"), NewIRI("p"), NewText("multi\nline\ttext"))

	var buf bytes.Buffer
	if err := WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ParseNTriples(&buf)
	if err != nil {
		t.Fatalf("parse: %v\noutput:\n%s", err, buf.String())
	}
	if g2.Len() != g.Len() {
		t.Fatalf("round trip lost triples: %d vs %d", g2.Len(), g.Len())
	}
	for tr := range g.All() {
		if !g2.Has(tr.S, tr.P, tr.O) {
			t.Fatalf("missing triple after round trip: %v", tr)
		}
	}
}

func TestNTriplesFormat(t *testing.T) {
	g := NewGraph()
	g.Add(NewIRI("a"), NewIRI("p"), NewText("hello"))
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	want := "<a> <p> \"hello\" .\n"
	if buf.String() != want {
		t.Fatalf("output = %q, want %q", buf.String(), want)
	}
}

func TestParseNTriplesCommentsAndBlanks(t *testing.T) {
	src := `
# a comment
<a> <p> <b> .

<a> <q> "text" .
`
	g, err := ParseNTriples(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("triples = %d, want 2", g.Len())
	}
}

func TestParseNTriplesErrors(t *testing.T) {
	cases := []string{
		`<a> <p> <b>`,         // missing dot
		`<a> <p> .`,           // missing object
		`a <p> <b> .`,         // bare subject
		`<a> <p> "unclosed .`, // unterminated literal
		`<a> <unclosed <b> .`, // broken IRI
		`<a> <p> <b> . extra`, // trailing garbage
	}
	for _, src := range cases {
		if _, err := ParseNTriples(strings.NewReader(src)); err == nil {
			t.Errorf("ParseNTriples(%q) should fail", src)
		}
	}
}

// property: any graph of generated terms round-trips exactly.
func TestNTriplesRoundTripQuick(t *testing.T) {
	alphabet := []string{
		"plain", "with space", "percent%sign", "quote\"mark",
		"angle<bracket>", "tab\tchar", "newline\nchar", "back\\slash",
	}
	f := func(picks []uint8) bool {
		g := NewGraph()
		for i, p := range picks {
			s := NewIRI(fmt.Sprintf("s:%s", alphabet[int(p)%len(alphabet)]))
			pred := NewIRI(fmt.Sprintf("p%d", int(p)%4))
			var o Term
			if i%2 == 0 {
				o = NewText(alphabet[(int(p)+i)%len(alphabet)])
			} else {
				o = NewIRI(fmt.Sprintf("o:%s", alphabet[(int(p)+i)%len(alphabet)]))
			}
			g.Add(s, pred, o)
		}
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, g); err != nil {
			return false
		}
		g2, err := ParseNTriples(&buf)
		if err != nil {
			return false
		}
		if g2.Len() != g.Len() {
			return false
		}
		for tr := range g.All() {
			if !g2.Has(tr.S, tr.P, tr.O) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

package invidx

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"soda/internal/backend"
)

func buildCodecTestDB() *backend.DB {
	db := backend.NewDB()
	parties := db.Create("parties",
		backend.Column{Name: "id", Type: backend.TInt},
		backend.Column{Name: "name", Type: backend.TString},
		backend.Column{Name: "city", Type: backend.TString})
	parties.Insert(backend.Int(1), backend.Str("Credit Suisse"), backend.Str("Zürich"))
	parties.Insert(backend.Int(2), backend.Str("Sara Güttinger"), backend.Str("Zurich"))
	parties.Insert(backend.Int(3), backend.Str("Credit Suisse Master Agreement"), backend.Str("Bern"))
	parties.Insert(backend.Int(4), backend.Null(), backend.Str(""))
	notes := db.Create("notes",
		backend.Column{Name: "body", Type: backend.TString})
	notes.Insert(backend.Str("gold certificate for Credit Suisse"))
	return db
}

func TestCodecRoundTripExact(t *testing.T) {
	idx := Build(buildCodecTestDB())
	var buf bytes.Buffer
	if err := idx.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idx.postings, got.postings) {
		t.Fatal("postings map changed across the round trip")
	}
	if !reflect.DeepEqual(idx.values, got.values) {
		t.Fatal("values map changed across the round trip")
	}
	if !reflect.DeepEqual(idx.raws, got.raws) || !reflect.DeepEqual(idx.rawIDs, got.rawIDs) {
		t.Fatal("raw values changed across the round trip")
	}
	if idx.tokens != got.tokens {
		t.Fatalf("tokens %d != %d", idx.tokens, got.tokens)
	}

	// The observable API must agree too, including ordering-sensitive
	// results (Hits order feeds the ranked output).
	for _, phrase := range []string{"credit suisse", "zurich", "gold", "credit suisse master agreement", "nothing"} {
		if !reflect.DeepEqual(idx.Hits(phrase), got.Hits(phrase)) {
			t.Fatalf("Hits(%q) differ after round trip", phrase)
		}
	}

	// Deterministic encoding: encoding the decoded index reproduces the
	// same bytes.
	var buf2 bytes.Buffer
	if err := got.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("encoding is not deterministic across a round trip")
	}
}

// TestMaxValueTokens checks that Build and DecodeIndex both record the
// longest stored value, "gold certificate for Credit Suisse".
func TestMaxValueTokens(t *testing.T) {
	idx := Build(buildCodecTestDB())
	var buf bytes.Buffer
	if err := idx.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if idx.MaxValueTokens() != 5 || got.MaxValueTokens() != 5 {
		t.Fatalf("MaxValueTokens = %d built, %d decoded, want 5", idx.MaxValueTokens(), got.MaxValueTokens())
	}
}

func TestCodecRejectsCorruptInput(t *testing.T) {
	idx := Build(buildCodecTestDB())
	var buf bytes.Buffer
	if err := idx.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := ReadIndex(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

// BenchmarkReadIndex measures snapshot decode of an index over a few
// thousand text cells — the other half of the warm-start budget next to
// rdf.ReadBinary.
func BenchmarkReadIndex(b *testing.B) {
	db := backend.NewDB()
	words := []string{"credit", "suisse", "gold", "zurich", "bond", "swap", "master", "agreement"}
	for t := 0; t < 20; t++ {
		tbl := db.Create(fmt.Sprintf("t%d", t),
			backend.Column{Name: "a", Type: backend.TString},
			backend.Column{Name: "b", Type: backend.TString})
		for r := 0; r < 200; r++ {
			tbl.Insert(
				backend.Str(words[r%len(words)]+" "+words[(r+t)%len(words)]),
				backend.Str(fmt.Sprintf("value %d %s", r, words[(r+3*t)%len(words)])))
		}
	}
	var buf bytes.Buffer
	if err := Build(db).Encode(&buf); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeIndex(buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

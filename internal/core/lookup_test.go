package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// TestComplexitySaturates checks that the entry-point product stops at
// math.MaxInt: forty three-way terms would overflow an int.
func TestComplexitySaturates(t *testing.T) {
	sys := newSys(t, Options{CacheSize: -1})
	a := search(t, sys, strings.Repeat("name, ", 40))
	if len(a.Candidates) != 40 || len(a.Candidates[0]) != 3 {
		t.Fatalf("want 40 terms of 3 candidates, got %d terms", len(a.Candidates))
	}
	if a.Complexity != math.MaxInt {
		t.Fatalf("complexity = %d, want %d", a.Complexity, math.MaxInt)
	}
	if want := fmt.Sprintf("(complexity %d)", math.MaxInt); !strings.Contains(Explain(a), want) {
		t.Fatalf("Explain does not show %q", want)
	}
}

// TestManyUnknownWordsSegmentFast checks that Step 1 stays near linear in
// a query of unknown words: only phrases as long as the longest label or
// stored value are tried. Trying every length took hours here.
func TestManyUnknownWordsSegmentFast(t *testing.T) {
	sys := newSys(t, Options{CacheSize: -1})
	words := make([]string, 20000)
	for i := range words {
		words[i] = fmt.Sprintf("xq%d", i)
	}
	start := time.Now()
	a := search(t, sys, strings.Join(words, " "))
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("20000 unknown words took %v, want under 2s", d)
	}
	if len(a.Terms) != 0 || len(a.Ignored) != len(words) {
		t.Fatalf("terms = %d, ignored = %d, want 0 and %d", len(a.Terms), len(a.Ignored), len(words))
	}
}

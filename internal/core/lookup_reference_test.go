package core

import (
	"slices"
	"strings"
	"testing"

	"soda/internal/backend/memory"
)

// The unbounded Step 1 segmentation survives here verbatim as a reference
// oracle: it tries every phrase length from the end of the group down.
// FuzzSegment requires the bounded segment to return the same segments
// and unknowns, the guarantee that the length cap changed the cost of
// Step 1, not its output.

// refSegment is the old segment, verbatim.
func refSegment(s *System, words []string) (segments []string, unknown []string) {
	i := 0
	for i < len(words) {
		matched := false
		for l := len(words) - i; l >= 1; l-- {
			phrase := termKey(words[i : i+l])
			if s.known(phrase) {
				segments = append(segments, phrase)
				i += l
				matched = true
				break
			}
		}
		if !matched {
			unknown = append(unknown, words[i])
			i++
		}
	}
	return segments, unknown
}

// FuzzSegment checks segment against refSegment over MiniBank, with and
// without DBpedia. The input is a word list separated by '|', so a word
// may hold spaces or be whitespace only, as a quoted query word can. Lists
// are cut at 300 words to keep the cubic reference fast.
func FuzzSegment(f *testing.F) {
	for _, seed := range []string{
		"private|customers|financial|instrument|transactions",
		"Credit|Suisse|gold|agreement",
		"hedge|fund|instrument|11|Lehman|XYZ|share|1",
		"credit suisse|master|agreement|birth|date",
		"wealthy| |customers|'|Zürich| |",
		"hedge| |fund|instrument|11|credit suisse|gold agreement",
		"\t|name|xyzzy|trading|volume|and|sara|güttinger",
	} {
		f.Add(seed)
	}
	systems := []*System{
		NewSystem(memory.New(world.DB), world.Meta, world.Index, Options{CacheSize: -1}),
		NewSystem(memory.New(world.DB), world.Meta, world.Index, Options{CacheSize: -1, DisableDBpedia: true}),
	}
	f.Fuzz(func(t *testing.T, in string) {
		words := strings.Split(in, "|")
		if len(words) > 300 {
			words = words[:300]
		}
		for _, sys := range systems {
			segs, unknown := sys.segment(words)
			wantSegs, wantUnknown := refSegment(sys, words)
			if !slices.Equal(segs, wantSegs) || !slices.Equal(unknown, wantUnknown) {
				t.Fatalf("segment(%q) DisableDBpedia=%v = %q, %q; reference %q, %q",
					words, sys.Opt.DisableDBpedia, segs, unknown, wantSegs, wantUnknown)
			}
		}
	})
}

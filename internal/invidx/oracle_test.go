package invidx_test

import (
	"bytes"
	"reflect"
	"testing"

	"soda/internal/invidx"
	"soda/internal/metagraph"
	"soda/internal/minibank"
	"soda/internal/warehouse"
)

// TestWorldLookupsMatchReference holds both worlds' indexes to the
// reference oracle on the phrases the lookup step asks of them: every
// token, stored value and metadata label, on the built index and on its
// snapshot round trip. The reference spends ~5 ms on each of the
// warehouse's 9,686 stored values (their words "ref" and "td" have 18,320
// postings each), so it checks every 40th of those; the round trip is
// checked on all of them, and so are the baked tables, entry for entry
// against the old bake, on both the built and the decoded index.
func TestWorldLookupsMatchReference(t *testing.T) {
	mb := minibank.Build(minibank.Default())
	wh := warehouse.Build(warehouse.Default())
	for _, w := range []struct {
		name   string
		idx    *invidx.Index
		meta   *metagraph.Graph
		stride int
	}{{"minibank", mb.Index, mb.Meta, 1}, {"warehouse", wh.Index, wh.Meta, 40}} {
		t.Run(w.name, func(t *testing.T) {
			values := invidx.StoredValues(w.idx)
			checked := append(w.idx.Terms(), w.meta.Labels()...)
			for i := 0; i < len(values); i += w.stride {
				checked = append(checked, values[i])
			}
			invidx.CheckAgainstReference(t, w.idx, checked)

			phrases := append(append(w.idx.Terms(), values...), w.meta.Labels()...)
			decoded := invidx.RoundTrip(t, w.idx)
			invidx.CheckBakeAgainstReference(t, w.idx)
			invidx.CheckBakeAgainstReference(t, decoded)
			for _, ph := range phrases {
				if got, want := decoded.Hits(ph), w.idx.Hits(ph); !reflect.DeepEqual(got, want) {
					t.Fatalf("Hits(%q) after a round trip = %+v, before %+v", ph, got, want)
				}
			}
		})
	}
}

// FuzzDecodeIndex feeds DecodeIndex arbitrary bytes. It must never panic
// — posting rows past their column's raw values included — and whatever
// decodes must answer every token and stored value as the reference does,
// bake the tables the old bake did, and answer again after a round trip
// through Encode.
func FuzzDecodeIndex(f *testing.F) {
	for _, x := range []*invidx.Index{invidx.Build(invidx.TestDB()), minibank.Build(minibank.Default()).Index} {
		var b bytes.Buffer
		if err := x.Encode(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := invidx.DecodeIndex(data)
		if err != nil {
			return
		}
		phrases := append(x.Terms(), invidx.StoredValues(x)...)
		invidx.CheckAgainstReference(t, x, phrases)
		invidx.CheckBakeAgainstReference(t, x)
		again := invidx.RoundTrip(t, x)
		for _, ph := range phrases {
			if got, want := again.Hits(ph), x.Hits(ph); !reflect.DeepEqual(got, want) {
				t.Fatalf("Hits(%q) after a round trip = %+v, before %+v", ph, got, want)
			}
		}
	})
}

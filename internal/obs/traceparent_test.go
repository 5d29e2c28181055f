package obs

import (
	"context"
	"testing"
)

func TestParseTraceparent(t *testing.T) {
	const trace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const span = "00f067aa0ba902b7"
	cases := []struct {
		in    string
		ok    bool
		flags byte
	}{
		{"00-" + trace + "-" + span + "-01", true, 0x01},
		{"00-" + trace + "-" + span + "-00", true, 0x00},
		// Forward compatibility: unknown version with trailing data.
		{"01-" + trace + "-" + span + "-01-extra", true, 0x01},
		// Version 00 must be exactly 55 bytes.
		{"00-" + trace + "-" + span + "-01-extra", false, 0},
		// Version ff is forbidden.
		{"ff-" + trace + "-" + span + "-01", false, 0},
		// All-zero ids are forbidden.
		{"00-00000000000000000000000000000000-" + span + "-01", false, 0},
		{"00-" + trace + "-0000000000000000-01", false, 0},
		// Uppercase hex is not valid traceparent.
		{"00-" + "4BF92F3577B34DA6A3CE929D0E0E4736" + "-" + span + "-01", false, 0},
		{"", false, 0},
		{"00-" + trace + "-" + span, false, 0},
		{"banana", false, 0},
	}
	for _, c := range cases {
		tc, ok := ParseTraceparent(c.in)
		if ok != c.ok {
			t.Errorf("ParseTraceparent(%q) ok = %v, want %v", c.in, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if tc.TraceID != trace || tc.SpanID != span || tc.Flags != c.flags {
			t.Errorf("ParseTraceparent(%q) = %+v", c.in, tc)
		}
	}
}

func TestTraceContextHeaderRoundTrip(t *testing.T) {
	tc := MintTraceContext()
	if !tc.Valid() {
		t.Fatalf("minted context invalid: %+v", tc)
	}
	back, ok := ParseTraceparent(tc.Header())
	if !ok || back != tc {
		t.Fatalf("Header round trip: %+v -> %q -> %+v (ok=%v)", tc, tc.Header(), back, ok)
	}
}

func TestChildKeepsTraceID(t *testing.T) {
	tc := MintTraceContext()
	child := tc.Child()
	if child.TraceID != tc.TraceID {
		t.Fatal("Child changed trace id")
	}
	if child.SpanID == tc.SpanID {
		t.Fatal("Child reused parent span id")
	}
	if !child.Valid() {
		t.Fatalf("child invalid: %+v", child)
	}
}

func TestMintedIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		tc := MintTraceContext()
		if !tc.Valid() {
			t.Fatalf("minted context invalid: %+v", tc)
		}
		if seen[tc.TraceID] || seen[tc.SpanID] {
			t.Fatalf("duplicate id in %+v", tc)
		}
		seen[tc.TraceID], seen[tc.SpanID] = true, true
	}
}

func TestActiveTraceContext(t *testing.T) {
	if tr := TraceFromContext(context.Background()); tr != nil {
		t.Fatal("empty context carries a span collector")
	}
	ctx := &ActiveContext{Context: context.Background(),
		Active: ActiveTrace{TC: MintTraceContext(), Spans: &Trace{}}}
	at := &ctx.Active
	if got := TraceFromContext(ctx); got != at.Spans {
		t.Fatal("TraceFromContext lost the active trace's spans")
	}
	TraceFromContext(ctx).Add("step", 1)
	if at.Spans.Len() != 1 {
		t.Fatal("span did not land in the active trace")
	}
}

// FuzzParseTraceparent feeds arbitrary header values to the parser: it
// must never panic, and any context it accepts must be valid and reparse
// from its own Header() to the same value.
func FuzzParseTraceparent(f *testing.F) {
	const trace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const span = "00f067aa0ba902b7"
	for _, s := range []string{
		"00-" + trace + "-" + span + "-01",
		"01-" + trace + "-" + span + "-01-extra",
		"00-" + trace + "-" + span + "-01-extra",
		"ff-" + trace + "-" + span + "-01",
		"00-00000000000000000000000000000000-" + span + "-01",
		"00-" + trace + "-" + span,
		"",
		"banana",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tc, ok := ParseTraceparent(h)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("ParseTraceparent(%q) rejected but returned %+v", h, tc)
			}
			return
		}
		if !tc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid context %+v", h, tc)
		}
		back, ok := ParseTraceparent(tc.Header())
		if !ok || back != tc {
			t.Fatalf("ParseTraceparent(%q) = %+v; Header %q reparses to %+v (ok=%v)", h, tc, tc.Header(), back, ok)
		}
	})
}

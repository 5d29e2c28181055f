//go:build !race

// The race detector instruments allocations, so the zero-alloc guard only
// runs in non-race builds.

package jsonw

import "testing"

func TestAppendStringZeroAllocs(t *testing.T) {
	buf := make([]byte, 0, 256)
	s := "Zürich \xff <&> \u2028 \"q\"\n"
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendString(buf[:0], s)
		buf = AppendString(buf, []byte(s[:8]))
		buf = AppendFloat(buf, 1e-9)
	}); n != 0 {
		t.Fatalf("appending allocates %.1f times, want 0", n)
	}
}

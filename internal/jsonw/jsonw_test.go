package jsonw

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// encode is the reference: encoding/json through an Encoder without HTML
// escaping, minus the newline Encode appends.
func encode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{
		"", "plain", `<b>&"quoted"</b>`, `back\slash`, "line\u2028sep\u2029para",
		"bad \xff utf8 \xc3", "\x00\x01\b\f\n\r\t\x1f\x7f", "Zürich ✓ 😀", "\xed\xa0\x80",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := encode(t, s)
		if got := AppendString([]byte("prefix"), s); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendString(%q) = %s, encoding/json %s", s, got[len("prefix"):], want)
		}
		if got := AppendString(nil, []byte(s)); !bytes.Equal(got, want) {
			t.Fatalf("AppendString([]byte(%q)) = %s, encoding/json %s", s, got, want)
		}
	})
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	check := func(f float64) bool {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
		got, want := AppendFloat(nil, f), encode(t, f)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, encoding/json %s", f, got, want)
			return false
		}
		return true
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-7, -1e-7, 1e-6, 9.99999e-7, 1e20, 1e21, -1e21,
		123456789.125, 1.5e300, math.MaxFloat64, math.SmallestNonzeroFloat64,
		2.2250738585072014e-308 / 3, 0.1 + 0.2, 3.14159e-10, 12.75,
	} {
		check(f)
	}
	rng := rand.New(rand.NewSource(1))
	cfg := &quick.Config{MaxCount: 20000}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		check(math.Float64frombits(rng.Uint64()))
		check(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25)))
	}
}

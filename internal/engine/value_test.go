package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// randomValue draws from every kind, biased towards the values where
// number formatting and key equality are subtle: ±0, ±Inf, NaNs with
// different payloads, integers around 2^53 and the floats they round to,
// and dates with and without a time of day.
func randomValue(rng *rand.Rand) Value {
	const p53 = 1 << 53
	switch rng.Intn(12) {
	case 0:
		return Null()
	case 1:
		return Str([]string{"", "1", "f:1", "x", "Zürich"}[rng.Intn(5)])
	case 2:
		return Int([]int64{0, 1, -1, p53 - 1, p53, p53 + 1, -p53 - 1, math.MaxInt64, math.MinInt64}[rng.Intn(9)])
	case 3:
		return Int(rng.Int63n(2000) - 1000)
	case 4:
		return Float([]float64{0, math.Copysign(0, -1), 1, -1, 0.5, p53, p53 + 2, 1e21, 1e20, 1e-5, 1e-4,
			math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8000000000000),
			math.Float64frombits(0x7ff0000000000002), math.MaxFloat64, math.SmallestNonzeroFloat64}[rng.Intn(18)])
	case 5:
		return Float(float64(rng.Intn(2000)-1000) / 4)
	case 6:
		return Float(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)))
	case 7:
		return Float(math.Float64frombits(rng.Uint64()))
	case 8:
		return Date(1970+rng.Intn(3), time.Month(1+rng.Intn(2)), 1+rng.Intn(2))
	case 9:
		t := time.Date(1970+rng.Intn(3), time.Month(1+rng.Intn(2)), 1+rng.Intn(2), rng.Intn(24), 0, 0, 0, time.UTC)
		return Value{Kind: KDate, T: t}
	case 10:
		return Bool(rng.Intn(2) == 0)
	default:
		return Date(1+rng.Intn(12000), time.Month(1+rng.Intn(12)), 1+rng.Intn(28))
	}
}

// sprintfKey and sprintfString are Key and String as fmt.Sprintf forms.
func sprintfKey(v Value) string {
	switch v.Kind {
	case KNull:
		return "n:"
	case KString:
		return "s:" + v.S
	case KInt:
		return fmt.Sprintf("f:%g", float64(v.I))
	case KFloat:
		return fmt.Sprintf("f:%g", v.F)
	case KDate:
		return "d:" + v.T.Format("2006-01-02")
	case KBool:
		return map[bool]string{true: "b:1", false: "b:0"}[v.B]
	}
	return "?"
}

func sprintfString(v Value) string {
	switch v.Kind {
	case KNull:
		return "NULL"
	case KString:
		return v.S
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KFloat:
		return fmt.Sprintf("%g", v.F)
	case KDate:
		return v.T.Format("2006-01-02")
	case KBool:
		return fmt.Sprint(v.B)
	}
	return "?"
}

type valuePair struct{ A, B Value }

func (valuePair) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valuePair{randomValue(rng), randomValue(rng)})
}

// Key and String print exactly what their fmt.Sprintf forms print.
func TestValueFormattingQuick(t *testing.T) {
	f := func(p valuePair) bool {
		return p.A.Key() == sprintfKey(p.A) && p.A.String() == sprintfString(p.A)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// Two non-NULL values have equal hash-join keys exactly when their Key
// strings are equal, so the typed keys join what string keys joined.
func TestJoinKeyMatchesValueKeyQuick(t *testing.T) {
	f := func(p valuePair) bool {
		if p.A.IsNull() || p.B.IsNull() {
			return true
		}
		return (keyOf(p.A) == keyOf(p.B)) == (p.A.Key() == p.B.Key())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50000}); err != nil {
		t.Fatal(err)
	}
}

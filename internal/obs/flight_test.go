package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func sample(trace string, dur time.Duration, status int, outcome string) FlightSample {
	return FlightSample{
		TraceID:   trace,
		RequestID: "req-" + trace,
		Method:    "POST",
		Path:      "/search",
		Status:    status,
		Start:     time.Unix(1700000000, 0),
		Dur:       dur,
		Outcome:   outcome,
	}
}

func TestFlightRecorderSlowClassification(t *testing.T) {
	f := NewFlightRecorder(9, time.Millisecond, 20*time.Millisecond)

	if slo := f.Record(sample("a", 500*time.Microsecond, 200, "hit")); slo != 0 {
		t.Fatal("fast hit classified slow")
	}
	if slo := f.Record(sample("b", 2*time.Millisecond, 200, "hit")); slo != time.Millisecond {
		t.Fatalf("2ms hit exceeded %v, want the 1ms hit SLO", slo)
	}
	if slo := f.Record(sample("c", 2*time.Millisecond, 200, "cold")); slo != 0 {
		t.Fatal("2ms cold classified slow against 20ms SLO")
	}
	if slo := f.Record(sample("d", 30*time.Millisecond, 200, "cold")); slo != 20*time.Millisecond {
		t.Fatalf("30ms cold exceeded %v, want the 20ms cold SLO", slo)
	}

	st := f.Stats()
	if st.Recorded != 4 {
		t.Fatalf("Recorded = %d, want 4", st.Recorded)
	}
	if st.Notable != 2 {
		t.Fatalf("Notable = %d, want 2", st.Notable)
	}
	if st.SlowestTraceID != "d" {
		t.Fatalf("SlowestTraceID = %q, want d", st.SlowestTraceID)
	}
}

func TestFlightRecorderGetAndList(t *testing.T) {
	f := NewFlightRecorder(9, time.Millisecond, 20*time.Millisecond)
	f.Record(sample("aaa", time.Millisecond, 200, "cold"))
	f.Record(sample("bbb", 2*time.Millisecond, 500, "cold"))

	e, ok := f.Get("bbb")
	if !ok {
		t.Fatal("Get(bbb) missed")
	}
	if e.Status != 500 || e.TraceID != "bbb" {
		t.Fatalf("Get(bbb) = %+v", e)
	}
	if _, ok := f.Get("req-aaa"); !ok {
		t.Fatal("Get by request id missed")
	}
	if _, ok := f.Get("zzz"); ok {
		t.Fatal("Get(zzz) hit")
	}

	list := f.List(0)
	if len(list) != 2 {
		t.Fatalf("List = %d entries, want 2", len(list))
	}
	if list[0].TraceID != "bbb" || list[1].TraceID != "aaa" {
		t.Fatalf("List not newest-first: %q then %q", list[0].TraceID, list[1].TraceID)
	}
	if got := f.List(1); len(got) != 1 || got[0].TraceID != "bbb" {
		t.Fatalf("List(1) = %+v", got)
	}
}

// TestFlightRecorderNotableSurvivesFlood pins the retention contract: a
// flood of fast, healthy requests must never evict an over-SLO trace.
func TestFlightRecorderNotableSurvivesFlood(t *testing.T) {
	f := NewFlightRecorder(30, time.Millisecond, 20*time.Millisecond)
	f.Record(sample("slowone", 50*time.Millisecond, 200, "cold"))
	for i := 0; i < 10000; i++ {
		f.Record(sample(fmt.Sprintf("fast%d", i), 10*time.Microsecond, 200, "hit"))
	}
	if _, ok := f.Get("slowone"); !ok {
		t.Fatal("over-SLO trace evicted by normal traffic")
	}
	if st := f.Stats(); st.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0 (no notable overwrote notable)", st.Dropped)
	}
}

// TestFlightRecorderConcurrentNotable drives concurrent writers (run
// under -race in CI) and asserts over-SLO traces are only ever displaced
// by other notable traces — each loss is accounted in Dropped, and the
// kept ring stays full of notable entries.
func TestFlightRecorderConcurrentNotable(t *testing.T) {
	const (
		writers   = 8
		perWriter = 500
		slowEvery = 10 // every 10th request is over-SLO
		ringSize  = 64
	)
	f := NewFlightRecorder(ringSize, time.Millisecond, 20*time.Millisecond)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				dur := 10 * time.Microsecond
				outcome := "hit"
				if i%slowEvery == 0 {
					dur = 40 * time.Millisecond
					outcome = "cold"
				}
				f.Record(sample(fmt.Sprintf("w%d-%d", w, i), dur, 200, outcome))
			}
		}(w)
	}
	wg.Wait()

	st := f.Stats()
	if st.Recorded != writers*perWriter {
		t.Fatalf("Recorded = %d, want %d", st.Recorded, writers*perWriter)
	}
	notableTotal := uint64(writers * perWriter / slowEvery)
	// Every notable trace is either still retained or was displaced by a
	// newer notable trace (counted in Dropped). Normal traffic never
	// evicts one, so retained + dropped must cover all of them.
	if uint64(st.Notable)+st.Dropped != notableTotal {
		t.Fatalf("notable retained (%d) + dropped (%d) = %d, want %d",
			st.Notable, st.Dropped, uint64(st.Notable)+st.Dropped, notableTotal)
	}
	// The kept ring must be full of slow traces.
	slowRetained := 0
	for _, e := range f.List(0) {
		if e.Slow {
			slowRetained++
		}
	}
	if slowRetained < st.Notable {
		t.Fatalf("only %d slow traces visible, kept ring holds %d", slowRetained, st.Notable)
	}
}

// TestFlightRecordAllocFree pins the hot-path contract the zero-alloc
// /search guard depends on: recording a sample with pre-existing strings
// does not allocate.
func TestFlightRecordAllocFree(t *testing.T) {
	f := NewFlightRecorder(16, time.Millisecond, 20*time.Millisecond)
	s := sample("steady", 10*time.Microsecond, 200, "hit")
	allocs := testing.AllocsPerRun(200, func() {
		f.Record(s)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v allocs/op, want 0", allocs)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	if slo := f.Record(sample("x", time.Hour, 500, "cold")); slo != 0 {
		t.Fatal("nil recorder classified slow")
	}
	if st := f.Stats(); st.Size != 0 {
		t.Fatal("nil recorder has size")
	}
	if got := f.List(10); got != nil {
		t.Fatal("nil recorder listed entries")
	}
	if _, ok := f.Get("x"); ok {
		t.Fatal("nil recorder hit Get")
	}
}

package soda

import (
	"testing"
	"time"
)

// BenchmarkBoot measures a fresh warehouse boot the way sodad performs it
// (with a data dir it also opens the store, which holds only durable
// state): one op builds the world, connects a System and warms it. Connect starts the inverted-index build on its own goroutine and
// Warm compiles the schema model, bridges and join graph beside it, so
// run it at -cpu 1,2: the overlap can only help when a second CPU is idle.
//
// It reports each phase's wall time per op. world-ms builds the world
// (base data and metadata graph). index-ms runs from Connect until the
// index is ready. warm-ms is the Warm call, which waits for the index
// before its label pass, so at -cpu 2 the boot takes about world-ms plus
// the larger of index-ms and warm-ms.
func BenchmarkBoot(b *testing.B) {
	b.ReportAllocs()
	var world, index, warm time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		w := Warehouse(WarehouseConfig{})
		connect := time.Now()
		world += connect.Sub(start)
		sys, err := Connect(w, Options{})
		if err != nil {
			b.Fatal(err)
		}
		ready := make(chan time.Time, 1)
		go func() {
			sys.sys.Index()
			ready <- time.Now()
		}()
		warmStart := time.Now()
		sys.Warm()
		warm += time.Since(warmStart)
		index += (<-ready).Sub(connect)
	}
	perOp := func(d time.Duration) float64 { return d.Seconds() * 1000 / float64(b.N) }
	b.ReportMetric(perOp(world), "world-ms")
	b.ReportMetric(perOp(index), "index-ms")
	b.ReportMetric(perOp(warm), "warm-ms")
}

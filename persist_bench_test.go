package soda

import (
	"testing"
	"time"
)

// BenchmarkWarmStart compares the two boot paths on both corpora: a warm
// Open that restores the inverted index and metadata graph from a
// prebaked state-store snapshot, versus the cold rebuild that scans every
// text column of the base data. The world's base data is regenerated
// outside the timer in both arms — it is not derived state and both paths
// pay it equally — so the numbers isolate exactly what the snapshot
// saves: index construction versus snapshot decode.
func BenchmarkWarmStart(b *testing.B) {
	corpora := []struct {
		name string
		mk   func() *World
	}{
		{"minibank", MiniBank},
		{"warehouse", func() *World { return Warehouse(WarehouseConfig{}) }},
	}
	for _, c := range corpora {
		b.Run(c.name, func(b *testing.B) {
			dir := b.TempDir()
			sys, err := Open(c.mk(), Options{}, dir)
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.Close(); err != nil {
				b.Fatal(err)
			}
			b.Run("warm", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					w := c.mk()
					b.StartTimer()
					sys, err := Open(w, Options{}, dir)
					if err != nil {
						b.Fatal(err)
					}
					if !sys.StoreStats().WarmStart {
						b.Fatal("expected a warm start from the prebaked snapshot")
					}
					b.StopTimer()
					if err := sys.Close(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			})
			b.Run("cold", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					w := c.mk()
					b.StartTimer()
					NewSystem(w, Options{})
				}
			})
		})
	}
}

// BenchmarkBoot measures a fresh warehouse boot the way sodad performs it
// without a data dir: one op builds the world, connects a System and warms
// it. Connect starts the inverted-index build on its own goroutine and
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

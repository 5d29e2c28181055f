package soda

import "testing"

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
func BenchmarkBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := Connect(Warehouse(WarehouseConfig{}), Options{})
		if err != nil {
			b.Fatal(err)
		}
		sys.Warm()
	}
}

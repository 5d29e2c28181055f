package memory_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"soda/internal/backend/memory"
	"soda/internal/sqlparse"
	"soda/internal/warehouse"
)

// TestExecObservesCancellation: a warehouse cross product of 2,255 × 2,255
// × 8 tuples, which takes 1.7 s uncancelled on a 2-core x86-64 VM, returns
// context.Canceled within 100ms of the cancel.
func TestExecObservesCancellation(t *testing.T) {
	db := warehouse.BuildNoIndex(warehouse.Default()).DB
	sel := sqlparse.MustParse("SELECT count(*) FROM trade_order_td a, trade_order_td b, curr_td")
	ctx, cancel := context.WithCancel(context.Background())
	var cancelled time.Time
	timer := time.AfterFunc(50*time.Millisecond, func() {
		cancelled = time.Now()
		cancel()
	})
	defer timer.Stop()
	_, err := memory.New(db).Exec(ctx, sel)
	<-ctx.Done()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Exec = %v, want context.Canceled", err)
	}
	if d := time.Since(cancelled); d > 100*time.Millisecond {
		t.Fatalf("Exec returned %v after the cancel, want within 100ms", d)
	}
}

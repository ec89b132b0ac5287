package budget

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestBudgetEnabled(t *testing.T) {
	cases := []struct {
		b    Budget
		want bool
	}{
		{Budget{}, false},
		{Budget{MaxPageReads: 1}, true},
		{Budget{MaxWall: time.Millisecond}, true},
		{Budget{MaxEstimations: 1}, true},
	}
	for _, tc := range cases {
		if got := tc.b.Enabled(); got != tc.want {
			t.Errorf("Enabled(%+v) = %v, want %v", tc.b, got, tc.want)
		}
	}
}

func TestBudgetTrackerCharging(t *testing.T) {
	tr := NewTracker(Budget{MaxPageReads: 10, MaxEstimations: 5})
	if err := tr.Exceeded(); err != nil {
		t.Fatalf("fresh tracker exceeded: %v", err)
	}
	tr.ChargePages(9)
	if err := tr.Exceeded(); err != nil {
		t.Fatalf("9 of 10 pages: %v", err)
	}
	tr.ChargePages(1)
	err := tr.Exceeded()
	if !errors.Is(err, ErrExceeded) {
		t.Fatalf("10 of 10 pages: err = %v, want ErrExceeded", err)
	}
	var be *Error
	if !errors.As(err, &be) || be.Dimension != DimPages || be.Used != 10 || be.Limit != 10 {
		t.Fatalf("error detail = %+v, want pages 10/10", be)
	}
}

func TestBudgetTrackerEstimations(t *testing.T) {
	tr := NewTracker(Budget{MaxEstimations: 3})
	tr.ChargeEstimations(2)
	if err := tr.Exceeded(); err != nil {
		t.Fatalf("2 of 3: %v", err)
	}
	tr.ChargeEstimations(1)
	var be *Error
	if err := tr.Exceeded(); !errors.As(err, &be) || be.Dimension != DimEstimations {
		t.Fatalf("err = %v, want estimations exhaustion", err)
	}
}

func TestBudgetTrackerWaive(t *testing.T) {
	tr := NewTracker(Budget{MaxPageReads: 1, MaxEstimations: 1})
	tr.ChargePages(5)
	tr.ChargeEstimations(5)
	var be *Error
	if err := tr.Exceeded(); !errors.As(err, &be) || be.Dimension != DimPages {
		t.Fatalf("err = %v, want page exhaustion first", err)
	}
	tr.Waive(DimPages)
	if err := tr.Exceeded(); !errors.As(err, &be) || be.Dimension != DimEstimations {
		t.Fatalf("after waiving pages err = %v, want estimations exhaustion", err)
	}
	tr.Waive(DimEstimations)
	if err := tr.Exceeded(); err != nil {
		t.Fatalf("all dimensions waived, still exceeded: %v", err)
	}
}

func TestBudgetTrackerWall(t *testing.T) {
	tr := NewTracker(Budget{MaxWall: time.Nanosecond})
	time.Sleep(time.Millisecond)
	var be *Error
	if err := tr.Exceeded(); !errors.As(err, &be) || be.Dimension != DimWall {
		t.Fatalf("err = %v, want wall exhaustion", err)
	}
	if _, ok := tr.WallDeadline(); !ok {
		t.Fatal("WallDeadline absent with MaxWall set")
	}
	tr.Waive(DimWall)
	if _, ok := tr.WallDeadline(); ok {
		t.Fatal("WallDeadline still set after waiving wall")
	}
}

func TestBudgetTrackerConcurrentCharging(t *testing.T) {
	tr := NewTracker(Budget{MaxPageReads: 1 << 30})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.ChargePages(1)
				tr.ChargeEstimations(2)
			}
		}()
	}
	wg.Wait()
	if got := tr.PageReads(); got != 8000 {
		t.Errorf("PageReads = %d, want 8000", got)
	}
	if got := tr.Estimations(); got != 16000 {
		t.Errorf("Estimations = %d, want 16000", got)
	}
}

func TestBudgetWithContextErrOrder(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	tr := NewTracker(Budget{MaxPageReads: 1})
	ctx, done := WithContext(parent, tr)
	defer done()

	if err := ctx.Err(); err != nil {
		t.Fatalf("fresh budget ctx: %v", err)
	}
	if From(ctx) != tr {
		t.Fatal("From(ctx) did not return the attached tracker")
	}
	tr.ChargePages(1)
	if err := ctx.Err(); !errors.Is(err, ErrExceeded) {
		t.Fatalf("err = %v, want ErrExceeded", err)
	}
	// Parent cancellation takes precedence over budget exhaustion.
	cancel()
	if err := ctx.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled to win over budget", err)
	}
}

func TestBudgetWithContextWallDeadline(t *testing.T) {
	tr := NewTracker(Budget{MaxWall: 5 * time.Millisecond})
	ctx, cancel := WithContext(context.Background(), tr)
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Fatal("wall budget must install a real deadline for Done-based waiters")
	}
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("Done never fired after the wall budget expired")
	}
	// Err reports the budget sentinel, not the inner deadline.
	if err := ctx.Err(); !errors.Is(err, ErrExceeded) {
		t.Fatalf("err = %v, want ErrExceeded", err)
	}
}

func TestBudgetFromPlainContext(t *testing.T) {
	if From(context.Background()) != nil {
		t.Fatal("From on a plain context must be nil")
	}
}

package throughput

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// The driver with fake legs — no runtime, no clock: leg order, the exact
// task split, the ratio direction, the median/quartile verdict, and where
// a sweep stops.
func TestPairedRoundsDriver(t *testing.T) {
	ctx := context.Background()

	// Legs run arm 0…k then k…0 each round, and every arm executes exactly
	// tasks in total — small counts shrink the round count, never a leg
	// below zero.
	const rounds = 3
	for _, tasks := range []int{1, 2, 2*rounds - 1, 1000} {
		var order []int
		perArm := make([]int, 3)
		_, err := pairedRounds(ctx, tasks, rounds, 3, 0, false, func(arm, n int) (time.Duration, error) {
			if n < 0 {
				t.Fatalf("tasks=%d: arm %d got a negative leg (%d)", tasks, arm, n)
			}
			order = append(order, arm)
			perArm[arm] += n
			return time.Millisecond, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		wantRounds := max(min(rounds, tasks/2), 1)
		var wantOrder []int
		for r := 0; r < wantRounds; r++ {
			wantOrder = append(wantOrder, 0, 1, 2, 2, 1, 0)
		}
		if !reflect.DeepEqual(order, wantOrder) {
			t.Errorf("tasks=%d: leg order %v, want %v", tasks, order, wantOrder)
		}
		for arm, got := range perArm {
			if got != tasks {
				t.Errorf("tasks=%d: arm %d executed %d in total", tasks, arm, got)
			}
		}
	}

	// Synthetic durations: arm 1 takes, per round, 1/2, 1/4 and 1/8 of the
	// baseline's time (4 rounds: 1/2, 1/4, 1/8, 1/8), arm 2 always twice it.
	// A speedup is baseline÷arm, an overhead arm÷baseline; the verdict is
	// the median of the per-round ratios with their quartiles.
	perRound := func(rounds int, overhead bool) []armResult {
		t.Helper()
		calls := 0
		res, err := pairedRounds(ctx, 1000, rounds, 3, 0, overhead, func(arm, n int) (time.Duration, error) {
			round := calls / 6
			calls++
			switch arm {
			case 1:
				return 8 * time.Millisecond >> min(round+1, 3), nil
			case 2:
				return 16 * time.Millisecond, nil
			}
			return 8 * time.Millisecond, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := perRound(3, false)
	if got, want := res[1].ratio, (PairedRatio{Median: 4, Q1: 3, Q3: 6, Rounds: 3}); got != want {
		t.Errorf("speedup verdict %+v, want %+v", got, want)
	}
	if got, want := res[2].ratio, (PairedRatio{Median: 0.5, Q1: 0.5, Q3: 0.5, Rounds: 3}); got != want {
		t.Errorf("constant-ratio verdict %+v, want %+v", got, want)
	}
	if res[0].ratio != (PairedRatio{}) {
		t.Errorf("baseline arm carries a verdict: %+v", res[0].ratio)
	}
	if got, want := res[1].elapsed, 2*(4+2+1)*time.Millisecond; got != want {
		t.Errorf("arm 1 total elapsed %v, want %v", got, want)
	}
	if got := res[1].ratio.IQR(); got != 3 {
		t.Errorf("IQR %v, want 3", got)
	}
	// An even round count averages the middle pair: ratios 2, 4, 8, 8.
	if got := perRound(4, false)[1].ratio.Median; got != 6 {
		t.Errorf("even-count median %v, want 6", got)
	}
	res = perRound(3, true)
	if got, want := res[1].ratio, (PairedRatio{Median: 0.25, Q1: 0.1875, Q3: 0.375, Rounds: 3}); got != want {
		t.Errorf("overhead verdict %+v, want %+v", got, want)
	}
	if got := res[2].ratio.Median; got != 2 {
		t.Errorf("overhead of the 2x arm = %v, want 2", got)
	}

	// Rounds that measured no time contribute no ratio: the verdict is 0.
	res, err := pairedRounds(ctx, 100, rounds, 2, 0, false, func(int, int) (time.Duration, error) { return 0, nil })
	if err != nil || res[1].ratio != (PairedRatio{}) {
		t.Errorf("zero-duration legs: verdict %+v, err %v; want the zero verdict", res[1].ratio, err)
	}

	// A leg error or a cancelled context stops the sweep at that leg.
	boom := errors.New("boom")
	calls := 0
	if _, err := pairedRounds(ctx, 100, rounds, 2, 0, false, func(arm, n int) (time.Duration, error) {
		if calls++; calls == 3 {
			return 0, fmt.Errorf("leg %d: %w", calls, boom)
		}
		return time.Millisecond, nil
	}); !errors.Is(err, boom) || calls != 3 {
		t.Errorf("leg error: err %v after %d legs, want boom after 3", err, calls)
	}
	cctx, cancel := context.WithCancel(ctx)
	calls = 0
	if _, err := pairedRounds(cctx, 100, rounds, 2, 0, false, func(arm, n int) (time.Duration, error) {
		if calls++; calls == 2 {
			cancel()
		}
		return time.Millisecond, nil
	}); err != context.Canceled || calls != 2 {
		t.Errorf("cancellation: err %v after %d legs, want context.Canceled after 2", err, calls)
	}
}

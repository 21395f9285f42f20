package runtime

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// The runtime's two timed waits, on an idle pool: a 200 µs retry backoff
// and a 200 µs deadline must each take at most 300 µs at the p50. Without
// the alarm beside their Go timers both read ~1.07 ms, because an idle
// process waits for its timers in a millisecond-rounded epoll_wait.
const waitAsked, keptTime = 200 * time.Microsecond, 300 * time.Microsecond

// keepsTime times 200 waits, each after an idle gap long enough for every
// worker to park, and fails unless one of three attempts reads a p50 of at
// most keptTime. A loaded host only ever makes a wake-up later, so the
// best attempt is the wait's own figure.
func keepsTime(t *testing.T, what string, wait func() time.Duration) {
	t.Helper()
	if raceEnabled {
		t.Skip("a timing check; under the race detector it would time the detector")
	}
	var p50 time.Duration
	for attempt := 1; attempt <= 3; attempt++ {
		took := make([]time.Duration, 200)
		for i := range took {
			time.Sleep(3 * time.Millisecond)
			took[i] = wait()
		}
		slices.Sort(took)
		if p50 = took[len(took)/2]; p50 <= keptTime {
			t.Logf("attempt %d: %v %s p50 %v", attempt, waitAsked, what, p50)
			return
		}
	}
	t.Fatalf("%v %s p50 %v, want ≤ %v: the idle wait rounds to the millisecond again", waitAsked, what, p50, keptTime)
}

// TestRetryBackoffKeepsTime: from a failed attempt to its retry.
func TestRetryBackoffKeepsTime(t *testing.T) {
	r := New(WithWorkers(2))
	defer r.Shutdown()
	keepsTime(t, "retry backoff, failure → retried attempt,", func() time.Duration {
		var failed, retried time.Time
		attempts := 0
		if _, err := r.SubmitBatch([]TaskSpec{{
			Name: "flaky", Retry: RetryPolicy{Max: 1, Backoff: waitAsked},
			Body: func(context.Context) error {
				if attempts++; attempts == 1 {
					failed = time.Now()
					return errors.New("the first attempt fails")
				}
				retried = time.Now()
				return nil
			},
		}}); err != nil {
			t.Fatal(err)
		}
		if err := r.WaitCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		return retried.Sub(failed)
	})
}

// TestDeadlineKeepsTime: from the body's start to the task's
// DeadlineError, for a body that ignores its context.
func TestDeadlineKeepsTime(t *testing.T) {
	r := New(WithWorkers(2))
	defer r.Shutdown()
	keepsTime(t, "deadline, start → DeadlineError,", func() time.Duration {
		var started atomic.Int64
		var ended time.Time
		var end error
		release := make(chan struct{})
		defer close(release)
		if _, err := r.SubmitBatch([]TaskSpec{{
			Name: "overrun", Deadline: waitAsked,
			Body: func(context.Context) error {
				started.Store(time.Now().UnixNano())
				<-release
				return nil
			},
			OnDone: func(err error) { ended, end = time.Now(), err },
		}}); err != nil {
			t.Fatal(err)
		}
		r.Wait()
		if de := (*DeadlineError)(nil); !errors.As(end, &de) {
			t.Fatalf("the overrunning task ended with %v, want a *DeadlineError", end)
		}
		return time.Duration(ended.UnixNano() - started.Load())
	})
}

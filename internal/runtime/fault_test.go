package runtime

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestPanicIsolation: a panicking body does not kill the worker — the task
// fails with an errors.As-able *PanicError carrying the stack, the pool
// keeps executing, and the panic is surfaced by Err/WaitCtx.
func TestPanicIsolation(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		r := New(WithWorkers(4), WithScheduler(kind))
		defer r.Shutdown()
		var after atomic.Int64
		specs := make([]TaskSpec, 64)
		for i := range specs {
			boom := i == 10
			specs[i] = TaskSpec{Name: "p", Cost: 1, Body: func(context.Context) error {
				if boom {
					panic("kaboom")
				}
				after.Add(1)
				return nil
			}}
		}
		if _, err := r.SubmitBatch(specs); err != nil {
			t.Fatal(err)
		}
		err := r.WaitCtx(context.Background())
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("WaitCtx error %v, want a *PanicError", err)
		}
		if pe.Value != "kaboom" || len(pe.Stack) == 0 || !strings.Contains(pe.Error(), "kaboom") {
			t.Fatalf("PanicError poorly formed: value=%v stack=%dB", pe.Value, len(pe.Stack))
		}
		if got := after.Load(); got != 63 {
			t.Fatalf("executed %d healthy tasks, want 63 — did a worker die?", got)
		}
		st := r.Stats()
		if st.Panics != 1 || st.Quarantined != 1 {
			t.Fatalf("stats: panics=%d quarantined=%d, want 1/1", st.Panics, st.Quarantined)
		}
	})
}

// TestRetryThenSucceed: a transiently failing body re-enters the scheduler
// under its RetryPolicy, sees its attempt count through TaskPlacement, and
// the task (and the run) ends clean.
func TestRetryThenSucceed(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		r := New(WithWorkers(4), WithScheduler(kind))
		defer r.Shutdown()
		var attempts atomic.Int64
		var seen atomic.Int64 // the Placement.Attempt of the successful run
		specs := []TaskSpec{{
			Name: "flaky", Cost: 1,
			Retry: RetryPolicy{Max: 3, Backoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond},
			Body: func(ctx context.Context) error {
				if attempts.Add(1) <= 2 {
					return errors.New("transient")
				}
				if p, ok := TaskPlacement(ctx); ok {
					seen.Store(int64(p.Attempt))
				}
				return nil
			},
		}}
		if _, err := r.SubmitBatch(specs); err != nil {
			t.Fatal(err)
		}
		if err := r.WaitCtx(context.Background()); err != nil {
			t.Fatalf("retried task still failed: %v", err)
		}
		if attempts.Load() != 3 {
			t.Fatalf("body ran %d times, want 3", attempts.Load())
		}
		if seen.Load() != 2 {
			t.Fatalf("successful run saw Placement.Attempt=%d, want 2", seen.Load())
		}
		st := r.Stats()
		if st.Retries != 2 {
			t.Fatalf("stats.Retries=%d, want 2", st.Retries)
		}
		if st.Executed != 1 {
			t.Fatalf("stats.Executed=%d, want 1 (retried attempts are not terminal)", st.Executed)
		}
	})
}

// TestRetryBudgetExhausted: a body that panics on every attempt runs
// exactly Max+1 times, terminally fails with the panic, and is counted
// quarantined — never retried forever.
func TestRetryBudgetExhausted(t *testing.T) {
	r := New(WithWorkers(2))
	defer r.Shutdown()
	var attempts atomic.Int64
	var hookErr atomic.Pointer[error]
	specs := []TaskSpec{{
		Name: "poison", Cost: 1,
		Retry: RetryPolicy{Max: 2},
		Body: func(context.Context) error {
			attempts.Add(1)
			panic("always")
		},
		OnDone: func(err error) { hookErr.Store(&err) },
	}}
	if _, err := r.SubmitBatch(specs); err != nil {
		t.Fatal(err)
	}
	err := r.WaitCtx(context.Background())
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if attempts.Load() != 3 {
		t.Fatalf("body ran %d times, want 3 (1 + Max retries)", attempts.Load())
	}
	if he := hookErr.Load(); he == nil || !errors.As(*he, &pe) {
		t.Fatal("OnDone did not receive the terminal PanicError")
	}
	st := r.Stats()
	if st.Panics != 3 || st.Retries != 2 || st.Quarantined != 1 {
		t.Fatalf("stats: panics=%d retries=%d quarantined=%d, want 3/2/1", st.Panics, st.Retries, st.Quarantined)
	}
}

// TestDeadlineDoesNotBlockWorker: a body that ignores its context and
// overruns its deadline fails with *DeadlineError promptly — the pool (and
// the same worker) keeps executing other work while the zombie body stalls.
func TestDeadlineDoesNotBlockWorker(t *testing.T) {
	r := New(WithWorkers(1)) // one worker: any blocking would stall everything
	defer r.Shutdown()
	release := make(chan struct{})
	var after atomic.Int64
	specs := []TaskSpec{
		{Name: "zombie", Cost: 1, Deadline: 2 * time.Millisecond,
			Body: func(context.Context) error {
				<-release // ignores ctx: the runtime must abandon, not wait
				return nil
			}},
		{Name: "next", Cost: 1, Body: func(context.Context) error { after.Add(1); return nil }},
	}
	if _, err := r.SubmitBatch(specs); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.WaitCtx(context.Background()) }()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pool stalled behind an overrunning body")
	}
	close(release)
	var de *DeadlineError
	if !errors.As(err, &de) || de.Limit != 2*time.Millisecond {
		t.Fatalf("got %v, want *DeadlineError{Limit: 2ms}", err)
	}
	if after.Load() != 1 {
		t.Fatal("the worker never ran the task behind the zombie")
	}
	if st := r.Stats(); st.DeadlineMisses != 1 {
		t.Fatalf("stats.DeadlineMisses=%d, want 1", st.DeadlineMisses)
	}
}

// TestDeadlineCooperativeBody: a body that honours its context returns the
// deadline verdict itself; either way the task fails with a typed error
// and the attempt can retry into a clean run.
func TestDeadlineCooperativeBody(t *testing.T) {
	r := New(WithWorkers(2))
	defer r.Shutdown()
	var attempts atomic.Int64
	specs := []TaskSpec{{
		Name: "slow-then-fast", Cost: 1,
		Deadline: 5 * time.Millisecond,
		Retry:    RetryPolicy{Max: 1},
		Body: func(ctx context.Context) error {
			if attempts.Add(1) == 1 {
				<-ctx.Done() // cooperative: observe the bound
				return ctx.Err()
			}
			return nil
		},
	}}
	if _, err := r.SubmitBatch(specs); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitCtx(context.Background()); err != nil {
		t.Fatalf("retry after deadline miss failed: %v", err)
	}
	if attempts.Load() != 2 {
		t.Fatalf("body ran %d times, want 2", attempts.Load())
	}
}

// TestPanicPoisonsSuccessors: a terminal panic skip-propagates — every
// transitive successor is skipped with a *SkipError unwrapping to the root
// *PanicError, and OnDone still fires exactly once per task.
func TestPanicPoisonsSuccessors(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		r := New(WithWorkers(4), WithScheduler(kind))
		defer r.Shutdown()
		var ran, skipped atomic.Int64
		var hooks atomic.Int64
		hook := func(err error) {
			hooks.Add(1)
			var se *SkipError
			if errors.As(err, &se) {
				skipped.Add(1)
				var pe *PanicError
				if !errors.As(se, &pe) {
					t.Errorf("SkipError cause %v does not unwrap to the root panic", se.Cause)
				}
			}
		}
		specs := []TaskSpec{
			{Name: "root", Cost: 1, Deps: []Dep{Out("k")}, OnDone: hook,
				Body: func(context.Context) error { panic("root down") }},
			{Name: "mid", Cost: 1, Deps: []Dep{InOut("k")}, OnDone: hook,
				Body: func(context.Context) error { ran.Add(1); return nil }},
			{Name: "leaf", Cost: 1, Deps: []Dep{In("k")}, OnDone: hook,
				Body: func(context.Context) error { ran.Add(1); return nil }},
		}
		if _, err := r.SubmitBatch(specs); err != nil {
			t.Fatal(err)
		}
		r.Wait()
		if ran.Load() != 0 || skipped.Load() != 2 || hooks.Load() != 3 {
			t.Fatalf("ran=%d skipped=%d hooks=%d, want 0/2/3", ran.Load(), skipped.Load(), hooks.Load())
		}
		st := r.Stats()
		if st.Skipped != 2 || st.Quarantined != 3 {
			t.Fatalf("stats: skipped=%d quarantined=%d, want 2/3", st.Skipped, st.Quarantined)
		}
	})
}

// TestPlainBodyErrorDoesNotPoison: an error-returning (non-panicking) body
// keeps today's semantics — successors still run.
func TestPlainBodyErrorDoesNotPoison(t *testing.T) {
	r := New(WithWorkers(2))
	defer r.Shutdown()
	var ran atomic.Int64
	specs := []TaskSpec{
		{Name: "fail", Cost: 1, Deps: []Dep{Out("k")},
			Body: func(context.Context) error { return errors.New("plain") }},
		{Name: "succ", Cost: 1, Deps: []Dep{In("k")},
			Body: func(context.Context) error { ran.Add(1); return nil }},
	}
	if _, err := r.SubmitBatch(specs); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if ran.Load() != 1 {
		t.Fatal("a plain body error must not poison successors")
	}
}

// TestPanicInOnDoneContained: a panicking completion hook is recovered —
// the worker survives, later work executes, and the panic surfaces as a
// *PanicError through Err.
func TestPanicInOnDoneContained(t *testing.T) {
	r := New(WithWorkers(1))
	defer r.Shutdown()
	var after atomic.Int64
	if _, err := r.SubmitBatch([]TaskSpec{{
		Name: "hook-bomb", Cost: 1,
		Body:   func(context.Context) error { return nil },
		OnDone: func(error) { panic("hook boom") },
	}}); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if _, err := r.SubmitBatch([]TaskSpec{{
		Name: "after", Cost: 1,
		Body: func(context.Context) error { after.Add(1); return nil },
	}}); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	var pe *PanicError
	if !errors.As(r.Err(), &pe) {
		t.Fatalf("Err() = %v, want the hook's *PanicError", r.Err())
	}
	if after.Load() != 1 {
		t.Fatal("worker died in the hook panic")
	}
}

// TestRetryBackoffDelay: the capped exponential schedule.
func TestRetryBackoffDelay(t *testing.T) {
	p := RetryPolicy{Max: 10, Backoff: 10 * time.Millisecond, MaxBackoff: 45 * time.Millisecond}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond,
		40 * time.Millisecond, 45 * time.Millisecond, 45 * time.Millisecond}
	for i, w := range want {
		if got := p.delay(i + 1); got != w {
			t.Fatalf("delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	if (RetryPolicy{Max: 1}).delay(1) != 0 {
		t.Fatal("zero Backoff must re-enqueue immediately")
	}
}

// TestRetryCancelledContextIsTerminal: a cancelled submission context makes
// a failure terminal instead of burning retries on abandoned work.
func TestRetryCancelledContextIsTerminal(t *testing.T) {
	r := New(WithWorkers(2))
	defer r.Shutdown()
	ctx, cancel := context.WithCancel(context.Background())
	var attempts atomic.Int64
	if _, err := r.SubmitBatchCtx(ctx, []TaskSpec{{
		Name: "doomed", Cost: 1,
		Retry: RetryPolicy{Max: 5},
		Body: func(context.Context) error {
			attempts.Add(1)
			cancel() // the request dies mid-attempt
			return errors.New("fail")
		},
	}}); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if attempts.Load() != 1 {
		t.Fatalf("body ran %d times after its context died, want 1", attempts.Load())
	}
}

// TestRetryBackoffEndsWithContext: a context cancelled while its tasks wait
// out a backoff ends the wait. 1 000 failed tasks park on 10 s backoffs;
// once their context is cancelled each re-arms at once and skips as
// cancelled, so Wait and Shutdown return promptly, the retry never runs,
// and every OnDone hears context.Canceled.
func TestRetryBackoffEndsWithContext(t *testing.T) {
	const n = 1000
	r := New(WithWorkers(2))
	defer r.Shutdown()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var attempts, cancelled atomic.Int64
	specs := make([]TaskSpec, n)
	for i := range specs {
		specs[i] = TaskSpec{
			Name: "parked", Retry: RetryPolicy{Max: 1, Backoff: 10 * time.Second},
			Body: func(context.Context) error {
				attempts.Add(1)
				return errors.New("fail")
			},
			OnDone: func(err error) {
				if errors.Is(err, context.Canceled) {
					cancelled.Add(1)
				}
			},
		}
	}
	if _, err := r.SubmitBatchCtx(ctx, specs); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return r.Stats().Retries == n }, "every task to start its backoff")
	cancel()
	waited := make(chan struct{})
	go func() { r.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(2 * time.Second):
		t.Fatalf("Wait still blocked 2 s after the context of %d 10 s backoffs ended", n)
	}
	if attempts.Load() != n || cancelled.Load() != n {
		t.Fatalf("%d attempts, %d tasks ended cancelled; want %d and %d", attempts.Load(), cancelled.Load(), n, n)
	}
}

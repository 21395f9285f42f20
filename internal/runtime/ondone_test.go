package runtime

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestOnDoneFiresExactlyOncePerTask: the batch path's completion hook
// runs once for every task of the batch — with a nil error on success
// and the body's error on failure — and a counter driven purely by
// hooks reaches zero exactly when the batch is finished.
func TestOnDoneFiresExactlyOncePerTask(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		r := New(WithWorkers(4), WithScheduler(kind))
		defer r.Shutdown()
		const n = 64
		boom := errors.New("boom")
		var (
			remaining atomic.Int64
			nilErrs   atomic.Int64
			boomErrs  atomic.Int64
			done      = make(chan struct{})
		)
		remaining.Store(n)
		specs := make([]TaskSpec, n)
		for i := range specs {
			fail := i%7 == 0
			specs[i] = TaskSpec{
				Name: "t",
				Body: func(context.Context) error {
					if fail {
						return boom
					}
					return nil
				},
				OnDone: func(err error) {
					if err == nil {
						nilErrs.Add(1)
					} else if errors.Is(err, boom) {
						boomErrs.Add(1)
					} else {
						t.Errorf("unexpected hook error: %v", err)
					}
					if remaining.Add(-1) == 0 {
						close(done)
					}
				},
			}
		}
		if _, err := r.SubmitBatchCtx(context.Background(), specs); err != nil {
			t.Fatal(err)
		}
		<-done // hook-driven completion, independent of Wait
		r.Wait()
		wantBoom := int64((n + 6) / 7)
		if boomErrs.Load() != wantBoom || nilErrs.Load() != n-wantBoom {
			t.Fatalf("hook errors: %d nil + %d boom, want %d + %d",
				nilErrs.Load(), boomErrs.Load(), n-wantBoom, wantBoom)
		}
		if remaining.Load() != 0 {
			t.Fatalf("remaining = %d after all hooks", remaining.Load())
		}
	})
}

// TestOnDoneFiresForSkippedTasks: tasks skipped because their context
// was cancelled still fire their hook — with the context's error — so
// per-job accounting built on hooks never hangs on a cancelled job.
func TestOnDoneFiresForSkippedTasks(t *testing.T) {
	r := New(WithWorkers(2))
	defer r.Shutdown()
	ctx, cancel := context.WithCancel(context.Background())
	const n = 16
	var (
		remaining atomic.Int64
		ctxErrs   atomic.Int64
		done      = make(chan struct{})
	)
	remaining.Store(n)
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	hook := func(err error) {
		if errors.Is(err, context.Canceled) {
			ctxErrs.Add(1)
		}
		if remaining.Add(-1) == 0 {
			close(done)
		}
	}
	// A gate task holds an out-dependence; its successors pile up behind
	// it, the context is cancelled, and only then is the gate released —
	// so the successors are dispatched post-cancel and take the skip path.
	specs := make([]TaskSpec, n)
	specs[0] = TaskSpec{
		Name: "gate",
		Body: func(context.Context) error {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
			return nil
		},
		OnDone: hook,
		Deps:   []Dep{Out("k")},
	}
	for i := 1; i < n; i++ {
		specs[i] = TaskSpec{
			Name:   "succ",
			Body:   func(context.Context) error { return nil },
			OnDone: hook,
			Deps:   []Dep{InOut("k")},
		}
	}
	if _, err := r.SubmitBatchCtx(ctx, specs); err != nil {
		t.Fatal(err)
	}
	<-entered
	cancel()
	close(release)
	<-done
	r.Wait()
	// The gate ran before cancel (hook sees nil); every successor must
	// have been skipped with the context error.
	if ctxErrs.Load() != n-1 {
		t.Fatalf("skipped-task hooks with context error = %d, want %d", ctxErrs.Load(), n-1)
	}
}

// TestOnDoneHookNotInheritedByRecycledRecords: a pooled task record that
// carried a hook must not replay it when the record is recycled for a
// hook-less task.
func TestOnDoneHookNotInheritedByRecycledRecords(t *testing.T) {
	r := New(WithWorkers(1))
	defer r.Shutdown()
	var hooks atomic.Int64
	specs := []TaskSpec{{
		Name:   "hooked",
		Body:   func(context.Context) error { return nil },
		OnDone: func(error) { hooks.Add(1) },
	}}
	if _, err := r.SubmitBatchCtx(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	// Recycle the pool with hook-less tasks over both submission paths.
	for i := 0; i < 8; i++ {
		if _, err := r.SubmitCtx(context.Background(), "plain", func(context.Context) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.SubmitBatchCtx(context.Background(), []TaskSpec{{Name: "plain", Body: func(context.Context) error { return nil }}}); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if hooks.Load() != 1 {
		t.Fatalf("hook fired %d times, want exactly 1", hooks.Load())
	}
}

// TestBacklog: Backlog tracks outstanding (submitted minus completed)
// tasks — nonzero while work is held in flight, zero after Wait.
func TestBacklog(t *testing.T) {
	r := New(WithWorkers(2))
	defer r.Shutdown()
	if got := r.Backlog(); got != 0 {
		t.Fatalf("idle backlog = %d, want 0", got)
	}
	var mu sync.Mutex
	mu.Lock()
	entered := make(chan struct{}, 1)
	specs := []TaskSpec{
		{Name: "hold", Body: func(context.Context) error {
			select {
			case entered <- struct{}{}:
			default:
			}
			mu.Lock()
			//lint:ignore SA2001 gate: the lock is the gate, held by the test
			mu.Unlock()
			return nil
		}},
		{Name: "free", Body: func(context.Context) error { return nil }},
	}
	if _, err := r.SubmitBatchCtx(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	<-entered
	if got := r.Backlog(); got < 1 || got > 2 {
		t.Fatalf("backlog with a held task = %d, want 1 or 2", got)
	}
	mu.Unlock()
	r.Wait()
	if got := r.Backlog(); got != 0 {
		t.Fatalf("backlog after Wait = %d, want 0", got)
	}
}

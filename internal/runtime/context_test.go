package runtime

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// Regression: a SubmitCtx racing past Shutdown used to enqueue into a woken
// scheduler and hang the next Wait forever. It must fail fast instead.
func TestSubmitAfterShutdownErrors(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		r := New(WithWorkers(2), WithScheduler(kind))
		if _, err := r.SubmitCtx(context.Background(), "ok", func(context.Context) error { return nil }); err != nil {
			t.Fatalf("pre-shutdown submit: %v", err)
		}
		r.Shutdown()
		if _, err := r.SubmitCtx(context.Background(), "late", func(context.Context) error { t.Error("late task ran"); return nil }); !errors.Is(err, ErrShutdown) {
			t.Fatalf("submit after shutdown = %v, want ErrShutdown", err)
		}
		if _, err := r.SubmitCtx(context.Background(), "late", nil); !errors.Is(err, ErrShutdown) {
			t.Fatalf("SubmitCtx after shutdown = %v, want ErrShutdown", err)
		}
		// Wait must return immediately: nothing was enqueued.
		done := make(chan struct{})
		go func() { r.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("Wait hung after rejected late submit")
		}
	})
}

func TestBodyErrorCaptured(t *testing.T) {
	r := New(WithWorkers(4))
	defer r.Shutdown()
	boom := errors.New("boom")
	r.SubmitCtx(context.Background(), "fail", func(context.Context) error { return boom })
	for i := 0; i < 16; i++ {
		r.SubmitCtx(context.Background(), "ok", func(context.Context) error { return nil })
	}
	if err := r.WaitCtx(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("WaitCtx = %v, want wrapped boom", err)
	}
	if err := r.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err = %v, want wrapped boom", err)
	}
}

// Cancellation: tasks not yet started are skipped, an in-flight task
// observes ctx.Done and stops, and WaitCtx reports ctx.Err().
func TestContextCancellation(t *testing.T) {
	r := New(WithWorkers(1)) // one worker: the chain below is strictly ordered
	defer r.Shutdown()
	ctx, cancel := context.WithCancel(context.Background())

	started := make(chan struct{})
	var ran int32
	r.SubmitCtx(ctx, "inflight", func(c context.Context) error {
		close(started)
		select {
		case <-c.Done():
			return c.Err()
		case <-time.After(10 * time.Second):
			atomic.AddInt32(&ran, 1)
			return nil
		}
	}, Out("gate"))
	// The successors only become ready once the in-flight task finishes —
	// i.e. strictly after the cancellation below.
	for i := 0; i < 8; i++ {
		r.SubmitCtx(ctx, "pending", func(context.Context) error { atomic.AddInt32(&ran, 1); return nil }, In("gate"))
	}
	<-started
	cancel()
	if err := r.WaitCtx(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitCtx = %v, want context.Canceled", err)
	}
	if got := atomic.LoadInt32(&ran); got != 0 {
		t.Fatalf("%d cancelled tasks ran bodies", got)
	}
	st := r.Stats()
	if st.Skipped != 8 {
		t.Fatalf("skipped = %d, want 8", st.Skipped)
	}
}

func TestWaitCtxReturnsOnCancelledWait(t *testing.T) {
	r := New(WithWorkers(1))
	defer r.Shutdown()
	release := make(chan struct{})
	r.SubmitCtx(context.Background(), "block", func(context.Context) error { <-release; return nil })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.WaitCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitCtx on cancelled ctx = %v", err)
	}
	close(release)
}

func TestSubmitCtxPreCancelled(t *testing.T) {
	r := New(WithWorkers(2))
	defer r.Shutdown()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.SubmitCtx(ctx, "t", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitCtx with cancelled ctx = %v", err)
	}
}

// Backpressure: with a bound of 2, a third submission must block until a
// running task completes, and must abort with ctx.Err() when cancelled
// while blocked.
func TestQueueBoundBackpressure(t *testing.T) {
	r := New(WithWorkers(2), WithQueueBound(2))
	defer r.Shutdown()
	release := make(chan struct{})
	for i := 0; i < 2; i++ {
		if _, err := r.SubmitCtx(context.Background(), "hold", func(context.Context) error { <-release; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := r.SubmitCtx(context.Background(), "third", func(context.Context) error { return nil })
		blocked <- err
	}()
	select {
	case err := <-blocked:
		t.Fatalf("third submit did not block (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatalf("third submit after release: %v", err)
	}
	r.Wait()

	// Cancellation while blocked on the bound.
	release2 := make(chan struct{})
	for i := 0; i < 2; i++ {
		r.SubmitCtx(context.Background(), "hold2", func(context.Context) error { <-release2; return nil })
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := r.SubmitCtx(ctx, "fourth", nil)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked submit on cancel = %v, want context.Canceled", err)
	}
	close(release2)
	r.Wait()
}

package runtime

import (
	"context"
	"errors"
	"os"
	stdruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flightrec"
	"repro/internal/flightrec/verify"
)

// TestCompleteAfterRules: the pool takes a wait only from the body's own
// placement context, while the body runs, for a positive delay; everywhere
// else the body is told to wait in place.
func TestCompleteAfterRules(t *testing.T) {
	r := New(WithWorkers(1))
	defer r.Shutdown()
	if CompleteAfter(context.Background(), time.Millisecond) {
		t.Error("CompleteAfter took a wait on a context no body was given")
	}
	var kept context.Context
	got := map[string]bool{}
	if _, err := r.SubmitBatchCtx(context.Background(), []TaskSpec{{
		Name: "asks",
		Body: func(ctx context.Context) error {
			kept = ctx
			got["zero delay"] = CompleteAfter(ctx, 0)
			got["derived context"] = CompleteAfter(context.WithValue(ctx, placementKey{}, 1), time.Millisecond)
			got["own context"] = CompleteAfter(ctx, time.Millisecond)
			return nil
		},
	}, {
		Name: "bounded", Deadline: time.Second,
		Body: func(ctx context.Context) error {
			got["deadline-bounded attempt"] = CompleteAfter(ctx, time.Millisecond)
			return nil
		},
	}}); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	want := map[string]bool{"zero delay": false, "derived context": false, "own context": true, "deadline-bounded attempt": false}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("CompleteAfter on %s = %v, want %v", k, got[k], v)
		}
	}
	if CompleteAfter(kept, time.Millisecond) {
		t.Error("CompleteAfter took a wait after its body returned")
	}
	if st := r.Stats(); st.Submitted != 2 || st.Executed != 2 || st.ParkedTasks != 0 {
		t.Errorf("stats %d submitted, %d executed, %d parked; want 2, 2, 0", st.Submitted, st.Executed, st.ParkedTasks)
	}
}

// parkFor is a body that asks for a wait of d and returns.
func parkFor(d time.Duration) Body {
	return func(ctx context.Context) error {
		if !CompleteAfter(ctx, d) {
			return errors.New("the pool refused the wait")
		}
		return nil
	}
}

// TestParkedTaskFreesItsWorker: on a one-worker pool, a task parked for
// 200 ms holds no worker — a task submitted while it waits runs and
// finishes first — yet it is outstanding until its wait ends: Backlog
// counts it, Wait returns only after it, and its successor starts only
// after the wait.
func TestParkedTaskFreesItsWorker(t *testing.T) {
	const wait = 200 * time.Millisecond
	r := New(WithWorkers(1))
	defer r.Shutdown()
	var parkedDone, succStart atomic.Int64
	start := time.Now()
	if _, err := r.SubmitBatchCtx(context.Background(), []TaskSpec{
		{Name: "parked", Body: parkFor(wait), Deps: []Dep{Out("k")},
			OnDone: func(error) { parkedDone.Store(time.Now().UnixNano()) }},
		{Name: "successor", Deps: []Dep{In("k")},
			Body: func(context.Context) error { succStart.Store(time.Now().UnixNano()); return nil }},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return r.Stats().ParkedTasks == 1 }, "the task to park")
	if b := r.Backlog(); b != 2 {
		t.Errorf("Backlog %d while the task is parked, want 2 (it and its successor)", b)
	}
	ran := make(chan struct{})
	if _, err := r.SubmitCtx(context.Background(), "beside", func(context.Context) error { close(ran); return nil }); err != nil {
		t.Fatal(err)
	}
	<-ran
	if parkedDone.Load() != 0 {
		t.Fatal("the parked task completed before a task submitted during its wait ran: the wait held the worker")
	}
	r.Wait()
	if took := time.Since(start); took < wait {
		t.Errorf("Wait returned after %v, before the %v wait ended", took, wait)
	}
	if succStart.Load() < parkedDone.Load() || succStart.Load() < start.Add(wait).UnixNano() {
		t.Error("the successor started before its predecessor's wait ended")
	}
	if st := r.Stats(); st.Submitted != 3 || st.Executed != 3 || st.ParkedTasks != 0 {
		t.Errorf("stats %d submitted, %d executed, %d parked; want 3, 3, 0", st.Submitted, st.Executed, st.ParkedTasks)
	}
}

// TestParkedTasksEndWithContext: cancelling the context of eight tasks
// parked for 10 s completes them at once, each OnDone hearing
// context.Canceled, and Shutdown does not wait the 10 s out.
func TestParkedTasksEndWithContext(t *testing.T) {
	const n = 8
	r := New(WithWorkers(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, n)
	specs := make([]TaskSpec, n)
	for i := range specs {
		specs[i] = TaskSpec{Name: "parked", Body: parkFor(10 * time.Second), OnDone: func(err error) { errs <- err }}
	}
	if _, err := r.SubmitBatchCtx(ctx, specs); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return r.Stats().ParkedTasks == n }, "every task to park")
	cancel()
	start := time.Now()
	r.Wait()
	if took := time.Since(start); took > 50*time.Millisecond && !raceEnabled {
		t.Errorf("Wait took %v after the context ended, want < 50ms", took)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Errorf("OnDone heard %v, want context.Canceled", err)
		}
	}
	if st := r.Stats(); st.Executed != n || st.ParkedTasks != 0 || r.Err() == nil {
		t.Errorf("%d executed, %d parked, Err %v; want %d, 0 and the cancellation", st.Executed, st.ParkedTasks, r.Err(), n)
	}
	r.Shutdown()
}

// TestParkedCompletionAllocFree: once a waiter is idle, parking a task and
// completing it off the worker allocates nothing.
func TestParkedCompletionAllocFree(t *testing.T) {
	skipUnderRace(t)
	withGCOff(func() {
		r := New(WithWorkers(1))
		defer r.Shutdown()
		body := parkFor(time.Microsecond)
		run := func() {
			if _, err := r.SubmitCtx(context.Background(), "parked", body); err != nil {
				t.Fatal(err)
			}
			r.Wait()
		}
		for i := 0; i < 64; i++ {
			run()
		}
		if got := testing.AllocsPerRun(200, run); got != 0 {
			t.Errorf("a parked task allocates %.2f objects submit→complete, want 0", got)
		}
	})
}

// openFDs counts the process's open descriptors (0 if it cannot).
func openFDs() int {
	fds, _ := os.ReadDir("/proc/self/fd")
	return len(fds)
}

// TestWaitersBounded: a burst of 1 000 tasks parked for 20 ms on a
// one-worker pool takes a waiter each and at most the alarm package's 64
// descriptors; within a second of the last completion the waiters are
// back to the idle cap. Then 1 000 pending 10 s retry backoffs — a
// tenant's parked retries — end when their context does, with the same
// bounds.
func TestWaitersBounded(t *testing.T) {
	const n, slack = 1000, 8
	r := New(WithWorkers(1))
	defer r.Shutdown()
	base, fds := stdruntime.NumGoroutine(), openFDs()
	if fds == 0 {
		t.Skip("cannot count descriptors")
	}
	stop, peaks := make(chan struct{}), make(chan [2]int)
	go func() {
		var peak [2]int
		for {
			select {
			case <-stop:
				peaks <- peak
				return
			default:
			}
			peak[0], peak[1] = max(peak[0], stdruntime.NumGoroutine()), max(peak[1], openFDs())
			time.Sleep(200 * time.Microsecond)
		}
	}()
	// settled waits for the waiters of a finished burst to go idle or exit.
	settled := func(what string) {
		t.Helper()
		for start := time.Now(); stdruntime.NumGoroutine() > base+1+maxIdleWaiters; time.Sleep(time.Millisecond) {
			if time.Since(start) > time.Second {
				t.Fatalf("%d goroutines 1 s after %s, %d before + the idle cap %d", stdruntime.NumGoroutine(), what, base, maxIdleWaiters)
			}
		}
	}

	specs := make([]TaskSpec, n)
	for i := range specs {
		specs[i] = TaskSpec{Name: "parked", Body: parkFor(20 * time.Millisecond)}
	}
	if _, err := r.SubmitBatchCtx(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	settled("the last parked task completed")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := range specs {
		specs[i] = TaskSpec{Name: "backoff", Retry: RetryPolicy{Max: 1, Backoff: 10 * time.Second},
			Body: func(context.Context) error { return errors.New("fail") }}
	}
	if _, err := r.SubmitBatchCtx(ctx, specs); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return r.Stats().Retries == n }, "every task to start its backoff")
	cancel()
	start := time.Now()
	r.Wait()
	if took := time.Since(start); took > time.Second {
		t.Errorf("%d pending 10 s backoffs took %v to end after their context did", n, took)
	}
	settled("the last backoff ended")
	close(stop)
	peak := <-peaks
	t.Logf("goroutines %d before, %d at the peak; descriptors %d before, %d at the peak", base, peak[0], fds, peak[1])
	if peak[0] > base+n+slack {
		t.Errorf("%d goroutines at the peak, want at most %d before + %d waits + %d", peak[0], base, n, slack)
	}
	if peak[1] > fds+64 {
		t.Errorf("%d descriptors at the peak, want at most %d before + the alarm cap 64", peak[1], fds)
	}
}

// TestFlightParkedTasksClean: parked tasks — some released one at a time
// down a chain, some fanned out, some failing into a parked retry backoff — leave
// a timeline the online checker finds spotless on every scheduler, with
// their complete events on the external ring.
func TestFlightParkedTasksClean(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		r := New(WithWorkers(2), WithScheduler(kind), WithFlightRecorder(flightrec.Options{PerWorkerEvents: 1 << 14}))
		online := verify.StartOnline(r.FlightRecorder(), verify.Options{
			StarveBound: 30 * time.Second,
			OnViolation: func(v verify.Violation) {
				t.Errorf("invariant violation: %s task=%d worker=%d: %s", v.Invariant, v.Task, v.Worker, v.Detail)
			},
		}, time.Millisecond)
		var failed atomic.Int64
		flaky := func(ctx context.Context) error {
			if failed.Add(1)%2 == 1 {
				return errors.New("the first attempt fails")
			}
			return parkFor(50 * time.Microsecond)(ctx)
		}
		for i := 0; i < 50; i++ {
			specs := []TaskSpec{
				{Name: "head", Body: parkFor(100 * time.Microsecond), Deps: []Dep{InOut("chain")}},
				{Name: "link", Body: parkFor(100 * time.Microsecond), Deps: []Dep{InOut("chain")}},
				{Name: "retried", Body: flaky, Retry: RetryPolicy{Max: 1, Backoff: 100 * time.Microsecond}, Deps: []Dep{InOut("chain")}},
			}
			for j := 0; j < 4; j++ {
				specs = append(specs, TaskSpec{Name: "fan", Body: parkFor(50 * time.Microsecond), Deps: []Dep{In("chain")}})
			}
			if _, err := r.SubmitBatchCtx(context.Background(), specs); err != nil {
				t.Fatal(err)
			}
		}
		r.Wait()
		r.Shutdown()
		st := online.Stop()
		logWeakened(t, st)
		if st.Total != 0 || st.Events == 0 {
			t.Fatalf("verifier over %d events: %+v", st.Events, st)
		}
		external := 0
		for _, e := range r.FlightRecorder().Snapshot() {
			if e.Kind == flightrec.KindComplete && e.Worker == flightrec.ExternalWorker {
				external++
			}
		}
		if s := r.Stats(); external == 0 || s.Executed != s.Submitted || s.Retries != 50 {
			t.Fatalf("%d complete events on the external ring, %d of %d executed, %d retries; want > 0, all, 50",
				external, s.Executed, s.Submitted, s.Retries)
		}
	})
}

package runtime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/flightrec"
	"repro/internal/flightrec/verify"
)

// TestChaosStressSurvival is the headline robustness witness: a seeded
// fault injector makes ≥1% of bodies panic, fail, or stall across every
// scheduler × pool layout, with the online invariant checker watching the
// flight recorder. The pool must survive — every submitted task reaches
// exactly one terminal state (Executed + Skipped == Submitted), every
// OnDone fires exactly once, retries stay within budget, poisoned tasks
// are quarantined rather than respun forever, and the verifier's verdict
// is spotless. Run with -race: the retry re-arm, poison propagation, and
// deadline-abandonment paths all interleave here.
func TestChaosStressSurvival(t *testing.T) {
	layouts := []struct {
		name string
		opts []Option
	}{
		{"flat", []Option{WithWorkers(4)}},
		{"hetero", []Option{
			WithWorkerClasses(
				WorkerClass{Name: "big", Count: 2, Speed: 2},
				WorkerClass{Name: "little", Count: 2, Speed: 1},
			),
		}},
	}
	for _, kind := range []SchedulerKind{WorkSteal, FIFO, CATS} {
		for _, lay := range layouts {
			t.Run(kind.String()+"/"+lay.name, func(t *testing.T) {
				chaosStressOnce(t, kind, lay.opts)
			})
		}
	}
}

func chaosStressOnce(t *testing.T, kind SchedulerKind, layout []Option) {
	const (
		producers = 4
		tasksEach = 400
		total     = producers * tasksEach
	)
	inj := chaos.New(chaos.Config{
		Seed:       0xC0FFEE ^ uint64(kind),
		PanicRate:  0.02,
		ErrorRate:  0.03,
		DelayRate:  0.02,
		StickyRate: 0.3,
		Delay:      2 * time.Millisecond,
	})
	opts := append([]Option{
		WithScheduler(kind),
		WithFlightRecorder(flightrec.Options{PerWorkerEvents: 1 << 15}),
	}, layout...)
	r := New(opts...)
	online := verify.StartOnline(r.FlightRecorder(), verify.Options{
		StarveBound: 30 * time.Second,
		OnViolation: func(v verify.Violation) {
			t.Errorf("invariant violation: %s task=%d worker=%d: %s",
				v.Invariant, v.Task, v.Worker, v.Detail)
		},
	}, time.Millisecond)

	var hooks atomic.Int64 // exactly-once OnDone audit
	var key atomic.Uint64  // chaos key allocator (deterministic order not required)
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			chain := fmt.Sprintf("chain%d", p)
			for i := 0; i < tasksEach; i++ {
				body := inj.Wrap(key.Add(1)-1, func(context.Context) error { return nil })
				sp := TaskSpec{
					Name: "c", Body: body,
					Retry:  RetryPolicy{Max: 2, Backoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond},
					OnDone: func(error) { hooks.Add(1) },
				}
				switch i % 4 {
				case 0:
					// Dependence chains: a terminal panic here must
					// skip-propagate down the chain, not wedge it.
					sp.Deps = []Dep{InOut(chain)}
				case 1:
					// Deadline shorter than the injected stall: delay faults
					// become deadline overruns.
					sp.Deadline = 500 * time.Microsecond
				}
				if _, err := r.SubmitBatchCtx(context.Background(), []TaskSpec{sp}); err != nil {
					t.Errorf("SubmitBatchCtx: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	r.Wait()
	r.Shutdown()

	st := r.Stats()
	if st.Submitted != total {
		t.Fatalf("submitted %d, want %d", st.Submitted, total)
	}
	// Exactly one terminal state per admitted task.
	if st.Executed+st.Skipped != total {
		t.Fatalf("terminal accounting broken: executed %d + skipped %d != submitted %d",
			st.Executed, st.Skipped, total)
	}
	if got := hooks.Load(); got != total {
		t.Fatalf("OnDone fired %d times, want exactly %d", got, total)
	}
	// The configured rates must actually have fired (the schedule is
	// seeded, so this is deterministic, not flaky).
	cs := inj.Stats()
	if cs.Panics == 0 || cs.Errors == 0 || cs.Delays == 0 {
		t.Fatalf("chaos schedule never fired some class: %+v", cs)
	}
	if st.Panics == 0 || st.Retries == 0 {
		t.Fatalf("runtime saw no panics (%d) or retries (%d) under chaos", st.Panics, st.Retries)
	}
	if st.Quarantined == 0 {
		t.Fatalf("no task was quarantined despite sticky panics (chaos %+v)", cs)
	}
	if st.DeadlineMisses == 0 {
		t.Fatal("no deadline miss despite stalls longer than the bound")
	}

	vs := online.Stop()
	logWeakened(t, vs)
	if vs.Total != 0 {
		t.Fatalf("verifier flagged the chaos run: %+v", vs)
	}
	if vs.Events == 0 {
		t.Fatal("verifier consumed no events")
	}
	if vs.Faults == 0 || vs.Retries == 0 {
		t.Fatalf("recorder captured no fault/retry events: faults=%d retries=%d", vs.Faults, vs.Retries)
	}
}

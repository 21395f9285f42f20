package runtime

import (
	"context"
	"errors"
	stdruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flightrec"
)

// WithAdaptive is ignored: CATS is the runtime's one class-aware scheduler,
// and no controller parks a class of any pool. These tests pin that, and
// that a heterogeneous WorkSteal pool runs every class like a flat one.

// heteroAdaptiveClasses is the asymmetric pool these tests run on: one
// nominal-speed fast worker and three quarter-speed slow workers.
func heteroAdaptiveClasses() Option {
	return WithWorkerClasses(
		WorkerClass{Name: "fast", Count: 1, Speed: 1},
		WorkerClass{Name: "slow", Count: 3, Speed: 0.25},
	)
}

// WithAdaptive on every scheduler starts no goroutine beyond the workers,
// and Stats.Adaptive stays zero through a serial chain and an idle beat.
func TestProposePolicyRules(t *testing.T) {
	for _, kind := range []SchedulerKind{FIFO, WorkSteal, CATS} {
		base := stdruntime.NumGoroutine()
		r := New(heteroAdaptiveClasses(), WithScheduler(kind), WithAdaptive(AdaptiveOptions{}))
		if extra := stdruntime.NumGoroutine() - base - r.Workers(); extra > 0 {
			t.Errorf("%v: WithAdaptive started %d goroutines beside the workers", kind, extra)
		}
		for i := 0; i < 20; i++ {
			mustSubmit(t, r, "link", []Dep{InOut("c")})
		}
		boundedWait(t, r, 5*time.Second, kind.String())
		time.Sleep(2 * time.Millisecond)
		if st := r.Stats(); st.Adaptive != (AdaptiveStats{}) {
			t.Errorf("%v: Stats.Adaptive = %+v, want zero", kind, st.Adaptive)
		}
		r.Shutdown()
	}
}

// Nothing flaps because nothing adapts: after every serial chain and idle
// beat on a two-class WorkSteal pool, a fan that needs all four workers
// inside a body at once still runs — no class was withdrawn.
func TestAdaptiveHysteresisPreventsFlapping(t *testing.T) {
	r := New(heteroAdaptiveClasses(), WithAdaptive(AdaptiveOptions{}))
	defer r.Shutdown()
	for round := 0; round < 3; round++ {
		for i := 0; i < 50; i++ {
			mustSubmit(t, r, "link", []Dep{InOut("c")})
		}
		boundedWait(t, r, 5*time.Second, "chain")
		time.Sleep(2 * time.Millisecond)
		var inside atomic.Int32
		for i := 0; i < r.Workers(); i++ {
			if _, err := r.SubmitCtx(context.Background(), "barrier", func(context.Context) error {
				inside.Add(1)
				for deadline := time.Now().Add(5 * time.Second); inside.Load() < int32(r.Workers()); {
					if time.Now().After(deadline) {
						return errors.New("a class never joined the fan")
					}
					stdruntime.Gosched()
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		boundedWait(t, r, 10*time.Second, "barrier fan")
	}
}

// A two-class CATS pool with WithAdaptive passed (and ignored) keeps a
// priority-hinted serial chain on the fast class.
func TestAdaptiveComposesWithClasses(t *testing.T) {
	r := New(
		WithScheduler(CATS),
		WithWorkerClasses(
			WorkerClass{Name: "fast", Count: 2, Speed: 1},
			WorkerClass{Name: "slow", Count: 2, Speed: 0.5},
		),
		WithAdaptive(AdaptiveOptions{}),
	)
	const links = 50
	var slow atomic.Int32
	for i := 0; i < links; i++ {
		if _, err := r.SubmitPriorityCtx(context.Background(), "link", links-i, func(ctx context.Context) error {
			if p, _ := TaskPlacement(ctx); p.Class != 0 {
				slow.Add(1)
			}
			return nil
		}, InOut("c")); err != nil {
			t.Fatal(err)
		}
	}
	boundedWait(t, r, 10*time.Second, "chain")
	if n := slow.Load(); n != 0 {
		t.Fatalf("%d of %d chain links ran on the slow class", n, links)
	}
	r.Shutdown()
}

// Every class of a two-class WorkSteal pool executes tasks under a
// constant load, as the one class of a flat pool does. The load is a fixed
// population of short blocking tasks, each of which submits its
// replacement before it returns.
func TestAdaptiveStableUnderConstantLoad(t *testing.T) {
	const population, perClass = 64, 200
	for _, tc := range []struct {
		name string
		pool Option
	}{
		{"homogeneous", WithWorkers(4)},
		{"two-class", heteroAdaptiveClasses()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := New(tc.pool)
			defer r.Shutdown()
			var stop atomic.Bool
			var body Body
			body = func(context.Context) error {
				time.Sleep(20 * time.Microsecond)
				if !stop.Load() {
					// A body that read stop just before the deferred store
					// below may resubmit after Shutdown has begun: that
					// refusal is the test ending, not a failure.
					if _, err := r.SubmitCtx(context.Background(), "t", body); err != nil && !(stop.Load() && errors.Is(err, ErrShutdown)) {
						t.Error(err)
					}
				}
				return nil
			}
			// Stop the population before the deferred Shutdown drains it.
			defer stop.Store(true)
			for i := 0; i < population; i++ {
				if _, err := r.SubmitCtx(context.Background(), "t", body); err != nil {
					t.Fatal(err)
				}
			}
			var st Stats
			for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
				r.StatsInto(&st)
				if min(st.PerClass[0], st.PerClass[len(st.PerClass)-1]) >= perClass {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("per-class executed %v after 30s, want ≥ %d each", st.PerClass, perClass)
				}
			}
		})
	}
}

// An idle pool with a recorder keeps its first submit-path ready in
// Snapshot(): nothing files events on the external ring while the pool
// sleeps.
func TestSamplerLeavesSubmitHistory(t *testing.T) {
	r := New(
		heteroAdaptiveClasses(),
		WithAdaptive(AdaptiveOptions{}),
		WithFlightRecorder(flightrec.Options{PerWorkerEvents: 2048}),
	)
	defer r.Shutdown()
	first := mustSubmit(t, r, "first", nil)
	for i := 0; i < 7; i++ {
		mustSubmit(t, r, "t", nil)
	}
	r.Wait()
	time.Sleep(60 * time.Millisecond)
	for _, e := range r.FlightRecorder().Snapshot() {
		if e.Kind == flightrec.KindReady && e.Worker == flightrec.ExternalWorker && e.Task == uint64(first) {
			return
		}
	}
	t.Error("after 60 ms idle the first submit-path ready is gone from Snapshot()")
}

// Shutdown of a two-class WorkSteal pool mid-chain drains the chain and
// returns within a second.
func TestShutdownRacesControllerTick(t *testing.T) {
	for i := 0; i < 25; i++ {
		r := New(heteroAdaptiveClasses(), WithFlightRecorder(flightrec.Options{}))
		for j := 0; j < 50; j++ {
			mustSubmit(t, r, "t", []Dep{InOut("k")})
		}
		done := make(chan struct{})
		go func() { r.Shutdown(); close(done) }()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatalf("round %d: Shutdown mid-chain still running after 1s, %d tasks outstanding", i, r.Backlog())
		}
	}
}

// With every slow worker parked — and the fast worker parked behind it —
// one push runs within a second. One fast and one slow worker park on the
// lot in that order (slow first), so the push's signal reaches the slow
// worker first (sync.Cond wakes in FIFO order), and the slow worker takes
// the task like any other.
func TestClassGateLivenessUnderMaskChurn(t *testing.T) {
	r := New(WithWorkerClasses(
		WorkerClass{Name: "fast", Count: 1, Speed: 1},
		WorkerClass{Name: "slow", Count: 1, Speed: 0.5},
	)) // worker 0 fast, 1 slow
	release := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var started atomic.Int32
	for i := 0; i < 2; i++ {
		// Each body holds its worker, so the two land on different ones.
		if _, err := r.SubmitCtx(context.Background(), "hold", func(ctx context.Context) error {
			p, _ := TaskPlacement(ctx)
			started.Add(1)
			<-release[p.Worker]
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return started.Load() == 2 }, "both workers to be inside a body")
	close(release[1])
	waitFor(t, 5*time.Second, func() bool { return r.lot.parked.Load() == 1 }, "the slow worker to park")
	close(release[0])
	waitFor(t, 5*time.Second, func() bool { return r.lot.parked.Load() == 2 }, "the fast worker to park behind it")
	mustSubmit(t, r, "t", nil)
	boundedWait(t, r, time.Second, "one push on a parked two-class pool")
	r.Shutdown()
}

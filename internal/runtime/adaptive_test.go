package runtime

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flightrec"
)

// heteroAdaptiveClasses is the asymmetric pool the adaptive tests run on:
// one nominal-speed fast class and three quarter-speed slow workers — the
// smallest pool where the class-gating rule has something to park.
func heteroAdaptiveClasses() Option {
	return WithWorkerClasses(
		WorkerClass{Name: "fast", Count: 1, Speed: 1},
		WorkerClass{Name: "slow", Count: 3, Speed: 0.25},
	)
}

// The pure reason step: the class rule must fire on its two trigger shapes
// and stay quiet otherwise.
func TestProposePolicyRules(t *testing.T) {
	for _, c := range []struct {
		name     string
		pending  int64
		fullMask uint64
		want     uint64
	}{
		{"pool-wide backlog runs every class", 8, 3, 3},
		{"backlog of exactly one task per worker", 4, 3, 3},
		{"serial phase parks everything but the fast class", 1, 3, 1},
		{"idle pool parks everything but the fast class", 0, 3, 1},
		{"ambiguous backlog proposes nothing", 2, 3, 0},
		{"three classes widen to all three", 9, 7, 7},
		{"homogeneous pool has nothing to gate, serial", 1, 1, 0},
		{"homogeneous pool has nothing to gate, backlog", 64, 1, 0},
	} {
		if got := proposePolicy(c.pending, c.fullMask, 4); got != c.want {
			t.Errorf("%s: proposePolicy(pending %d, full %b) = %b, want %b", c.name, c.pending, c.fullMask, got, c.want)
		}
	}
}

// Hysteresis must hold flapping proposals back: a rule that fires on
// alternating samples changes nothing, while a phase held for Hysteresis
// consecutive samples is applied exactly once.
func TestAdaptiveHysteresisPreventsFlapping(t *testing.T) {
	c := &adaptiveController{
		opts:    AdaptiveOptions{Period: time.Millisecond, Hysteresis: 2},
		workers: 4,
		pol:     newPolicyWords(2),
		sched:   newTestFIFO(4),
	}
	full := c.pol.fullMask
	const narrow, neutral = 1, 2 // pending counts proposing fast-only / nothing
	for i := 0; i < 10; i++ {
		c.revise(narrow)
		c.revise(neutral)
	}
	if got := c.pol.classMask.Load(); got != full {
		t.Fatalf("mask %b after flapping proposals, want untouched %b", got, full)
	}
	if n := c.decisions.Load(); n != 0 {
		t.Fatalf("%d decisions applied under flapping", n)
	}

	c.revise(narrow)
	c.revise(narrow)
	if got := c.pol.classMask.Load(); got != 1 {
		t.Fatalf("mask %b after a held serial phase, want fast-only 1", got)
	}
	if n := c.decisions.Load(); n != 1 {
		t.Fatalf("%d decisions after one held phase, want 1", n)
	}

	// Holding the phase further proposes the current setting — no churn.
	for i := 0; i < 5; i++ {
		c.revise(narrow)
	}
	if n := c.decisions.Load(); n != 1 {
		t.Fatalf("%d decisions while the phase holds, want still 1", n)
	}
}

// The controller must compose with worker classes: the phase-shifting
// workload executes fully, the controller samples and decides, and the mask
// never parks the fast class.
func TestAdaptiveComposesWithClasses(t *testing.T) {
	r := New(
		WithWorkerClasses(
			WorkerClass{Name: "fast", Count: 2, Speed: 1},
			WorkerClass{Name: "slow", Count: 2, Speed: 0.5},
		),
		WithAdaptive(AdaptiveOptions{Period: 100 * time.Microsecond, Hysteresis: 1}),
		WithFlightRecorder(flightrec.Options{}),
	)
	// A task stranded behind the class gate fails the test here instead of
	// hanging it (the pool is then left running: Shutdown would wait too).
	wait := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := r.WaitCtx(ctx); err != nil {
			t.Fatalf("Wait: %v with %d tasks outstanding", err, r.Backlog())
		}
	}
	const rounds, links, fans = 3, 50, 32
	for round := 0; round < rounds; round++ {
		for i := 0; i < links; i++ {
			if _, err := r.SubmitCtx(context.Background(), "link", func(context.Context) error { return nil }, InOut("c")); err != nil {
				t.Fatal(err)
			}
		}
		wait()
		for i := 0; i < fans; i++ {
			if _, err := r.SubmitCtx(context.Background(), "fan", func(context.Context) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		wait()
		time.Sleep(2 * time.Millisecond) // idle beat for the controller
	}
	var st Stats
	r.StatsInto(&st)
	if !st.Adaptive.Enabled {
		t.Fatal("Stats.Adaptive.Enabled = false with WithAdaptive")
	}
	if st.Executed != rounds*(links+fans) {
		t.Fatalf("executed %d of %d", st.Executed, rounds*(links+fans))
	}
	if st.Adaptive.ActiveClasses&1 == 0 {
		t.Fatalf("active-class mask %b parks the fast class", st.Adaptive.ActiveClasses)
	}
	// The idle beats above are long against the 100µs period: the
	// controller must have sampled by now, the serial/idle phases must
	// have produced at least one applied decision, and the idle pool it is
	// looking at now must be narrowed to the fast class.
	deadline := time.Now().Add(2 * time.Second)
	for st.Adaptive.Samples == 0 || st.Adaptive.Decisions == 0 || st.Adaptive.ActiveClasses != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("controller inert: %d samples, %d decisions, mask %b (want 1 on an idle pool)",
				st.Adaptive.Samples, st.Adaptive.Decisions, st.Adaptive.ActiveClasses)
		}
		time.Sleep(time.Millisecond)
		r.StatsInto(&st)
	}
	r.Shutdown()
}

// A constant load must yield zero decisions: an adaptation that fires
// while nothing about the workload changes is a pure stability cost. The
// load is one the test controls: a fixed population of short blocking
// tasks, each of which submits its replacement before it returns, so at
// every instant at least population − workers tasks are queued however the
// host schedules the goroutines involved (a submitter goroutine keeping a
// queue bound full could be descheduled for two controller periods, and the
// rule then legitimately narrowed). The controller is attached once the
// population is in, so the start-up idle phase is not part of what it
// observes; after ≥ 2000 samples it must not have touched the policy — on a
// homogeneous pool, where no rule has anything to propose, and on a
// two-class pool, where the class rule sees "work for everyone" throughout.
// The test reads the same figure beside the controller and fails on a
// reading below the pool size: that is a queue miscounting, not a flap.
func TestAdaptiveStableUnderConstantLoad(t *testing.T) {
	const population, holdSamples = 64, 2000
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
			// Attached from the goroutine that also reads it (StatsInto,
			// Shutdown), so the late assignment is not a race.
			r.ctrl = newAdaptiveController(r, AdaptiveOptions{Period: 100 * time.Microsecond})
			go r.ctrl.run()
			var st Stats
			deadline := time.Now().Add(30 * time.Second)
			for st.Adaptive.Samples < holdSamples {
				if time.Now().After(deadline) {
					t.Fatalf("only %d controller samples in 30s", st.Adaptive.Samples)
				}
				if q := r.sched.queued(); q < int64(r.Workers()) {
					t.Fatalf("%d queued with a population of %d on %d workers", q, population, r.Workers())
				}
				time.Sleep(time.Millisecond)
				r.StatsInto(&st)
			}
			// Read while the population is still in: the drain that follows
			// is a real phase change the controller is free to react to.
			if st.Adaptive.Decisions != 0 {
				t.Fatalf("%d decisions in %d samples at constant load, want 0 (mask %b)",
					st.Adaptive.Decisions, st.Adaptive.Samples, st.Adaptive.ActiveClasses)
			}
			if st.Executed == 0 {
				t.Fatal("no task executed")
			}
		})
	}
}

// The controller's ticks must not evict the recorder's submit-path history:
// they share the external ring (2048 slots) with every submit-path ready,
// retry re-arm and marker, so a controller that filed one event per tick
// lapped it in 2048 periods of idling — ~2 s at the default period, ~0.2 s
// here. Only applied decisions are recorded, as timeline markers.
func TestSamplerLeavesSubmitHistory(t *testing.T) {
	const ring = 2048 // flightrec's default, passed so the idle below is a lap of this ring
	r := New(
		heteroAdaptiveClasses(),
		WithAdaptive(AdaptiveOptions{Period: 100 * time.Microsecond}),
		WithFlightRecorder(flightrec.Options{PerWorkerEvents: ring}),
	)
	defer r.Shutdown()
	first := mustSubmit(t, r, "first", nil)
	for i := 0; i < 7; i++ {
		mustSubmit(t, r, "t", nil)
	}
	r.Wait()
	var st Stats
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if r.StatsInto(&st); st.Adaptive.Samples > ring+64 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d controller samples in 60s", st.Adaptive.Samples)
		}
	}
	var adapts []flightrec.Event
	found := false
	for _, e := range r.FlightRecorder().Snapshot() {
		if e.Kind == flightrec.KindReady && e.Worker == flightrec.ExternalWorker && e.Task == uint64(first) {
			found = true
		}
		if e.Kind == flightrec.KindAdapt {
			adapts = append(adapts, e)
		}
	}
	if !found {
		t.Errorf("after %d idle controller samples the first submit-path ready is gone from Snapshot()", st.Adaptive.Samples)
	}
	// The idle pool narrows to the fast class once and stays there: that
	// decision is on the timeline with the queued count the rule saw.
	if uint64(len(adapts)) != st.Adaptive.Decisions || len(adapts) == 0 {
		t.Fatalf("%d adapt events for %d decisions, want equal and non-zero", len(adapts), st.Adaptive.Decisions)
	}
	if e := adapts[0]; e.Arg > 1 || e.Arg2 != flightrec.PackAdapt(flightrec.AdaptClassMask, 3, 1) {
		t.Errorf("first adapt event: pending %d, word %#x; want pending ≤ 1 and the 3→1 class-mask word", e.Arg, e.Arg2)
	}
}

// Shutdown must serialise cleanly with in-flight controller ticks: the
// controller may adapt while the pool drains, but halting it must not
// race the recorder teardown or the worker exits (run under -race in CI).
func TestShutdownRacesControllerTick(t *testing.T) {
	for i := 0; i < 25; i++ {
		r := New(
			heteroAdaptiveClasses(),
			WithAdaptive(AdaptiveOptions{Period: 50 * time.Microsecond, Hysteresis: 1}),
			WithFlightRecorder(flightrec.Options{}),
		)
		for j := 0; j < 50; j++ {
			if _, err := r.SubmitCtx(context.Background(), "t", func(context.Context) error { return nil }, InOut("k")); err != nil {
				t.Fatal(err)
			}
		}
		r.Shutdown() // drains the chain while ticks keep firing
	}
}

// A worker parked at the class gate must never strand work: whatever sits
// in its deque or submit buffer when the gate closes has to be handed off
// to active-class workers, and a lot wake it absorbed on the way to the
// gate has to be passed along. This drives serialised chains (whose links
// hand off owner-locally, the shape that can strand) under continuous
// class-mask churn; a lost task or wake hangs WaitCtx and fails the test.
func TestClassGateLivenessUnderMaskChurn(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for iter := 0; iter < 10; iter++ {
		r := New(heteroAdaptiveClasses())
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			narrow := true
			for {
				select {
				case <-stop:
					return
				default:
				}
				if narrow {
					r.pol.setClassMask(1)
				} else {
					r.pol.setClassMask(r.pol.fullMask)
				}
				narrow = !narrow
				r.sched.policyChanged()
				time.Sleep(50 * time.Microsecond)
			}
		}()
		for i := 0; i < 300; i++ {
			if _, err := r.SubmitCtx(context.Background(), "link", func(context.Context) error { return nil }, InOut("chain")); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				if _, err := r.SubmitCtx(context.Background(), "fan", func(context.Context) error { return nil }); err != nil {
					t.Fatal(err)
				}
			}
		}
		err := r.WaitCtx(ctx)
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatalf("iter %d: wait hung under class-mask churn: %v", iter, err)
		}
		r.Shutdown()
	}
}

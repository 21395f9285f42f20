package runtime

import (
	"context"
	"sync"
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

// The pure reason step: each rule must fire on its trigger shape and stay
// quiet otherwise.
func TestProposePolicyRules(t *testing.T) {
	hetero := policySnapshot{window: 32, chunk: injectorGrab, mask: 3, fullMask: 3}

	// Backlog for the whole pool widens a narrowed mask back to full.
	narrowed := hetero
	narrowed.mask = 1
	p := proposePolicy(adaptDeltas{pending: 8}, narrowed, 4)
	if !p.has[knobClassMask] || p.val[knobClassMask] != 3 {
		t.Errorf("pool-wide backlog: mask proposal (%v, %d), want full mask 3", p.has[knobClassMask], p.val[knobClassMask])
	}

	// A serial phase parks everything but the fast class.
	p = proposePolicy(adaptDeltas{pending: 1}, hetero, 4)
	if !p.has[knobClassMask] || p.val[knobClassMask] != 1 {
		t.Errorf("serial phase: mask proposal (%v, %d), want fast-only 1", p.has[knobClassMask], p.val[knobClassMask])
	}

	// A homogeneous pool has nothing to gate.
	homo := hetero
	homo.mask, homo.fullMask = 1, 1
	if p = proposePolicy(adaptDeltas{pending: 1}, homo, 4); p.has[knobClassMask] {
		t.Error("homogeneous pool: class-mask rule proposed a change")
	}

	// Fan-out pressure (injector traffic + large backlog) halves the
	// window; a chain phase (home releases, no injector traffic) doubles
	// it; both respect the clamp.
	p = proposePolicy(adaptDeltas{injPush: 10, pending: 9}, hetero, 4)
	if !p.has[knobWindow] || p.val[knobWindow] != 16 {
		t.Errorf("fan-out: window proposal (%v, %d), want 16", p.has[knobWindow], p.val[knobWindow])
	}
	p = proposePolicy(adaptDeltas{executed: 50, homeHit: 50, pending: 1}, hetero, 4)
	if !p.has[knobWindow] || p.val[knobWindow] != 64 {
		t.Errorf("chain: window proposal (%v, %d), want 64", p.has[knobWindow], p.val[knobWindow])
	}
	floor := hetero
	floor.window = 4
	p = proposePolicy(adaptDeltas{injPush: 10, deepTail: 1}, floor, 4)
	if !p.has[knobWindow] || p.val[knobWindow] != 4 {
		t.Errorf("clamped fan-out: window proposal (%v, %d), want the minimum window 4", p.has[knobWindow], p.val[knobWindow])
	}

	// Priority-hinted submissions switch criticality-first on; a busy
	// period without hints switches it back off.
	p = proposePolicy(adaptDeltas{critSubmit: 3}, hetero, 4)
	if !p.has[knobCritFirst] || p.val[knobCritFirst] != 1 {
		t.Errorf("hinted submissions: crit proposal (%v, %d), want on", p.has[knobCritFirst], p.val[knobCritFirst])
	}
	critOn := hetero
	critOn.crit = true
	p = proposePolicy(adaptDeltas{executed: 10, pending: 2}, critOn, 4)
	if !p.has[knobCritFirst] || p.val[knobCritFirst] != 0 {
		t.Errorf("hint-free period: crit proposal (%v, %d), want off", p.has[knobCritFirst], p.val[knobCritFirst])
	}

	// Injector pressure past 4× the chunk doubles it; a quiet injector
	// resets a grown chunk to the default.
	p = proposePolicy(adaptDeltas{injPush: uint64(4*injectorGrab + 1), pending: 2}, hetero, 4)
	if !p.has[knobRefill] || p.val[knobRefill] != 2*injectorGrab {
		t.Errorf("injector pressure: refill proposal (%v, %d), want %d", p.has[knobRefill], p.val[knobRefill], 2*injectorGrab)
	}
	grown := hetero
	grown.chunk = 128
	p = proposePolicy(adaptDeltas{pending: 2}, grown, 4)
	if !p.has[knobRefill] || p.val[knobRefill] != injectorGrab {
		t.Errorf("quiet injector: refill proposal (%v, %d), want reset to %d", p.has[knobRefill], p.val[knobRefill], injectorGrab)
	}
}

// Hysteresis must hold flapping proposals back: a rule that fires on
// alternating samples changes nothing, while a phase held for Hysteresis
// consecutive samples is applied exactly once.
func TestAdaptiveHysteresisPreventsFlapping(t *testing.T) {
	c := &adaptiveController{
		opts:    AdaptiveOptions{Period: time.Millisecond, Hysteresis: 2},
		workers: 4,
		pol:     newPolicyWords(32, 2),
		sched:   newTestFIFO(4),
	}
	full := c.pol.fullMask
	narrow := adaptDeltas{pending: 1}  // proposes the fast-only mask
	neutral := adaptDeltas{pending: 2} // proposes nothing
	for i := 0; i < 10; i++ {
		c.reviseFrom(narrow, uint64(2*i))
		c.reviseFrom(neutral, uint64(2*i+1))
	}
	if got := c.pol.classMask.Load(); got != full {
		t.Fatalf("mask %b after flapping proposals, want untouched %b", got, full)
	}
	if n := c.decisions.Load(); n != 0 {
		t.Fatalf("%d decisions applied under flapping", n)
	}

	c.reviseFrom(narrow, 100)
	c.reviseFrom(narrow, 101)
	if got := c.pol.classMask.Load(); got != 1 {
		t.Fatalf("mask %b after a held serial phase, want fast-only 1", got)
	}
	if n := c.decisions.Load(); n != 1 {
		t.Fatalf("%d decisions after one held phase, want 1", n)
	}

	// Holding the phase further proposes the current setting — no churn.
	for i := 0; i < 5; i++ {
		c.reviseFrom(narrow, uint64(200+i))
	}
	if n := c.decisions.Load(); n != 1 {
		t.Fatalf("%d decisions while the phase holds, want still 1", n)
	}
}

// The controller must compose with worker classes AND a memory-domain
// topology: the phase-shifting workload executes fully, the controller
// samples and decides, and the mask never parks the fast class.
func TestAdaptiveComposesWithTopologyAndClasses(t *testing.T) {
	r := New(
		WithWorkerClasses(
			WorkerClass{Name: "fast", Count: 2, Speed: 1},
			WorkerClass{Name: "slow", Count: 2, Speed: 0.5},
		),
		WithTopology(Domain{Name: "a", Count: 2}, Domain{Name: "b", Count: 2}),
		WithAdaptive(AdaptiveOptions{Period: 100 * time.Microsecond, Hysteresis: 1}),
		WithFlightRecorder(flightrec.Options{}),
	)
	defer r.Shutdown()
	const rounds, links, fans = 3, 50, 32
	for round := 0; round < rounds; round++ {
		for i := 0; i < links; i++ {
			if _, err := r.Submit("link", 1, func() {}, InOut("c")); err != nil {
				t.Fatal(err)
			}
		}
		r.Wait()
		for i := 0; i < fans; i++ {
			if _, err := r.Submit("fan", 1, func() {}); err != nil {
				t.Fatal(err)
			}
		}
		r.Wait()
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
	// controller must have sampled by now, and the serial/idle phases must
	// have produced at least one applied decision.
	deadline := time.Now().Add(2 * time.Second)
	for st.Adaptive.Samples == 0 || st.Adaptive.Decisions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("controller inert: %d samples, %d decisions", st.Adaptive.Samples, st.Adaptive.Decisions)
		}
		time.Sleep(time.Millisecond)
		r.StatsInto(&st)
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
			if _, err := r.Submit("t", 1, func() {}, InOut("k")); err != nil {
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
			if _, err := r.Submit("link", 1, func() {}, InOut("chain")); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				if _, err := r.Submit("fan", 1, func() {}); err != nil {
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

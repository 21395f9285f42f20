package runtime

import (
	"sync/atomic"
	"time"

	"repro/internal/flightrec"
)

// AdaptiveOptions configures the adaptive controller (WithAdaptive): the
// monitor→reason→adapt loop that samples the queued-task count on Period and
// rewrites the active worker-class set when the workload's phase shifts.
// The zero value selects the defaults.
type AdaptiveOptions struct {
	// Period is the sampling period of the controller's monitor loop
	// (default 1ms). Each tick reads the scheduler's queued-task count and
	// runs the decision rule on it.
	Period time.Duration
	// Hysteresis is the number of consecutive samples that must propose
	// the same setting before it is applied (default 2, minimum 1). It is
	// the anti-flapping guard: the rule firing on one noisy sample changes
	// nothing; the workload has to hold its phase for Hysteresis periods.
	Hysteresis int
}

// The AdaptiveOptions defaults.
const (
	defaultAdaptivePeriod     = time.Millisecond
	defaultAdaptiveHysteresis = 2
)

// WithAdaptive attaches the adaptive controller to the runtime: a
// background goroutine that samples the queued-task count every opts.Period
// and — with hysteresis — narrows the active worker-class set to the fast
// class while the pool is effectively serial and widens it back when
// there is work for everyone (see proposePolicy). Every applied decision
// is recorded as a flight-recorder adapt event (a timeline marker carrying
// the queued-task count the rule saw) and summarised in Stats.Adaptive;
// samples that change nothing record nothing, so an idle controller never
// laps the recorder's submit-path history. It composes with every
// scheduler, and needs WithWorkerClasses to have anything to decide: on a
// homogeneous pool the controller samples and never acts.
func WithAdaptive(opts AdaptiveOptions) Option {
	return func(o *options) { o.adaptive = &opts }
}

// AdaptiveStats is the Stats.Adaptive snapshot. Scalars only, so
// StatsInto stays allocation-free.
type AdaptiveStats struct {
	// Enabled reports whether the runtime runs an adaptive controller.
	Enabled bool
	// Samples is the number of queued-task readings the controller has
	// taken; Decisions the number of class-mask changes it applied.
	Samples   uint64
	Decisions uint64
	// ActiveClasses is the class mask as of this snapshot (live even
	// without WithAdaptive — it then holds every class).
	ActiveClasses uint64
}

// proposePolicy is the pure reason step: from the sampled queued-task
// count, which class mask the pool should run under — 0 for no proposal.
// Pure — no clock, no runtime state — so the rule is unit-testable sample
// by sample.
//
// With queued work for every worker (pending ≥ workers) run the whole
// pool; with the pool effectively serial (pending ≤ 1 — a dependence
// chain, or idle) park everything but the fast class, so chain links stop
// landing on slow workers that hold them Speed-times longer. In between
// the phase is ambiguous and the mask stays. Homogeneous pools (one
// class) propose nothing.
func proposePolicy(pending int64, fullMask uint64, workers int) uint64 {
	switch {
	case fullMask == 1:
		return 0
	case pending >= int64(workers):
		return fullMask
	case pending <= 1:
		return 1
	}
	return 0
}

// adaptiveController is the monitor→reason→adapt loop. One goroutine
// (run) owns everything except the atomic counters StatsInto reads; the
// mask it writes is the schedulers' cached atomic, so adaptation never
// takes a scheduler lock on the dispatch path.
type adaptiveController struct {
	opts    AdaptiveOptions
	workers int
	pol     *policyWords
	sched   scheduler
	rec     *flightrec.Recorder

	stop chan struct{}
	done chan struct{}

	// streak is the hysteresis state: how many consecutive samples have
	// proposed a mask other than the live one. One scalar suffices because
	// the rule has two targets (every class, fast class only) and the live
	// mask is always one of them, so a proposal that differs from it is
	// always the same proposal.
	streak int

	samples   atomic.Uint64
	decisions atomic.Uint64
}

// newAdaptiveController resolves the options and wires the controller to
// the runtime's policy, scheduler, and recorder. The caller
// starts run().
func newAdaptiveController(r *Runtime, opts AdaptiveOptions) *adaptiveController {
	if opts.Period <= 0 {
		opts.Period = defaultAdaptivePeriod
	}
	if opts.Hysteresis < 1 {
		opts.Hysteresis = defaultAdaptiveHysteresis
	}
	return &adaptiveController{
		opts:    opts,
		workers: r.opts.workers,
		pol:     r.pol,
		sched:   r.sched,
		rec:     r.rec,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// run is the controller goroutine: sample on every tick until Shutdown
// closes stop.
func (c *adaptiveController) run() {
	defer close(c.done)
	tick := time.NewTicker(c.opts.Period)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.step()
		}
	}
}

// step is one monitor→reason→adapt cycle: read the scheduler's queued-task
// count — the one figure the rule reasons from — and run the rule on it.
func (c *adaptiveController) step() {
	c.samples.Add(1)
	c.revise(c.sched.queued())
}

// revise is the reason→adapt half of one cycle, split from step so tests
// can drive it with synthetic samples: compute the proposal, update the
// hysteresis streak, and once the proposal has held for Hysteresis
// consecutive samples install it, notify gate-parked workers, and record
// the adapt event carrying the pending count the rule saw.
func (c *adaptiveController) revise(pending int64) {
	cur := c.pol.classMask.Load()
	next := proposePolicy(pending, c.pol.fullMask, c.workers)
	if next == 0 || next == cur {
		// No proposal (or already there): the phase did not hold, so the
		// pending streak dies.
		c.streak = 0
		return
	}
	c.streak++
	if c.streak < c.opts.Hysteresis {
		return
	}
	c.streak = 0
	c.pol.setClassMask(next)
	c.decisions.Add(1)
	c.sched.policyChanged()
	if c.rec != nil {
		c.rec.RecordExternal(flightrec.KindAdapt, 0, uint64(pending),
			flightrec.PackAdapt(flightrec.AdaptClassMask, cur, next))
	}
}

// halt stops the controller goroutine and waits for it to exit.
func (c *adaptiveController) halt() {
	close(c.stop)
	<-c.done
}

package runtime

import (
	"sync/atomic"
	"time"

	"repro/internal/flightrec"
)

// AdaptiveOptions configures the adaptive controller (WithAdaptive): the
// monitor→reason→adapt loop that samples the signals layer on Period and
// rewrites the policy words when the workload's phase shifts. The zero
// value selects the defaults.
type AdaptiveOptions struct {
	// Period is the sampling period of the controller's monitor loop
	// (default 1ms). Each tick takes one signals-layer snapshot, diffs it
	// against the previous one, and runs the decision rules on the deltas.
	Period time.Duration
	// Hysteresis is the number of consecutive samples that must propose
	// the same setting before it is applied (default 2, minimum 1). It is
	// the anti-flapping guard: a rule firing on one noisy sample changes
	// nothing; the workload has to hold its phase for Hysteresis periods.
	Hysteresis int
}

// The AdaptiveOptions defaults.
const (
	defaultAdaptivePeriod     = time.Millisecond
	defaultAdaptiveHysteresis = 2
	// defaultAdaptiveMinWindow and defaultAdaptiveMaxWindow bound the
	// effective locality window the window rule may install. The controller
	// never fully disables the locality path: even a pool built with
	// WithLocalityWindow(0) is retuned within these bounds once adaptive
	// control owns the knob.
	defaultAdaptiveMinWindow = 4
	defaultAdaptiveMaxWindow = 256
	// maxRefillChunk caps the refill-chunk rule: one injector refill never
	// grabs more than this many tasks, however hard the fan-out pressure.
	maxRefillChunk = 256
)

// WithAdaptive attaches the adaptive controller to the runtime: a
// background goroutine that samples the signals layer every opts.Period,
// diffs consecutive samples, and — with hysteresis — retunes the policy
// words the schedulers consult (locality window, active worker-class set,
// criticality-first placement, injector refill chunk). Every applied
// decision is recorded as a flight-recorder adapt event (paired with the
// signals sample it was reasoned from, which the flightrec/verify checker
// cross-checks), and summarised in Stats.Adaptive. It composes with every
// scheduler, WithWorkerClasses, and WithTopology; the class-gating rule
// needs a heterogeneous pool to have anything to park, and the window,
// refill, and criticality rules only have traction on the work-stealing
// scheduler (the words are simply never consulted elsewhere).
func WithAdaptive(opts AdaptiveOptions) Option {
	return func(o *options) { o.adaptive = &opts }
}

// AdaptiveStats is the Stats.Adaptive snapshot: the current policy words
// (live even without WithAdaptive — they then just hold the construction
// configuration) and the controller's decision counters. Scalars only, so
// StatsInto stays allocation-free.
type AdaptiveStats struct {
	// Enabled reports whether the runtime runs an adaptive controller.
	Enabled bool
	// Samples is the number of signals-layer snapshots the controller has
	// taken; Decisions the number of policy changes it applied.
	Samples   uint64
	Decisions uint64
	// Window, RefillChunk, CritFirst, and ActiveClasses are the policy
	// words as of this snapshot.
	Window        int64
	RefillChunk   int64
	CritFirst     bool
	ActiveClasses uint64
	// Per-rule applied-decision counts.
	WindowChanges uint64
	ClassChanges  uint64
	ModeChanges   uint64
	RefillChanges uint64
}

// adaptKnob indexes the four policy settings the controller may retune.
// Settings are carried uniformly as int64 (the class mask and the
// crit-first flag fit trivially) so the hysteresis machinery is one loop.
type adaptKnob int

const (
	knobWindow adaptKnob = iota
	knobClassMask
	knobCritFirst
	knobRefill
	knobCount
)

// adaptProposal is one reason-step's output: for each knob, whether the
// rules propose a setting this sample and what it is. A knob with no
// proposal resets its hysteresis streak — phases must hold, not flicker.
type adaptProposal struct {
	has [knobCount]bool
	val [knobCount]int64
}

func (p *adaptProposal) set(k adaptKnob, v int64) {
	p.has[k] = true
	p.val[k] = v
}

// adaptDeltas is the per-period view the rules reason from: counter
// deltas between two consecutive samples plus the instantaneous queue
// state of the newer one.
type adaptDeltas struct {
	executed   uint64
	steals     uint64
	injPush    uint64
	critSubmit uint64
	homeHit    uint64
	homeMiss   uint64
	// pending is the newer sample's queued-task count; deepTail its
	// histogram population at depth ≥ 8 (buckets 4 and up).
	pending  int64
	deepTail uint32
}

// diffSamples builds the rule view from two consecutive samples.
func diffSamples(cur, prev *signalSample) adaptDeltas {
	d := adaptDeltas{
		executed:   cur.Executed - prev.Executed,
		steals:     cur.Steals - prev.Steals,
		injPush:    cur.InjPush - prev.InjPush,
		critSubmit: cur.CritSubmit - prev.CritSubmit,
		homeHit:    cur.HomeHit - prev.HomeHit,
		homeMiss:   cur.HomeMiss - prev.HomeMiss,
		pending:    cur.Pending,
	}
	for i := 4; i < depthBuckets; i++ {
		d.deepTail += cur.Depth[i]
	}
	return d
}

// policySnapshot is the policy words read at the top of one reason step,
// so every rule in the step sees the same settings.
type policySnapshot struct {
	window   int64
	chunk    int64
	crit     bool
	mask     uint64
	fullMask uint64
}

func (s policySnapshot) val(k adaptKnob) int64 {
	switch k {
	case knobWindow:
		return s.window
	case knobClassMask:
		return int64(s.mask)
	case knobCritFirst:
		if s.crit {
			return 1
		}
		return 0
	default:
		return s.chunk
	}
}

// clampWindow bounds a window proposal to
// [defaultAdaptiveMinWindow, defaultAdaptiveMaxWindow].
func clampWindow(v int64) int64 {
	return min(max(v, defaultAdaptiveMinWindow), defaultAdaptiveMaxWindow)
}

// proposePolicy is the pure reason step: from one period's deltas and the
// current policy, which settings should change. Pure — no clock, no
// runtime state — so the rules are unit-testable sample by sample.
//
// The rules, one per knob:
//
//   - Class gating: with queued work for every worker (pending ≥ workers)
//     run the whole pool; with the pool effectively serial (pending ≤ 1 —
//     a dependence chain, or idle) park everything but the fast class, so
//     chain links stop landing on slow workers that hold them Speed-times
//     longer. Homogeneous pools (one class) propose nothing.
//
//   - Locality window: under fan-out pressure — injector traffic plus
//     either deep queues or a large backlog — halve the window so wide
//     fans spill to the injector and spread in refill chunks instead of
//     being stolen back one CAS at a time; in a chain phase — releases
//     landing home, no injector traffic, shallow backlog — double it so
//     the chain's hand-off never spills off the warm cache.
//
//   - Criticality-first: the workload submitting priority hints turns the
//     crit heap on; a period with work but no hinted submissions turns it
//     back off.
//
//   - Refill chunk: injector pressure well past the current chunk doubles
//     it (amortising the injector lock), a quiet injector resets it.
func proposePolicy(d adaptDeltas, cur policySnapshot, workers int) adaptProposal {
	var p adaptProposal
	w := int64(workers)

	if cur.fullMask != 1 {
		switch {
		case d.pending >= w:
			p.set(knobClassMask, int64(cur.fullMask))
		case d.pending <= 1:
			p.set(knobClassMask, 1)
		}
	}

	fanOut := d.injPush > 0 && (d.pending >= 2*w || d.deepTail > 0)
	chain := d.executed > 0 && d.injPush == 0 && d.pending < w &&
		d.homeHit > 3*(d.homeMiss+1)
	switch {
	case fanOut:
		p.set(knobWindow, clampWindow(cur.window/2))
	case chain:
		p.set(knobWindow, clampWindow(cur.window*2))
	}

	if d.critSubmit > 0 {
		p.set(knobCritFirst, 1)
	} else if cur.crit && d.executed > 0 {
		p.set(knobCritFirst, 0)
	}

	if d.injPush > uint64(4*cur.chunk) {
		next := cur.chunk * 2
		if next > maxRefillChunk {
			next = maxRefillChunk
		}
		p.set(knobRefill, next)
	} else if d.injPush == 0 && cur.chunk != injectorGrab {
		p.set(knobRefill, injectorGrab)
	}
	return p
}

// adaptiveController is the monitor→reason→adapt loop. One goroutine
// (run) owns everything except the atomic decision counters StatsInto
// reads; the policy words it writes are the schedulers' cached atomics,
// so adaptation never takes a scheduler lock.
type adaptiveController struct {
	opts    AdaptiveOptions
	workers int
	pol     *policyWords
	sched   scheduler
	rec     *flightrec.Recorder
	sample  func(*signalSample)

	stop chan struct{}
	done chan struct{}

	// Monitor state: two reused snapshot buffers (diffed each tick, then
	// swapped) and whether prev holds a real sample yet.
	cur, prev signalSample
	havePrev  bool

	// Hysteresis state: the last proposed value per knob and how many
	// consecutive samples proposed it.
	lastVal [knobCount]int64
	streak  [knobCount]int

	// Decision counters, atomics because StatsInto reads them live.
	samples   atomic.Uint64
	decisions atomic.Uint64
	byRule    [knobCount]atomic.Uint64
}

// newAdaptiveController resolves the options and wires the controller to
// the runtime's signals, policy, scheduler, and recorder. The caller
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
		sample:  r.sampleSignals,
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

// step is one monitor→reason→adapt cycle: snapshot the signals (recording
// the signals event other consumers and the verifier key on), diff against
// the previous snapshot, and run the rules on the deltas.
func (c *adaptiveController) step() {
	c.sample(&c.cur)
	c.samples.Add(1)
	if c.rec != nil {
		c.rec.RecordExternal(flightrec.KindSignals, 0, c.cur.Epoch, 0)
	}
	if c.havePrev {
		c.reviseFrom(diffSamples(&c.cur, &c.prev), c.cur.Epoch)
	}
	c.havePrev = true
	// Swap the buffers: cur becomes the next diff's baseline and the old
	// baseline's slices are reused for the next snapshot.
	c.cur, c.prev = c.prev, c.cur
}

// snapshot reads the policy words once for a reason step.
func (c *adaptiveController) snapshot() policySnapshot {
	return policySnapshot{
		window:   c.pol.window.Load(),
		chunk:    c.pol.refillChunk.Load(),
		crit:     c.pol.critFirst.Load() != 0,
		mask:     c.pol.classMask.Load(),
		fullMask: c.pol.fullMask,
	}
}

// reviseFrom is the reason→adapt half of one cycle, split from step so
// tests can drive it with synthetic deltas: compute the proposal, update
// the per-knob hysteresis streaks, and apply every setting whose proposal
// has held for Hysteresis consecutive samples.
func (c *adaptiveController) reviseFrom(d adaptDeltas, epoch uint64) {
	cur := c.snapshot()
	p := proposePolicy(d, cur, c.workers)
	for k := adaptKnob(0); k < knobCount; k++ {
		if !p.has[k] || p.val[k] == cur.val(k) {
			// No proposal (or already there): the phase did not hold, so the
			// pending streak dies. lastVal is kept — an identical proposal
			// later starts a fresh streak at 1 either way.
			c.streak[k] = 0
			continue
		}
		if c.lastVal[k] == p.val[k] {
			c.streak[k]++
		} else {
			c.lastVal[k] = p.val[k]
			c.streak[k] = 1
		}
		if c.streak[k] < c.opts.Hysteresis {
			continue
		}
		c.streak[k] = 0
		c.apply(k, cur.val(k), p.val[k], epoch)
	}
}

// apply installs one decided setting, notifies gate-parked workers, and
// records the adapt event carrying the epoch of the sample it was
// reasoned from.
func (c *adaptiveController) apply(k adaptKnob, old, new int64, epoch uint64) {
	var rule uint8
	switch k {
	case knobWindow:
		c.pol.setWindow(new)
		rule = flightrec.AdaptWindow
	case knobClassMask:
		c.pol.setClassMask(uint64(new))
		rule = flightrec.AdaptClassMask
	case knobCritFirst:
		c.pol.setCritFirst(new != 0)
		rule = flightrec.AdaptCritFirst
	default:
		c.pol.setRefillChunk(new)
		rule = flightrec.AdaptRefill
	}
	c.byRule[k].Add(1)
	c.decisions.Add(1)
	c.sched.policyChanged()
	if c.rec != nil {
		c.rec.RecordExternal(flightrec.KindAdapt, 0, epoch,
			flightrec.PackAdapt(rule, uint64(old), uint64(new)))
	}
}

// halt stops the controller goroutine and waits for it to exit.
func (c *adaptiveController) halt() {
	close(c.stop)
	<-c.done
}

// statsInto fills the controller's slice of an AdaptiveStats snapshot.
func (c *adaptiveController) statsInto(a *AdaptiveStats) {
	a.Enabled = true
	a.Samples = c.samples.Load()
	a.Decisions = c.decisions.Load()
	a.WindowChanges = c.byRule[knobWindow].Load()
	a.ClassChanges = c.byRule[knobClassMask].Load()
	a.ModeChanges = c.byRule[knobCritFirst].Load()
	a.RefillChanges = c.byRule[knobRefill].Load()
}

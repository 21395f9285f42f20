package runtime

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/flightrec"
)

// options is the resolved runtime configuration. It is built exclusively
// through functional options so the zero value of every knob can stay a
// sensible default and new knobs can be added without breaking callers.
type options struct {
	workers     int
	classes     []WorkerClass
	scheduler   SchedulerKind
	queueBound  int
	retainTrace bool
	localWindow int
	flight      *flightrec.Options
}

// defaultLocalityWindow is the locality window a runtime uses when
// WithLocalityWindow is not given: deep enough that a producer keeps a
// cache-warm run of successors to itself, shallow enough that a wide fan
// spills to the injector and parallelises instead of being stolen back one
// CAS at a time.
const defaultLocalityWindow = 32

func defaultOptions() options {
	return options{workers: 4, scheduler: WorkSteal, localWindow: defaultLocalityWindow}
}

// Option configures a Runtime at construction time.
type Option func(*options)

// WorkerClass describes one class of workers in a heterogeneous pool —
// the software model of an asymmetric (big.LITTLE-style) machine. Count
// workers share the class; Speed is the class's relative speed multiplier
// (1.0 = nominal, 0.5 = half as fast). The runtime uses the classes for
// criticality-aware placement: CATS reserves high-bottom-level tasks for
// the fastest class; FIFO and WorkSteal are class-blind. Name is an
// optional label ("big", "LITTLE") surfaced by diagnostics; unnamed
// classes are labelled "class<i>" after resolution.
type WorkerClass struct {
	// Name labels the class in stats and diagnostics ("" = auto).
	Name string
	// Count is the number of workers in the class.
	Count int
	// Speed is the class's relative speed multiplier (1.0 = nominal).
	// It is advisory: the runtime does not slow workers down, it only
	// uses the ordering for placement. Simulated workloads can read the
	// multiplier back through TaskPlacement and scale their work.
	Speed float64
}

// String renders the class as "name×count@speed".
func (c WorkerClass) String() string {
	return fmt.Sprintf("%s×%d@%g", c.Name, c.Count, c.Speed)
}

// valid reports whether the class contributes workers: it needs a
// positive count and a positive, finite speed.
func (c WorkerClass) valid() bool {
	return c.Count > 0 && c.Speed > 0 && !math.IsInf(c.Speed, 1) && !math.IsNaN(c.Speed)
}

// WithWorkers sets the worker-pool size as a single homogeneous class at
// nominal speed. Values below 1 are ignored and the previous configuration
// (default: 4 workers) is kept. WithWorkers and WithWorkerClasses override
// each other: the last option applied wins.
func WithWorkers(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.workers = n
			o.classes = nil
		}
	}
}

// WithWorkerClasses configures a heterogeneous pool from the given worker
// classes. Invalid classes — zero or negative Count, or a Speed that is
// not positive and finite — are dropped at construction; if no valid
// class remains the option is a no-op and the pool falls back to the
// homogeneous configuration (WithWorkers or the default of 4). The
// resolved classes are ordered fastest first and worker IDs are assigned
// in that order, so workers 0..fastCount-1 always form the fastest class;
// Runtime.WorkerClasses reports the result. WithWorkerClasses and
// WithWorkers override each other: the last option applied wins.
func WithWorkerClasses(classes ...WorkerClass) Option {
	return func(o *options) {
		o.classes = append([]WorkerClass(nil), classes...)
	}
}

// resolveClasses normalises the configured classes into the worker layout:
// invalid classes are dropped, the rest are sorted fastest first (stable,
// so equal-speed classes keep their configured order), unnamed classes get
// positional names, and with no valid class the pool is one nominal-speed
// class of o.workers workers. It returns the resolved classes, the
// workerID→class-index map, and the number of fast-class workers (every
// worker whose class ties the top speed).
func (o options) resolveClasses() (classes []WorkerClass, classOf []int, fastN int) {
	for _, c := range o.classes {
		if c.valid() {
			classes = append(classes, c)
		}
	}
	if len(classes) == 0 {
		classes = []WorkerClass{{Name: "worker", Count: o.workers, Speed: 1}}
	}
	sort.SliceStable(classes, func(i, j int) bool { return classes[i].Speed > classes[j].Speed })
	for i := range classes {
		if classes[i].Name == "" {
			classes[i].Name = fmt.Sprintf("class%d", i)
		}
	}
	for ci, c := range classes {
		for k := 0; k < c.Count; k++ {
			classOf = append(classOf, ci)
		}
		if c.Speed == classes[0].Speed {
			fastN += c.Count
		}
	}
	return classes, classOf, fastN
}

// WithScheduler selects the scheduling policy (WorkSteal by default).
func WithScheduler(k SchedulerKind) Option {
	return func(o *options) { o.scheduler = k }
}

// WithQueueBound caps the number of outstanding (submitted but unfinished)
// tasks. When the bound is reached, SubmitCtx blocks until a task completes
// or its context is cancelled — backpressure for producers that would
// otherwise build an unbounded graph. 0 (the default) means unbounded.
//
// The bound counts every unfinished task, including blocked predecessors of
// the one being submitted, so a bound smaller than the longest dependence
// chain the program submits can deadlock the submitting goroutine; choose a
// bound comfortably above the graph's depth.
func WithQueueBound(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.queueBound = n
		}
	}
}

// WithTraceRetention keeps a registration log — every submitted task's
// name and dependences, in the order the tracker linked them — for
// Graph export. Task records are released and reused as without it; the
// log is what grows, by one entry per task ever submitted, so turn it on
// only for bounded runs whose graph you intend to export or replay. With
// it off, Graph fails with ErrNoTrace.
func WithTraceRetention() Option {
	return func(o *options) { o.retainTrace = true }
}

// WithLocalityWindow bounds the worker-local locality path of the
// work-stealing scheduler. When a task completes on worker W, its
// newly-ready successors are pushed onto W's own deque (LIFO, so the
// consumer runs next on the producer's still-warm cache) as long as the
// deque holds fewer than n tasks; past the window they spill to the shared
// injector so a wide fan still spreads across the pool. Submissions made
// from inside a task body (with the body's context) take the same
// worker-local path. n <= 0 disables locality entirely — every release
// goes through the central injector, the baseline the locality throughput
// scenario compares against. The default is 32. The FIFO and CATS
// schedulers are unaffected: their queues are central by design (CATS's
// class-gated criticality order stays authoritative — locality never
// overrides critical-task placement).
func WithLocalityWindow(n int) Option {
	return func(o *options) { o.localWindow = n }
}

// WithFlightRecorder attaches an always-on flight recorder to the runtime:
// fixed-memory per-worker event rings capturing the scheduling timeline
// (submit, ready, dispatch, steal, park, wake, complete), readable at any
// moment through Runtime.FlightRecorder — Snapshot/Tail for the merged
// last-N-seconds view, Collect for online consumers like the
// flightrec/verify invariant checker. The record path is allocation-free
// and lock-free on workers (the submit path shares one mutex-guarded
// ring), so the recorder is cheap enough to leave on in production; memory
// is fixed at (workers+2) × PerWorkerEvents slots. The zero Options value
// selects the defaults (2048 events per ring, 10ms clock). It composes with
// every scheduler and with worker classes: CATS dispatch events carry the
// class-gating evidence (crit origin, fast-class saturation) the verifier
// checks placement against.
func WithFlightRecorder(fo flightrec.Options) Option {
	return func(o *options) { o.flight = &fo }
}

// WithShards is ignored: the dependence tracker is one lock. It stays for
// callers that still pass it, such as the repo benchmark's shards1 arm.
func WithShards(int) Option {
	return func(*options) {}
}

// AdaptiveOptions has no fields: WithAdaptive is ignored.
type AdaptiveOptions struct{}

// WithAdaptive is ignored: it starts nothing on any scheduler. CATS is the
// runtime's one class-aware scheduler (WithScheduler, WithWorkerClasses).
// The option stays for callers that still pass it, such as the repo
// benchmark's adaptive arm.
func WithAdaptive(AdaptiveOptions) Option {
	return func(*options) {}
}

// AdaptiveStats is Stats.Adaptive, always zero since no controller runs.
// It stays for callers that still read it.
type AdaptiveStats struct {
	// Decisions is always 0.
	Decisions uint64
}

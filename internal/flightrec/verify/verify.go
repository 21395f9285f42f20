// Package verify is the online invariant checker over the flight
// recorder's event stream: it replays merged snapshots through a per-task
// state machine and counts violations of the runtime's scheduling
// invariants — cheaply enough to run continuously beside a live pool, and
// strictly enough that the PR-5 publish-window race (a stale CATS heap
// entry dispatching a recycled task record) surfaces as a mechanical
// violation instead of a hand-built stress observation.
package verify

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/flightrec"
)

// Invariant identifies one checked runtime invariant.
type Invariant uint8

// The checked invariants.
const (
	// DispatchNotReady: a task was dispatched (or completed) without being
	// in the ready (respectively running) state — the signature of a
	// double dispatch through a stale queue entry.
	DispatchNotReady Invariant = iota
	// ClaimRegression: a task's events carry diverging claim generations —
	// a queue entry outlived the record's life it was created in, or a
	// generation moved backwards.
	ClaimRegression
	// ClassGating: a slow-class worker dispatched critical work while the
	// fast class was not saturated (the CATS placement rule: crit work
	// leaks below the fast class only at fastCritRunning == fastN).
	ClassGating
	// Starvation: a ready task waited longer than Options.StarveBound
	// without being dispatched while the runtime kept making progress.
	Starvation
	// AdaptProvenance: an adaptive-controller decision event arrived whose
	// sample epoch does not match the latest signals event — the controller
	// applied a policy change it cannot account for with a sample, or the
	// signals event was lost without a ring gap.
	AdaptProvenance
	// FaultResolution: a task recorded a fault (panic, body error, or
	// deadline overrun) that was never resolved by a retry or a completion
	// within a full subsequent sweep — the recovery path lost the task, or
	// the worker died mid-recovery. This doubles as the worker liveness
	// check: a worker that vanishes between a fault and its resolution
	// leaves exactly this signature.
	FaultResolution
	// RetryBudget: a retry event's attempt count exceeded its policy's
	// Max — the runtime re-armed a task more times than the spec allowed
	// (the poison-quarantine rule requires exhausted tasks to fail
	// terminally, never spin).
	RetryBudget
)

// String implements fmt.Stringer.
func (i Invariant) String() string {
	switch i {
	case DispatchNotReady:
		return "dispatch-not-ready"
	case ClaimRegression:
		return "claim-regression"
	case ClassGating:
		return "class-gating"
	case Starvation:
		return "starvation"
	case AdaptProvenance:
		return "adapt-provenance"
	case FaultResolution:
		return "fault-resolution"
	case RetryBudget:
		return "retry-budget"
	default:
		return fmt.Sprintf("Invariant(%d)", int(i))
	}
}

// Violation is one detected invariant violation.
type Violation struct {
	// Invariant is which rule was broken.
	Invariant Invariant
	// Task is the subject task ID (0 when not task-specific).
	Task uint64
	// Worker is the worker whose event triggered the violation.
	Worker int32
	// Seq is the global sequence number of the triggering event.
	Seq uint64
	// Detail is a human-readable account of the evidence.
	Detail string
}

// Options configures a Checker.
type Options struct {
	// StarveBound is the longest a ready task may wait undispatched while
	// later events keep arriving. It should be comfortably above the
	// recorder's clock granularity. <= 0 disables the starvation check.
	// Default (zero value): disabled.
	StarveBound time.Duration
	// MaxTracked bounds the in-flight task table. When exceeded the table
	// resets and tracking restarts conservatively (a reset is counted, not
	// a violation). Default 65536.
	MaxTracked int
	// OnViolation, when set, is called synchronously for every violation
	// (from whatever goroutine feeds the checker). Counters in Stats are
	// maintained regardless.
	OnViolation func(Violation)
}

// lifecycle states of a tracked task.
const (
	stSubmitted uint8 = iota
	stReady
	stRunning
	// stDoneAwait: completed while its ready event is still outstanding
	// (see taskInfo.await) — the entry is held until the ready arrives and
	// the order question can be settled.
	stDoneAwait
)

// taskInfo is the checker's view of one in-flight task.
type taskInfo struct {
	state   uint8
	starved bool // starvation already reported
	// await marks a dispatch consumed while the task was only submitted.
	// That is either the real dispatch-before-ready violation or snapshot
	// skew: Collect sweeps the rings one by one, so a ready event written
	// to an early-swept ring can surface one batch AFTER a causally-later
	// dispatch from a late-swept ring. The global sequence numbers settle
	// it — the skewed ready carries a smaller seq than the dispatch, a
	// genuine early dispatch a larger one — so judgement is deferred to
	// the ready's arrival (or its failure to arrive within one full
	// subsequent sweep, which the causal write order rules out for skew).
	await       bool
	dispatchSeq uint64
	gen         uint64
	readyTime   int64
	readySeq    uint64
}

// Stats is the checker's counter snapshot. Violations surface here (and
// through Options.OnViolation); a zero Total after a run means every
// consumed event respected the invariants.
type Stats struct {
	// Events is the number of events consumed.
	Events uint64
	// Gaps counts feeds whose snapshot had lost events (ring overwritten
	// past the cursor); after a gap, unknown tasks are tracked
	// conservatively instead of flagged.
	Gaps uint64
	// Resets counts task-table overflows (MaxTracked exceeded).
	Resets uint64
	// Tracked is the current in-flight task-table size.
	Tracked int
	// DispatchNotReady, ClaimRegressions, ClassGating and Starvations
	// count violations per invariant.
	DispatchNotReady uint64
	// ClaimRegressions counts ClaimRegression violations.
	ClaimRegressions uint64
	// ClassGating counts ClassGating violations.
	ClassGating uint64
	// Starvations counts Starvation violations.
	Starvations uint64
	// AdaptProvenance counts AdaptProvenance violations.
	AdaptProvenance uint64
	// AdaptDecisions counts adaptive-controller decision events consumed —
	// context for the provenance counter, not a violation.
	AdaptDecisions uint64
	// FaultResolution counts FaultResolution violations.
	FaultResolution uint64
	// RetryBudget counts RetryBudget violations.
	RetryBudget uint64
	// Faults and Retries count fault and retry events consumed — context
	// for the fault invariants, not violations.
	Faults  uint64
	Retries uint64
	// Total is the sum of all violation counters.
	Total uint64
}

// Checker consumes flight-recorder snapshots and verifies the runtime
// invariants online. Feed and Stats are safe for concurrent use.
type Checker struct {
	opts Options

	mu    sync.Mutex
	tasks map[uint64]*taskInfo
	stats Stats
	// lax is set after any gap or reset: events for unknown tasks are then
	// adopted silently (their early history may have been overwritten)
	// instead of reported. Tasks first seen via submit/ready are tracked
	// strictly either way.
	lax bool
	// lastTime is the latest event timestamp seen, the "now" the
	// starvation sweep measures ready tasks against.
	lastTime int64
	// epoch counts Feed calls; awaiting maps task ID → the epoch its
	// deferred dispatch was consumed in. A deferred dispatch unreconciled
	// after one full later sweep is a real violation (the skewed ready
	// would have surfaced by then), flagged by expireAwaits.
	epoch    uint64
	awaiting map[uint64]uint64
	// pendingFault maps task ID → the epoch of its unresolved fault event.
	// A fault is resolved by the task's retry or completion; one that
	// survives a full subsequent sweep is a FaultResolution violation
	// (same two-epoch discipline as awaiting — the resolving event may
	// ride a later snapshot).
	pendingFault map[uint64]uint64
	// held defers judgement on the newest snapshot by one sweep. Collect's
	// cut is torn — rings are swept one by one, so a causally-later event
	// (a re-arm's ready on the external ring, say) can surface one batch
	// BEFORE its predecessors (the fault/retry pair on a not-yet-swept
	// worker ring). Any predecessor of a held event is guaranteed to be
	// collected by the next sweep (its ring write completed strictly before
	// the held event was recorded), so processing the held batch merged in
	// global sequence order with the next batch's at-or-below-watermark
	// prefix restores causal order. The retry path made multi-event chains
	// inside one sweep window the norm, which is what forced this from the
	// narrow per-case deferrals (taskInfo.await) to a general reorder
	// stage; await remains as the backstop for the residual late-publish
	// window (a worker preempted between sequence acquisition and its ring
	// store).
	held, merge []flightrec.Event

	// Adapt-provenance state: the epoch of the latest signals event, valid
	// only while haveSig holds (a ring gap may have swallowed the signals
	// event a later decision refers to, so gaps reset it).
	sigEpoch uint64
	haveSig  bool
}

// New creates a Checker.
func New(opts Options) *Checker {
	if opts.MaxTracked <= 0 {
		opts.MaxTracked = 1 << 16
	}
	return &Checker{opts: opts, tasks: make(map[uint64]*taskInfo),
		awaiting: make(map[uint64]uint64), pendingFault: make(map[uint64]uint64)}
}

// Stats returns a snapshot of the checker's counters.
func (c *Checker) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Tracked = len(c.tasks)
	s.Total = s.DispatchNotReady + s.ClaimRegressions + s.ClassGating + s.Starvations +
		s.AdaptProvenance + s.FaultResolution + s.RetryBudget
	return s
}

// report files one violation.
func (c *Checker) report(v Violation) {
	switch v.Invariant {
	case DispatchNotReady:
		c.stats.DispatchNotReady++
	case ClaimRegression:
		c.stats.ClaimRegressions++
	case ClassGating:
		c.stats.ClassGating++
	case Starvation:
		c.stats.Starvations++
	case AdaptProvenance:
		c.stats.AdaptProvenance++
	case FaultResolution:
		c.stats.FaultResolution++
	case RetryBudget:
		c.stats.RetryBudget++
	}
	if c.opts.OnViolation != nil {
		c.opts.OnViolation(v)
	}
}

// Feed consumes one merged, sequence-ordered snapshot delta (as produced by
// Recorder.Collect). gap tells the checker that events were lost since the
// previous feed; it then stops flagging tasks whose early history it may
// have missed.
func (c *Checker) Feed(events []flightrec.Event, gap bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	if gap {
		// The held batch predates the loss window: judge it under the
		// pre-gap state before the gap handling resets that state.
		for i := range c.held {
			c.consume(&c.held[i])
		}
		c.held = c.held[:0]
		c.stats.Gaps++
		c.lax = true
		// The evidence that would reconcile deferred dispatches may be in
		// the lost window; resolve them silently.
		for id := range c.awaiting {
			c.resolveAwait(id)
		}
		// The retry or completion resolving a pending fault may be in the
		// lost window too.
		clear(c.pendingFault)
		// The signals event a post-gap decision refers to may be in the lost
		// window.
		c.haveSig = false
	}
	c.expireAwaits()
	c.expireFaults()
	// Reorder stage (see the held field): release the previous sweep's
	// batch plus this sweep's events at or below its watermark, merged in
	// global sequence order; the remainder becomes the new held batch.
	var wm uint64
	if n := len(c.held); n > 0 {
		wm = c.held[n-1].Seq
	}
	cut := sort.Search(len(events), func(i int) bool { return events[i].Seq > wm })
	c.merge = mergeBySeq(c.merge[:0], c.held, events[:cut])
	for i := range c.merge {
		c.consume(&c.merge[i])
	}
	c.held = append(c.held[:0], events[cut:]...)
	if b := c.opts.StarveBound; b > 0 {
		c.sweepStarved(b)
	}
}

// mergeBySeq merges two sequence-sorted event slices into dst.
func mergeBySeq(dst, a, b []flightrec.Event) []flightrec.Event {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Seq <= b[j].Seq {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// resolveAwait clears task id's deferred-dispatch marker without judgement,
// dropping the held entry if the task already completed. Caller holds mu.
func (c *Checker) resolveAwait(id uint64) {
	delete(c.awaiting, id)
	if ti := c.tasks[id]; ti != nil {
		ti.await = false
		if ti.state == stDoneAwait {
			delete(c.tasks, id)
		}
	}
}

// expireAwaits flags deferred dispatches that a full subsequent sweep
// failed to reconcile: every ring has been read again since the dispatch
// was consumed, and a ready event that was merely skew-delayed would have
// surfaced (its ring write completes strictly before the dispatch's).
// Caller holds mu.
func (c *Checker) expireAwaits() {
	for id, ep := range c.awaiting {
		if ep+2 > c.epoch {
			continue
		}
		ti := c.tasks[id]
		if ti != nil {
			c.report(Violation{Invariant: DispatchNotReady, Task: id, Worker: flightrec.ExternalWorker, Seq: ti.dispatchSeq,
				Detail: fmt.Sprintf("task %d dispatched with no ready event ever recorded", id)})
		}
		c.resolveAwait(id)
	}
}

// expireFaults flags faults that a full subsequent sweep failed to resolve
// with a retry or completion: the resolving event — written to the same
// worker ring strictly after the fault, or causally ordered behind the
// re-arm — would have surfaced by then, so the task (or its worker) was
// lost mid-recovery. Caller holds mu.
func (c *Checker) expireFaults() {
	for id, ep := range c.pendingFault {
		if ep+2 > c.epoch {
			continue
		}
		c.report(Violation{Invariant: FaultResolution, Task: id, Worker: flightrec.ExternalWorker,
			Detail: fmt.Sprintf("task %d faulted with no retry or completion ever recorded (worker died mid-recovery?)", id)})
		delete(c.pendingFault, id)
	}
}

// Flush settles every still-deferred dispatch as if the stream had ended:
// a ready that has not arrived by now never will, so each outstanding
// deferral is a dispatch-before-ready violation (and each unresolved fault
// a lost recovery). Call it after the final Feed of a drained recorder
// (Online.Stop does).
func (c *Checker) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The stream has ended: the held batch has no next sweep coming, so
	// release it now — its predecessors either arrived or never will.
	for i := range c.held {
		c.consume(&c.held[i])
	}
	c.held = c.held[:0]
	c.epoch += 2 // everything outstanding is expired by definition
	c.expireAwaits()
	c.expireFaults()
}

// AdvanceTime tells the checker wall time has reached now even if no new
// events arrived — so a ready task stuck behind a lost wakeup in an
// otherwise idle pool still trips the starvation bound. The clock only
// moves forward; times before the latest event are ignored.
func (c *Checker) AdvanceTime(nowUnixNano int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if nowUnixNano > c.lastTime {
		c.lastTime = nowUnixNano
	}
	if b := c.opts.StarveBound; b > 0 {
		c.sweepStarved(b)
	}
}

// consume advances one task's state machine by one event. Caller holds mu.
func (c *Checker) consume(e *flightrec.Event) {
	c.stats.Events++
	if e.Time > c.lastTime {
		c.lastTime = e.Time
	}
	switch e.Kind {
	case flightrec.KindSubmit:
		c.adopt(e, stSubmitted)
	case flightrec.KindReady:
		ti := c.tasks[e.Task]
		if ti == nil {
			c.adopt(e, stReady)
			return
		}
		if ti.await {
			// The deferred ready arrived. A smaller sequence number than
			// the dispatch means plain snapshot skew — reconciled; a larger
			// one means the task really was dispatched before it was ready.
			if e.Seq > ti.dispatchSeq {
				c.report(Violation{Invariant: DispatchNotReady, Task: e.Task, Worker: e.Worker, Seq: ti.dispatchSeq,
					Detail: fmt.Sprintf("task %d dispatched (seq %d) before its ready (seq %d)", e.Task, ti.dispatchSeq, e.Seq)})
			}
			c.checkGen(ti, e)
			c.resolveAwait(e.Task)
			return
		}
		// A ready for a task we saw submitted: the one legal transition.
		if ti.state != stSubmitted {
			c.report(Violation{Invariant: DispatchNotReady, Task: e.Task, Worker: e.Worker, Seq: e.Seq,
				Detail: fmt.Sprintf("task %d marked ready twice (state %d)", e.Task, ti.state)})
		}
		c.checkGen(ti, e)
		ti.state = stReady
		ti.readyTime = e.Time
		ti.readySeq = e.Seq
	case flightrec.KindDispatch:
		_, fromCrit, sat, fastN := flightrec.DispatchInfo(e.Arg2)
		if fromCrit && fastN > 0 && int(e.Worker) >= fastN && sat != fastN {
			c.report(Violation{Invariant: ClassGating, Task: e.Task, Worker: e.Worker, Seq: e.Seq,
				Detail: fmt.Sprintf("slow worker %d dispatched crit task %d below saturation (%d/%d fast workers on crit)",
					e.Worker, e.Task, sat, fastN)})
		}
		ti := c.tasks[e.Task]
		if ti == nil {
			if !c.lax {
				c.report(Violation{Invariant: DispatchNotReady, Task: e.Task, Worker: e.Worker, Seq: e.Seq,
					Detail: fmt.Sprintf("task %d dispatched with no recorded ready", e.Task)})
			}
			c.adopt(e, stRunning)
			return
		}
		switch ti.state {
		case stReady:
			c.checkGen(ti, e)
			ti.state = stRunning
		case stSubmitted:
			// Real early dispatch or snapshot skew — defer to the ready
			// event (see taskInfo.await).
			c.checkGen(ti, e)
			ti.state = stRunning
			ti.await = true
			ti.dispatchSeq = e.Seq
			c.awaiting[e.Task] = c.epoch
		default:
			c.report(Violation{Invariant: DispatchNotReady, Task: e.Task, Worker: e.Worker, Seq: e.Seq,
				Detail: fmt.Sprintf("task %d dispatched in state %d (double dispatch through a stale entry?)", e.Task, ti.state)})
			c.checkGen(ti, e)
			ti.state = stRunning
		}
	case flightrec.KindComplete:
		// A completion resolves any pending fault: a terminal failure's
		// lifecycle ends in a complete like any other task's.
		delete(c.pendingFault, e.Task)
		ti := c.tasks[e.Task]
		if ti == nil {
			return // pre-window task; nothing to verify
		}
		if ti.await {
			// Hold the entry: the ready-ordering question is still open.
			c.checkGen(ti, e)
			ti.state = stDoneAwait
			return
		}
		// A self-dispatch flag legalises ready→complete: the worker that
		// readied the task ran it itself and elided the (by-construction
		// redundant) dispatch event. Without the flag a complete straight
		// from ready means the dispatch path lost an event.
		selfOK := ti.state == stReady && e.Arg2&flightrec.CompleteSelfDispatch != 0
		if ti.state != stRunning && !selfOK && !c.lax {
			c.report(Violation{Invariant: DispatchNotReady, Task: e.Task, Worker: e.Worker, Seq: e.Seq,
				Detail: fmt.Sprintf("task %d completed in state %d (never dispatched?)", e.Task, ti.state)})
		}
		c.checkGen(ti, e)
		delete(c.tasks, e.Task)
	case flightrec.KindFault:
		c.stats.Faults++
		c.pendingFault[e.Task] = c.epoch
		if ti := c.tasks[e.Task]; ti != nil {
			c.checkGen(ti, e)
		} else {
			// Pre-window task (its dispatch handling already judged the
			// missing history); track it so the resolution can be verified.
			c.adopt(e, stRunning)
		}
	case flightrec.KindRetry:
		c.stats.Retries++
		delete(c.pendingFault, e.Task)
		attempt, max := flightrec.RetryInfo(e.Arg2)
		if attempt > max {
			c.report(Violation{Invariant: RetryBudget, Task: e.Task, Worker: e.Worker, Seq: e.Seq,
				Detail: fmt.Sprintf("task %d re-armed for attempt %d past its retry budget of %d", e.Task, attempt, max)})
		}
		if ti := c.tasks[e.Task]; ti != nil {
			c.checkGen(ti, e)
			// The re-arm legalises the task's next ready event: the record
			// returns to the scheduler as if freshly published.
			ti.state = stSubmitted
		} else {
			c.adopt(e, stSubmitted)
		}
	case flightrec.KindSteal:
		// Timeline marker: no per-task invariant.
	case flightrec.KindSignals:
		c.sigEpoch = e.Arg
		c.haveSig = true
	case flightrec.KindAdapt:
		c.stats.AdaptDecisions++
		// The controller records a decision strictly after the signals event
		// of the sample it was reasoned from, on the same lane, so in the
		// merged order every adapt must match the latest signals epoch. A
		// mismatch means a decision without a sample to justify it.
		if !c.haveSig {
			if !c.lax {
				c.report(Violation{Invariant: AdaptProvenance, Task: 0, Worker: e.Worker, Seq: e.Seq,
					Detail: fmt.Sprintf("adapt decision (epoch %d) with no signals sample recorded", e.Arg)})
			}
			return
		}
		if e.Arg != c.sigEpoch {
			rule, old, new := flightrec.AdaptInfo(e.Arg2)
			c.report(Violation{Invariant: AdaptProvenance, Task: 0, Worker: e.Worker, Seq: e.Seq,
				Detail: fmt.Sprintf("adapt decision %s %d→%d reasoned from epoch %d but latest sample is epoch %d",
					flightrec.AdaptRuleName(rule), old, new, e.Arg, c.sigEpoch)})
		}
	}
}

// adopt starts tracking a task first seen through e.
func (c *Checker) adopt(e *flightrec.Event, state uint8) {
	if len(c.tasks) >= c.opts.MaxTracked {
		// Bound the table: drop everything and restart conservatively.
		c.tasks = make(map[uint64]*taskInfo)
		c.awaiting = make(map[uint64]uint64)
		c.pendingFault = make(map[uint64]uint64)
		c.stats.Resets++
		c.lax = true
	}
	ti := &taskInfo{state: state, gen: flightrec.ClaimGen(e.Arg)}
	if state == stReady {
		ti.readyTime = e.Time
		ti.readySeq = e.Seq
	}
	c.tasks[e.Task] = ti
}

// checkGen verifies the event's claim generation against the task's
// tracked one. Task IDs are never reused by the runtime, so every event of
// one task must carry the generation of the single record life it ran as;
// divergence means a reference crossed a recycle boundary.
func (c *Checker) checkGen(ti *taskInfo, e *flightrec.Event) {
	gen := flightrec.ClaimGen(e.Arg)
	if gen == ti.gen {
		return
	}
	c.report(Violation{Invariant: ClaimRegression, Task: e.Task, Worker: e.Worker, Seq: e.Seq,
		Detail: fmt.Sprintf("task %d %s carries claim generation %d, tracked %d", e.Task, e.Kind, gen, ti.gen)})
	if gen > ti.gen {
		ti.gen = gen
	}
}

// sweepStarved flags ready tasks that have waited longer than bound while
// the stream kept advancing. Caller holds mu.
func (c *Checker) sweepStarved(bound time.Duration) {
	lim := bound.Nanoseconds()
	for id, ti := range c.tasks {
		if ti.state != stReady || ti.starved {
			continue
		}
		if wait := c.lastTime - ti.readyTime; wait > lim {
			ti.starved = true
			c.report(Violation{Invariant: Starvation, Task: id, Worker: flightrec.ExternalWorker, Seq: ti.readySeq,
				Detail: fmt.Sprintf("task %d ready for %s (bound %s) without dispatch", id, time.Duration(wait), bound)})
		}
	}
}

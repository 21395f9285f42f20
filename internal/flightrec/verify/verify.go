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
	// FaultResolution: a task recorded a fault (panic, body error, or
	// deadline overrun) that its retry or completion did not follow within
	// the same consume pass — the runtime writes a fault and its resolution
	// as one paired ring write, so a fault that surfaces alone means the
	// recovery path recorded one without the other.
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
)

// taskInfo is the checker's view of one in-flight task.
type taskInfo struct {
	state     uint8
	starved   bool // starvation already reported
	gen       uint64
	readyTime int64
	readySeq  uint64
}

// Stats is the checker's counter snapshot. Violations surface here (and
// through Options.OnViolation); a zero Total after a run means every
// consumed event respected the invariants.
type Stats struct {
	// Events is the number of events consumed.
	Events uint64
	// Gaps counts feeds whose snapshot had lost events (ring overwritten
	// past the cursor); from the first gap on, judgements that rest on an
	// event's absence are off (see Checker.lax).
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
	// lax is set by any gap or reset and never cleared: the judgements that
	// rest on an event's absence — a dispatch with no ready before it, a
	// complete with no dispatch — are then off,
	// because the missing event may be in the lost window. Judgements on
	// events that are present (double dispatch, generations, class gating,
	// budgets, faults) stay on.
	lax bool
	// lastTime is the latest event timestamp seen, the "now" the
	// starvation sweep measures ready tasks against.
	lastTime int64
	// pendingFault is the set of tasks whose fault event the current
	// consume pass has seen and whose retry or completion it has not. The
	// runtime writes the two as one paired ring write — one head store,
	// adjacent sequences — so they reach the same pass, which flags what is
	// left when it ends.
	pendingFault map[uint64]struct{}
	// held is the one mechanism for cross-ring order: judgement on the
	// newest snapshot is deferred by one sweep. Collect's cut is torn —
	// rings are swept one by one, so a causally-later event (a dispatch on
	// a late-swept worker ring) can surface one batch BEFORE its
	// predecessor (the ready on an early-swept ring). Every predecessor's
	// ring write completes before its successor acquires a sequence number
	// (markReady records the ready before the scheduler push that arms a
	// dispatch), so it is collected by the successor's sweep or the next;
	// and a successor whose predecessor missed its sweep was sequenced after
	// that sweep began, above the previous sweep's watermark, so it is
	// still held when the predecessor arrives. Releasing the held batch
	// merged in global sequence order with the next batch's
	// at-or-below-watermark prefix therefore puts every cause in front of
	// its effect, and consume judges the stream on the spot.
	held, merge []flightrec.Event
}

// New creates a Checker.
func New(opts Options) *Checker {
	if opts.MaxTracked <= 0 {
		opts.MaxTracked = 1 << 16
	}
	return &Checker{opts: opts, tasks: make(map[uint64]*taskInfo), pendingFault: make(map[uint64]struct{})}
}

// Stats returns a snapshot of the checker's counters.
func (c *Checker) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Tracked = len(c.tasks)
	s.Total = s.DispatchNotReady + s.ClaimRegressions + s.ClassGating + s.Starvations +
		s.FaultResolution + s.RetryBudget
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
// previous feed; it then stops making the judgements that rest on an
// event's absence (see Checker.lax).
func (c *Checker) Feed(events []flightrec.Event, gap bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gap {
		c.stats.Gaps++
		// A predecessor the held batch is still waiting for was written just
		// after its ring was last read — the first thing a lapped ring
		// loses — so the batch is already judged lax. What it does hold
		// predates the loss: consume it before the post-gap events.
		c.lax = true
		c.pass(c.held)
		c.held = c.held[:0]
	}
	// Reorder stage (see the held field): release the previous sweep's
	// batch plus this sweep's events at or below its watermark, merged in
	// global sequence order; the remainder becomes the new held batch.
	var wm uint64
	if n := len(c.held); n > 0 {
		wm = c.held[n-1].Seq
	}
	cut := sort.Search(len(events), func(i int) bool { return events[i].Seq > wm })
	c.merge = mergeBySeq(c.merge[:0], c.held, events[:cut])
	c.pass(c.merge)
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

// pass consumes one sequence-ordered run of events and settles the faults
// it leaves unresolved: a fault's retry or completion is the other half of
// the same paired ring write, so the two always reach the same pass — a
// watermark is the sequence of an event from an earlier sweep and cannot
// fall between adjacent sequences, and a ring that lost events lost the
// older half first. Caller holds mu.
func (c *Checker) pass(events []flightrec.Event) {
	for i := range events {
		c.consume(&events[i])
	}
	for id := range c.pendingFault {
		c.report(Violation{Invariant: FaultResolution, Task: id, Worker: flightrec.ExternalWorker,
			Detail: fmt.Sprintf("task %d faulted with no retry or completion recorded beside it (worker died mid-recovery?)", id)})
	}
	clear(c.pendingFault)
}

// Flush judges the held batch as if the stream had ended: no next sweep is
// coming, so its predecessors either arrived or never will. Call it after
// the final Feed of a drained recorder (Online.Stop does).
func (c *Checker) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pass(c.held)
	c.held = c.held[:0]
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
		c.checkGen(ti, e)
		switch ti.state {
		case stRunning:
			// The task was dispatched before this ready. That dispatch was
			// reported when it was consumed, and one cause gets one report;
			// the task stays running so its complete is judged as usual.
			return
		case stReady:
			c.report(Violation{Invariant: DispatchNotReady, Task: e.Task, Worker: e.Worker, Seq: e.Seq,
				Detail: fmt.Sprintf("task %d marked ready twice", e.Task)})
		}
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
		switch {
		case ti.state == stRunning:
			c.report(Violation{Invariant: DispatchNotReady, Task: e.Task, Worker: e.Worker, Seq: e.Seq,
				Detail: fmt.Sprintf("task %d dispatched while running (double dispatch through a stale entry?)", e.Task)})
		case ti.state == stSubmitted && !c.lax:
			// The reorder stage put every ready in front of its dispatch, so
			// the ready does not exist — unless a gap swallowed it.
			c.report(Violation{Invariant: DispatchNotReady, Task: e.Task, Worker: e.Worker, Seq: e.Seq,
				Detail: fmt.Sprintf("task %d dispatched before any ready event", e.Task)})
		}
		c.checkGen(ti, e)
		ti.state = stRunning
	case flightrec.KindComplete:
		// A completion resolves any pending fault: a terminal failure's
		// lifecycle ends in a complete like any other task's.
		delete(c.pendingFault, e.Task)
		ti := c.tasks[e.Task]
		if ti == nil {
			return // pre-window task; nothing to verify
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
		c.pendingFault[e.Task] = struct{}{}
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
	}
}

// adopt starts tracking a task first seen through e.
func (c *Checker) adopt(e *flightrec.Event, state uint8) {
	if len(c.tasks) >= c.opts.MaxTracked {
		// Bound the table: drop everything and restart conservatively.
		c.tasks = make(map[uint64]*taskInfo)
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

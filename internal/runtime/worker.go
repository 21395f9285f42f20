package runtime

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/alarm"
	"repro/internal/flightrec"
)

// workerState is one pool goroutine's private state: its identity, its
// block of the signals layer, the placement wrappers it hands to bodies,
// and the reusable completion scratch. Nothing in it is shared.
type workerState struct {
	r   *Runtime
	id  int
	sig *workerSig

	// Placement wrappers are allocated per distinct submission context and
	// immutable afterwards, so task bodies see their placement through
	// their context (TaskPlacement) at zero per-task allocation in the
	// steady state, and any context a body retains (or derives and hands
	// to a child task) stays valid after the body returns. Submissions
	// made with one take the worker-local locality path (submitHint).
	//
	// bgWrap is the permanent wrapper for context.Background submissions
	// (most tasks); curCtx/curWrap cache the wrapper of the last other
	// submission context. The cache pins at most that one context per
	// worker, and is dropped as soon as a Background-context body runs;
	// curCtx only ever holds contexts of comparable dynamic type, so the
	// identity check in bodyCtx can never hit Go's uncomparable-type panic
	// (comparing against a context of a *different* type is always safe).
	where   Placement
	bgWrap  *placementCtx
	curCtx  context.Context
	curWrap *placementCtx

	// succs and ready are the completion scratch: buffers for the captured
	// successors and the newly-ready subset. Living on the worker — not the
	// task, not the heap per call — keeps the completion path
	// allocation-free once they have grown to the workload's fan width.
	succs []*task
	ready []*task
	// Flight-recorder bookkeeping for the dispatch-event elision on the
	// chain hand-off (see accountDispatch): the task last pushed through
	// pushOwned and its ID at push time. The ID disambiguates: task IDs are
	// never reused, so pointer+ID matching at the next pop proves the task
	// is still the very life this worker readied — a stolen-and-recycled
	// record fails the ID check and records its dispatch normally.
	lastOwned   *task
	lastOwnedID uint64
	// selfDispatch carries the elision fact from this worker's pop to its
	// complete(), which stamps it into the complete event.
	selfDispatch bool
	// parkFor is 0 outside a body, negative while a body runs on this
	// goroutine, and the wait the body asked for through CompleteAfter once
	// it has.
	parkFor time.Duration
}

func newWorkerState(r *Runtime, id int) *workerState {
	w := &workerState{r: r, id: id, sig: &r.sig.workers[id]}
	w.where = Placement{
		Worker:    id,
		Class:     r.classOf[id],
		ClassName: r.classes[r.classOf[id]].Name,
		Speed:     r.classes[r.classOf[id]].Speed,
	}
	w.bgWrap = &placementCtx{Context: context.Background(), w: w, where: w.where}
	return w
}

// taskEnd is a task's terminal outcome, handed from the attempt that
// produced it to finish.
type taskEnd struct {
	// err is what OnDone hears: the body's error, or why it was skipped.
	err error
	// poison is the root failure complete propagates to the successors:
	// non-nil only for terminal panics and the skips they caused.
	poison error
	// faultPack, when non-zero, is the terminal fault complete must record
	// paired with the completion event (fault classes start at 1, so zero
	// always means "no fault").
	faultPack uint64
}

// worker is the body of one pool goroutine: pop, account the dispatch, run
// one attempt, and — unless the attempt was re-armed for retry — finish.
func (r *Runtime) worker(id int) {
	defer r.wg.Done()
	w := newWorkerState(r, id)
	for {
		t, stole := r.sched.pop(id)
		if t == nil {
			if atomic.LoadInt32(&r.shutdown) != 0 {
				return
			}
			continue
		}
		w.accountDispatch(t, stole)
		t.mu.Lock()
		poison := t.skipCause
		t.mu.Unlock()
		// A re-armed task stays outstanding and re-enters the scheduler
		// after its backoff: OnDone and complete wait for the terminal
		// attempt.
		if end, terminal := w.runAttempt(t, poison); terminal {
			w.finish(t, end)
		}
	}
}

// accountDispatch bumps the worker's signal block for one popped task and
// records its steal and dispatch events.
func (w *workerState) accountDispatch(t *task, stole bool) {
	r, id := w.r, w.id
	if stole {
		atomic.AddUint64(&w.sig.steals, 1)
	}
	if r.rec == nil {
		return
	}
	if stole {
		r.rec.RecordWorker(id, flightrec.KindSteal, uint64(t.id), atomic.LoadUint64(&t.claim), 0)
	}
	// CATS records its own dispatch events inside pop (with the
	// class-gating evidence only the scheduler has); for the other
	// schedulers the worker records them here, strictly after the pop's
	// synchronises-with edge to the ready-side push.
	//
	// Exception: the chain hand-off. When this pop returns the very task
	// this worker just readied and pushed through pushOwned (pointer AND
	// id match — ids are never reused, so a stolen, completed, recycled
	// record cannot alias), the dispatch event is elided: one thread marked
	// it ready and claimed it with nothing in between, so
	// dispatched-was-ready holds by construction. The complete event
	// carries CompleteSelfDispatch so the verifier knows the gap is
	// deliberate.
	w.selfDispatch = !stole && t == w.lastOwned && uint64(t.id) == w.lastOwnedID
	w.lastOwned = nil
	if r.schedSelfRecords || w.selfDispatch {
		return
	}
	r.rec.RecordWorker(id, flightrec.KindDispatch, uint64(t.id), atomic.LoadUint64(&t.claim),
		flightrec.PackDispatch(stole, false, 0, 0))
}

// runAttempt runs one attempt of a dispatched task. terminal is false when
// the attempt failed and was re-armed for retry. The fault-free path reads
// straight down; a task carrying fault state — poisoned by a predecessor,
// on a retried attempt, or deadline-bounded — takes runFaultyAttempt.
func (w *workerState) runAttempt(t *task, poison error) (end taskEnd, terminal bool) {
	if poison != nil || t.attempt > 0 || t.deadline > 0 {
		return w.runFaultyAttempt(t, poison)
	}
	if err := t.ctx.Err(); err != nil {
		return w.skipCancelled(err), true
	}
	return w.exec(t, w.bodyCtx(t))
}

// runFaultyAttempt is runAttempt for a task with fault state.
func (w *workerState) runFaultyAttempt(t *task, poison error) (taskEnd, bool) {
	if poison != nil {
		// Poisoned: a predecessor terminally panicked, so this task's
		// inputs were never produced. Skip the body, fail the task with a
		// SkipError carrying the root cause, keep poisoning downstream.
		atomic.AddUint64(&w.sig.skipped, 1)
		w.r.sig.quarantined.Add(1)
		err := &SkipError{TaskName: t.name, Cause: poison}
		w.r.setErr(err)
		return taskEnd{err: err, poison: poison}, true
	}
	if err := t.ctx.Err(); err != nil {
		return w.skipCancelled(err), true
	}
	pc := w.bodyCtx(t)
	if t.attempt > 0 && pc != nil {
		// Retried attempts are rare and must surface their attempt count
		// through TaskPlacement: a fresh uncached wrapper keeps the shared
		// cached wrappers (and the fault-free path's zero-allocation
		// guarantee) attempt-free.
		where := w.where
		where.Attempt = int(t.attempt)
		pc = &placementCtx{Context: t.ctx, w: w, where: where}
	}
	if t.deadline > 0 {
		return w.settle(t, w.r.runWithDeadline(t, pc))
	}
	return w.exec(t, pc)
}

// exec runs a body on the worker and settles it — unless the body asked
// CompleteAfter for a wait and returned nil. Then the worker is done with
// the task: the wait goes to a waiter, which settles and completes it, and
// terminal is false as for a re-armed retry. An elided dispatch event is
// recorded now, so the task is not ready to the verifier while it waits.
func (w *workerState) exec(t *task, pc context.Context) (taskEnd, bool) {
	w.parkFor = -1
	err := execBody(t.name, t.run, t.arg, pc)
	d := w.parkFor
	w.parkFor = 0
	if d < 0 || err != nil {
		return w.settle(t, err)
	}
	w.r.sched.taskDone(w.id)
	if w.selfDispatch {
		w.r.rec.RecordWorker(w.id, flightrec.KindDispatch, uint64(t.id), atomic.LoadUint64(&t.claim), 0)
	}
	w.r.park(parked{t: t, d: d, sig: w.sig})
	return taskEnd{}, false
}

// skipCancelled accounts a task whose context was cancelled before it
// started: the body is skipped and the cancellation recorded as why.
func (w *workerState) skipCancelled(err error) taskEnd {
	atomic.AddUint64(&w.sig.skipped, 1)
	w.r.setErr(err)
	return taskEnd{err: err}
}

// bodyCtx returns the placement wrapper a context-aware body receives (nil
// for a plain-function body, which takes no context).
func (w *workerState) bodyCtx(t *task) context.Context {
	switch _, plain := t.arg.(plainBody); {
	case plain:
		return nil
	case t.ctx == context.Background():
		// Release the cached request-scoped context: a worker must not pin
		// a dead request's values past the next Background-context dispatch.
		w.curCtx, w.curWrap = nil, nil
		return w.bgWrap
	case w.curWrap != nil && t.ctx == w.curCtx:
		return w.curWrap // same submission scope as the last task
	}
	pc := &placementCtx{Context: t.ctx, w: w, where: w.where}
	if reflect.TypeOf(t.ctx).Comparable() {
		w.curCtx, w.curWrap = t.ctx, pc
	} else {
		// Never cache a context of uncomparable dynamic type: a later
		// identity check against another value of the same type would
		// panic.
		w.curCtx, w.curWrap = nil, nil
	}
	return pc
}

// settle classifies a finished attempt. A clean run is counted executed;
// a failed one is counted by kind, offered to the retry policy, and — if
// terminal — labelled, surfaced through Err, and packed for the recorder.
func (w *workerState) settle(t *task, bodyErr error) (taskEnd, bool) {
	r := w.r
	if bodyErr == nil {
		atomic.AddUint64(&w.sig.executed, 1)
		return taskEnd{}, true
	}
	end := taskEnd{err: bodyErr}
	reported, fault := bodyErr, flightrec.FaultError
	switch e := bodyErr.(type) {
	case *PanicError:
		r.sig.panics.Add(1)
		fault = flightrec.FaultPanic
		// If terminal, quarantine the task and poison its successors — a
		// panicked producer's outputs don't exist, so running consumers
		// against them compounds the damage.
		end.poison = e
	case *DeadlineError:
		r.sig.deadlineMiss.Add(1)
		fault = flightrec.FaultDeadline
	default:
		// Panic and deadline errors are task-labelled by construction.
		reported = fmt.Errorf("task %s: %w", t.name, bodyErr)
	}
	if r.maybeRetry(t, w.id, fault) {
		return taskEnd{}, false
	}
	atomic.AddUint64(&w.sig.executed, 1)
	r.setErr(reported)
	if end.poison != nil {
		r.sig.quarantined.Add(1)
	}
	// The fault event itself is recorded by complete, in one paired ring
	// write with the completion: the verifier judges a fault when the
	// consume pass holding it ends, and any daylight between the two
	// records (the OnDone hook would otherwise run in it) reads as a lost
	// recovery.
	end.faultPack = flightrec.PackFault(fault, int(t.attempt))
	return end, true
}

// finish ends a task: the completion hook, the scheduler's end-of-dispatch
// notice, then complete.
func (w *workerState) finish(t *task, end taskEnd) {
	// The per-task completion hook fires here — after the body (or the
	// skip decision) and before complete() can recycle the record — so a
	// service layer can account for every admitted task exactly once,
	// executed and skipped alike. It runs under panic isolation: a
	// panicking hook is the submitting layer's bug, but it must not take
	// the worker (and every tenant on the pool) down with it.
	if t.onDone != nil {
		w.r.callOnDone(t.onDone, end.err, t.name)
	}
	// A class-aware scheduler tracks which workers are running critical
	// work; it is told a dispatch ended before complete releases the
	// successors, so their placement decisions see fresh state.
	w.r.sched.taskDone(w.id)
	w.complete(t, end.poison, end.faultPack)
}

// execBody invokes a task body under panic isolation: a panicking body is
// recovered into a typed *PanicError carrying the panic value and the
// goroutine stack, and the task fails like any error-returning body instead
// of unwinding the worker. The body is passed as plain values — never the
// task record — so the deadline path can keep running an abandoned body
// after the record has been recycled.
func execBody(name string, run func(context.Context, any) error, arg any, pc context.Context) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{TaskName: name, Value: v, Stack: debug.Stack()}
		}
	}()
	return run(pc, arg)
}

// runWithDeadline runs the body under its per-task deadline without ever
// blocking the worker: the body runs on its own goroutine against a
// deadline-bounded context, and when the bound passes first the task fails
// with a *DeadlineError immediately. The overrunning body is abandoned —
// its goroutine holds only the body, its argument and the context (never
// the task record, which complete may recycle at any moment after this
// returns) and is collected whenever the body honours the cancellation or
// returns.
func (r *Runtime) runWithDeadline(t *task, pc context.Context) error {
	base := pc
	if base == nil {
		base = t.ctx
	}
	dctx, cancel := context.WithTimeout(base, t.deadline)
	// The alarm, armed now and released on return, wakes an idle process
	// for the context's timer. It is the attempt's, so it goes back when
	// the attempt settles, not when an abandoned body returns.
	defer alarm.Arm(t.deadline).Release()
	done := make(chan error, 1)
	name, run, arg := t.name, t.run, t.arg
	go func() {
		defer cancel()
		done <- execBody(name, run, arg, dctx)
	}()
	// A cooperative body that observes the bound returns ctx.Err() through
	// done, racing the watchdog arm; normalise both paths to the same
	// verdict so classification never depends on which select arm wins.
	verdict := func(err error) error {
		if err != nil && errors.Is(err, context.DeadlineExceeded) && base.Err() == nil {
			return &DeadlineError{TaskName: name, Limit: t.deadline}
		}
		return err
	}
	select {
	case err := <-done:
		return verdict(err)
	case <-dctx.Done():
		select {
		case err := <-done:
			// The body beat the bound observation: take its verdict.
			return verdict(err)
		default:
		}
		if err := base.Err(); err != nil {
			// The submission context died, not the deadline: classify as a
			// plain cancellation, like the pre-start skip path would.
			return err
		}
		return &DeadlineError{TaskName: name, Limit: t.deadline}
	}
}

// maybeRetry decides whether a failed attempt (of flight-recorder fault
// class fault) re-enters the scheduler under the task's RetryPolicy. On
// re-arm it records the paired
// fault+retry events, bumps the attempt count, and schedules the ready
// transition after the capped exponential backoff; the task stays
// outstanding throughout (complete never ran), so Wait and Shutdown drain
// retries like any in-flight work. A cancelled submission context makes
// the failure terminal: retrying work nobody is waiting for wastes the
// pool.
func (r *Runtime) maybeRetry(t *task, workerID, fault int) bool {
	if t.retry.Max <= 0 || int(t.attempt) >= t.retry.Max || t.ctx.Err() != nil {
		return false
	}
	t.attempt++
	n := int(t.attempt)
	r.sig.retries.Add(1)
	if r.rec != nil {
		claim := atomic.LoadUint64(&t.claim)
		r.rec.RecordWorker2(workerID,
			flightrec.KindFault, uint64(t.id), claim, flightrec.PackFault(fault, n-1),
			flightrec.KindRetry, uint64(t.id), claim, flightrec.PackRetry(n, t.retry.Max))
	}
	if d := t.retry.delay(n); d > 0 {
		// A waiter re-arms it, at once if the context ends mid-backoff, and
		// the attempt skips as cancelled: nothing waits out a dead job's
		// backoff, and no worker waits out a live one.
		r.park(parked{t: t, d: d})
	} else {
		r.rearm(t)
	}
	return true
}

// rearm returns a failed attempt's task to the scheduler. The record is
// still owned by the retry path — complete never ran, so the generation is
// unchanged and no reference was invalidated; a retried task can therefore
// never alias a recycled record.
func (r *Runtime) rearm(t *task) {
	r.markReady(t, -1, nil)
	r.sched.push(t, -1)
}

// callOnDone fires the per-task completion hook under panic isolation: a
// panicking hook must not take down the worker, so it is recovered,
// counted, and surfaced through Err like a body panic.
func (r *Runtime) callOnDone(hook func(error), taskErr error, name string) {
	defer func() {
		if v := recover(); v != nil {
			r.sig.panics.Add(1)
			r.setErr(&PanicError{TaskName: name, Value: v, Stack: debug.Stack()})
		}
	}()
	hook(taskErr)
}

// complete marks a task done, releases its successors, and drops the
// references the task no longer needs — the body and its argument (often
// the heaviest retained objects) and the submission context. Without trace
// retention it goes further and retires the whole record into the
// runtime's freelist: the generation bump in the claim word (performed
// inside this critical section) atomically invalidates every reference
// that may still point here — the tracker's per-key writer and reader
// references (keyState) — so the record can be reused by the next
// submission without those holders ever observing the new task's state.
//
// Newly-ready successors are released with the completing worker's
// identity: the scheduler's locality path pushes them onto this worker's
// own deque (LIFO, so the consumer reuses the producer's warm cache),
// spilling to the shared injector past the locality window.
//
// poison, when non-nil, is the root panic failure this task propagates:
// every successor is marked skipCause before its release, so it (and,
// transitively, its own successors) skips instead of running against
// inputs that were never produced.
//
// faultPack, when non-zero, is the terminal fault (PackFault word) this
// completion resolves; it is recorded in the same paired ring write as the
// completion event so the two can never be separated by a collector sweep.
func (w *workerState) complete(t *task, poison error, faultPack uint64) {
	r := w.r
	recycle := !r.opts.retainTrace
	// The complete event carries the pre-retirement claim word but is
	// recorded after this critical section, paired with the first released
	// successor's ready in one two-slot ring write (or standalone when
	// nothing becomes ready). Deferring it past the generation bump is safe
	// because task IDs are never reused: the record's next life gets a new
	// ID, so no consumer can mistake its events for this task's. Without a
	// recorder there is nothing to record: the event starts out "recorded".
	ce := completeEvent{id: uint64(t.id), claim: atomic.LoadUint64(&t.claim), recorded: r.rec == nil}
	// If this task reached us through the elided chain hand-off, its
	// complete event must say so (see accountDispatch).
	if w.selfDispatch {
		ce.flags = flightrec.CompleteSelfDispatch
	}
	t.mu.Lock()
	t.done = true
	succs := t.takeSuccs(w.succs[:0])
	t.run, t.arg = nil, nil
	t.ctx = nil
	t.onDone = nil
	t.skipCause = nil
	if recycle {
		t.name = ""
		t.clearDeps()
		// Retire the record: from here on every generation-tagged
		// reference to it is dead. This store must stay inside the t.mu
		// critical section — linkPreds validates generations under the
		// same mutex, so a reference holder either runs before this bump
		// (and sees done) or after it (and sees the mismatch without
		// touching any other field). The word is gen<<1, so +2 is gen+1.
		atomic.AddUint64(&t.claim, 2)
	}
	t.mu.Unlock()
	if !ce.recorded && faultPack != 0 {
		// A terminal fault rides one paired ring write with its completion
		// so no goroutine pause can open a gap between them: the verifier
		// flags a fault its resolution does not follow within the same
		// consume pass, so the resolving event must be adjacent by
		// construction (exactly as maybeRetry pairs fault with retry).
		ce.recorded = true
		r.rec.RecordWorker2(w.id,
			flightrec.KindFault, ce.id, ce.claim, faultPack,
			flightrec.KindComplete, ce.id, ce.claim, ce.flags)
	}
	ready := w.ready[:0]
	for _, s := range succs {
		if poison != nil {
			// Poison before the decrement: the final releaser (us or a
			// concurrent predecessor, whose decrement is ordered after ours)
			// publishes the store, and the dispatching worker reads it under
			// s.mu after the release — so a poisoned successor can never
			// observe a nil cause. First poison wins; one root is enough.
			s.mu.Lock()
			if s.skipCause == nil {
				s.skipCause = poison
			}
			s.mu.Unlock()
		}
		if atomic.AddInt32(&s.npreds, -1) == 0 {
			r.markReady(s, w.id, &ce)
			ready = append(ready, s)
		}
	}
	if !ce.recorded {
		r.rec.RecordWorker(w.id, flightrec.KindComplete, ce.id, ce.claim, ce.flags)
	}
	// Release successors in one scheduler call: a task that completes a
	// wide fan (the steal-heavy shape) hands the whole fan over with a
	// single wakeup instead of one signal per child.
	switch len(ready) {
	case 0:
	case 1:
		// The chain hand-off: keep the lone successor to this worker
		// without a wakeup when the scheduler's locality path allows it —
		// this goroutine pops it next, and signalling a parked thief here
		// would only invite it to steal the link off the warm cache.
		// Its ID is read before the push: once queued it can be stolen,
		// completed and recycled.
		s, id := ready[0], uint64(ready[0].id)
		if w.id < 0 || !r.sched.pushOwned(s, w.id) {
			r.sched.push(s, w.id)
		} else if r.rec != nil && !r.schedSelfRecords {
			// Arm the dispatch-event elision: if our next pop returns this
			// very task life, its dispatch record is redundant.
			w.lastOwned = s
			w.lastOwnedID = id
		}
	default:
		r.sched.pushBatch(ready, w.id)
	}
	// Scrub the scratch so finished tasks are not pinned until the next
	// completion happens to overwrite the slots.
	clear(succs)
	w.succs = succs[:0]
	clear(ready)
	w.ready = ready[:0]
	// Retire the record BEFORE releasing the backpressure slot: the slot
	// send unblocks a waiting submitter, and if the record is not in the
	// freelist by the time that submitter reaches newTask, it allocates a
	// fresh one — a leak of exactly one record per race, which is where the
	// old steady-state benchmarks' residual bytes/op came from.
	if recycle && !r.free.put(t) {
		r.pool.Put(t)
	}
	r.releaseSlots(1)
	if atomic.AddInt64(&r.outstanding, -1) == 0 {
		r.waitMu.Lock()
		r.waitCond.Broadcast()
		r.waitMu.Unlock()
	}
}

// CompleteAfter asks the runtime to complete the calling body's task d
// after the body returns, instead of the body waiting d on its worker — the
// shape of an external event the task waits on. A body calls it on the
// context it was given, from its own goroutine, and then returns nil: the
// worker goes straight back to its queue while a waiter goroutine waits out
// d (or until the task's context ends) and then settles the task exactly as
// an in-place wait would have — executed, or failed with the context's
// error — runs its OnDone hook and releases its successors. Until then the
// task is outstanding: Backlog, Wait and Shutdown count it.
//
// It returns false, and the body must wait in place, when the pool cannot
// take the wait: d ≤ 0, a context that is not a pool body's own (a derived
// one, or a deadline-bounded attempt's: its deadline bounds the wait only
// where the attempt settles), or a call after the body returned. A body
// that asked and then returns an error fails with that error at once; the
// wait is dropped.
func CompleteAfter(ctx context.Context, d time.Duration) bool {
	pc, ok := ctx.(*placementCtx)
	if !ok || d <= 0 || pc.w.parkFor == 0 {
		return false
	}
	pc.w.parkFor = d
	return true
}

// maxIdleWaiters caps the waiter goroutines kept for the next wait. Busy
// ones are bounded by Backlog: one per parked task or pending backoff.
const maxIdleWaiters = 32

// parked is one wait handed to a waiter: d on t's context, then t is
// re-armed for its next attempt when sig is nil (a retry backoff), or
// settled and completed on the counters sig of the worker that ran its
// body (a CompleteAfter wait).
type parked struct {
	t   *task
	d   time.Duration
	sig *workerSig
}

// park hands p to an idle waiter, or to a new one when none is idle.
func (r *Runtime) park(p parked) {
	r.sig.parkedTasks.Add(1)
	select {
	case r.waits <- p:
	default:
		r.wg.Add(1)
		go r.waiter(p)
	}
}

// waiter waits out parked tasks one at a time, idling between them unless
// maxIdleWaiters already idle; Shutdown ends the idle ones by closing
// r.waits. Its workerState has id −1: it records on the external ring and
// its succs/ready completion scratch is its own.
func (r *Runtime) waiter(p parked) {
	defer r.wg.Done()
	w := &workerState{r: r, id: -1}
	for ok := true; ok; {
		err := alarm.Sleep(p.t.ctx, p.d, nil)
		r.sig.parkedTasks.Add(-1)
		if p.sig == nil {
			r.rearm(p.t)
		} else {
			w.sig = p.sig
			if end, terminal := w.settle(p.t, err); terminal {
				w.finish(p.t, end)
			}
		}
		if r.idleWaiters.Add(1) > maxIdleWaiters {
			ok = false
		} else {
			p, ok = <-r.waits
		}
		r.idleWaiters.Add(-1)
	}
}

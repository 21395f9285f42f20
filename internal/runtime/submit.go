package runtime

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/flightrec"
)

// TaskSpec describes one task of a batch submission. Exactly one of Run,
// Body and Fn should be set (Run wins, then Body); a task with none is a
// no-op that still participates in dependence ordering.
type TaskSpec struct {
	// Name labels the task in errors, the trace and Graph.
	Name string
	// Cost is the abstract work estimate used for criticality analysis.
	Cost float64
	// Priority is the programmer priority hint (the OmpSs priority
	// clause); higher runs earlier under CATS.
	Priority int
	// Run is the task body as a function plus an argument, the paper's
	// outlined function and its argument block: every attempt — the first,
	// a retry, a deadline-bounded one, one that parks through CompleteAfter
	// — calls Run(ctx, Arg), with ctx as a Body's. One package-level Run
	// over a slab of arguments submits a graph without a closure per task.
	Run func(ctx context.Context, arg any) error
	// Arg is Run's argument, dropped when the task completes. A pointer
	// (into a caller's slab, say) or an integer below 256 converts to any
	// without allocating.
	Arg any
	// Body is the context-aware, error-returning task body.
	Body Body
	// Fn is the plain-function convenience form of Body; it is called
	// without a context.
	Fn func()
	// Deps are the task's dependence annotations.
	Deps []Dep
	// OnDone, if set, is called exactly once on the executing worker when
	// the task finishes: with the body's error after it returns, or with
	// the context's error when a cancelled context made the runtime skip
	// the body. It runs before the task record can be recycled and must
	// not block — it is on the worker's dispatch path. Service layers use
	// it for per-graph completion accounting over a shared pool, where the
	// global Wait is the wrong granularity.
	OnDone func(error)
	// Retry re-enqueues failed (error-returning, panicking, or
	// deadline-overrunning) attempts through the scheduler with capped
	// exponential backoff. The zero value disables retry. The current
	// attempt count is visible to the body via TaskPlacement.
	Retry RetryPolicy
	// Deadline, when positive, bounds each body attempt: the body's
	// context is cancelled at the bound, and an attempt that overruns it
	// fails with a *DeadlineError without blocking its worker (the
	// overrunning body is abandoned, so it should honour its context).
	Deadline time.Duration
}

// Submit adds a task with the given dependences and returns its ID. cost is
// an abstract work estimate used for criticality analysis (0 is fine); fn is
// the task body. Submission order defines the program order used to resolve
// WAR/WAW hazards, as in OmpSs. Submit fails with ErrShutdown after
// Shutdown.
func (r *Runtime) Submit(name string, cost float64, fn func(), deps ...Dep) (TaskID, error) {
	return r.submitOne(context.Background(), &[1]TaskSpec{{Name: name, Cost: cost, Fn: fn}}, deps)
}

// SubmitPriority is Submit with an explicit programmer priority hint (the
// OmpSs priority clause); higher runs earlier under CATS.
func (r *Runtime) SubmitPriority(name string, cost float64, priority int, fn func(), deps ...Dep) (TaskID, error) {
	return r.submitOne(context.Background(), &[1]TaskSpec{{Name: name, Cost: cost, Priority: priority, Fn: fn}}, deps)
}

// SubmitCtx is the context-aware, error-returning submission path. The
// context is remembered with the task: if it is cancelled before the task
// starts, the body is skipped and the cancellation error captured; the body
// itself receives ctx so in-flight work can observe cancellation. SubmitCtx
// also blocks for a backpressure slot when WithQueueBound is set, aborting
// with ctx.Err() if the context is cancelled while waiting.
func (r *Runtime) SubmitCtx(ctx context.Context, name string, cost float64, fn Body, deps ...Dep) (TaskID, error) {
	return r.submitOne(ctx, &[1]TaskSpec{{Name: name, Cost: cost, Body: fn}}, deps)
}

// SubmitPriorityCtx is SubmitCtx with a priority hint.
func (r *Runtime) SubmitPriorityCtx(ctx context.Context, name string, cost float64, priority int, fn Body, deps ...Dep) (TaskID, error) {
	return r.submitOne(ctx, &[1]TaskSpec{{Name: name, Cost: cost, Priority: priority, Body: fn}}, deps)
}

// SubmitBatch submits a slice of tasks in one registration pass and
// returns their IDs in spec order. See SubmitBatchCtx.
func (r *Runtime) SubmitBatch(specs []TaskSpec) ([]TaskID, error) {
	return r.submitSpecs(context.Background(), specs, nil, nil)
}

// SubmitBatchCtx is the batched submission path: the whole slice is
// registered under one acquisition of the dependence-tracker shards it
// touches, and the tasks that come out ready are pushed to the scheduler
// with a single wakeup — amortising lock traffic that per-task Submit
// pays N times. Specs are registered in slice order, so a later spec may
// depend on an earlier one through shared keys exactly as if the tasks
// had been submitted one by one.
//
// The batch is atomic with respect to Shutdown: either every task is
// accepted (and will execute) or none is and ErrShutdown is returned.
// ctx plays the same role as in SubmitCtx, for every task of the batch.
// Under WithQueueBound the batch blocks until len(specs) slots are free,
// aborting with ctx.Err() if the context is cancelled while waiting; a
// batch larger than the bound can never proceed and is rejected outright.
//
// Nothing of specs, Deps included, is kept after SubmitBatchCtx returns:
// each task record copies its spec's fields and its dependences, so the
// caller may reuse the slice and the arrays its Deps share at once.
func (r *Runtime) SubmitBatchCtx(ctx context.Context, specs []TaskSpec) ([]TaskID, error) {
	return r.submitSpecs(ctx, specs, nil, nil)
}

// submitOne adapts the one-task entry points to submitSpecs without a heap
// allocation: the spec (built in place by the caller) and the returned ID
// live in stack arrays. The variadic deps travel beside the spec, not in
// its Deps field — escape analysis is field-insensitive, so a spec whose
// Body is stored into a task record would drag a deps slice held in the
// same struct to the heap at every call site.
func (r *Runtime) submitOne(ctx context.Context, spec *[1]TaskSpec, deps []Dep) (TaskID, error) {
	var id [1]TaskID
	_, err := r.submitSpecs(ctx, spec[:], deps, id[:])
	return id[0], err
}

// unwrapCtx strips a body's placement wrapper off a submission context,
// returning the underlying submission context the wrapper delegates to —
// the child task's context is the parent's own submission context, which
// shares the same cancellation. Wrappers are immutable, so this is about
// hygiene, not safety: without it a self-submitting chain would stack one
// wrapper per generation and pay an ever-deeper delegation walk. Only a
// top-level wrapper is stripped; a context the body derived from its
// wrapper keeps the wrapper mid-chain, which is valid indefinitely.
func unwrapCtx(ctx context.Context) context.Context {
	if pc, ok := ctx.(*placementCtx); ok {
		return pc.Context
	}
	return ctx
}

// submitSpecs is the one submission path; every exported Submit variant is
// a wrapper of it. It registers specs in slice order under one acquisition
// of the tracker shards they touch and publishes the tasks that come out
// ready with at most one wakeup. loneDeps, when non-nil, stands in for
// specs[0].Deps (see submitOne); ids, when non-nil, receives the task IDs
// instead of a fresh slice.
func (r *Runtime) submitSpecs(ctx context.Context, specs []TaskSpec, loneDeps []Dep, ids []TaskID) ([]TaskID, error) {
	n := len(specs)
	if n == 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// The locality hint lives on a body's placement wrapper; resolve it
	// and strip the wrapper before it can be retained in task records.
	hint := r.submitHint(ctx)
	ctx = unwrapCtx(ctx)
	if atomic.LoadInt32(&r.closed) != 0 {
		return nil, ErrShutdown
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := r.acquireSlots(ctx, n); err != nil {
		return nil, err
	}

	r.gate.RLock()
	// Authoritative guard: Shutdown sets closed under the gate's write
	// side, so either this submission registers (and increments
	// outstanding) while holding the read side — strictly before
	// Shutdown's drain can observe the pool — or it sees closed here. The
	// lock-free check above is only a fast path.
	if atomic.LoadInt32(&r.closed) != 0 {
		r.gate.RUnlock()
		r.releaseSlots(n)
		return nil, ErrShutdown
	}
	if ids == nil {
		ids = make([]TaskID, n)
	}
	// A lone task travels in t and needs no scratch, which keeps the
	// one-task entry points allocation-free: a stack scratch could not do
	// it, because anything that may reach the scheduler's pushBatch (an
	// interface call) escapes. A batch borrows its scratch from the
	// runtime's pool and returns it scrubbed.
	var scratch *[]*task
	var tasks []*task
	if n > 1 {
		scratch = r.scratch.get(n)
		tasks = (*scratch)[:n]
	}
	var t *task
	var mask uint64
	for i := range specs {
		deps := specs[i].Deps
		if loneDeps != nil {
			deps = loneDeps
		}
		t = r.newTask(ctx, &specs[i], deps)
		// Capture the ID now: the moment a task is published it can
		// execute, complete, and be recycled for an unrelated submission,
		// so no field of it may be read past that point.
		ids[i] = t.id
		mask |= r.shardPlan(t)
		if tasks != nil {
			tasks[i] = t
		}
	}
	// One lock pass over the union of every task's shards; registration
	// stays in spec order underneath it, which is what makes intra-batch
	// dependences work.
	r.lockShards(mask)
	for i := 0; i < n; i++ {
		if tasks != nil {
			t = tasks[i]
		}
		r.linkPreds(t, r.trackDeps(t))
		// Flight recorder: a task that stays pending gets a submit event; an
		// immediately-ready one gets only its ready event (submission
		// implied), keeping the hot path at one event per submit. The submit
		// event must be recorded BEFORE the final npreds decrement: our own
		// reference keeps the count positive here, so no completing
		// predecessor can record the task's ready event with an earlier
		// sequence number. It goes to the recorder lane of one of the shards
		// held here — the lowest set in mask, non-zero because a pending task
		// registered real predecessors — so the shard mutex doubles as the
		// lane's serialisation and the record costs no locking of its own.
		if r.rec != nil && atomic.LoadInt32(&t.npreds) > 1 {
			r.rec.RecordLane(bits.TrailingZeros64(mask), flightrec.KindSubmit,
				uint64(t.id), atomic.LoadUint64(&t.claim), 0)
		}
	}
	r.unlockShards(mask)
	r.gate.RUnlock()

	// The final decrement releases the submission's own reference; a task
	// it brings to zero is ready. The ready subset is compacted in place
	// over the scratch.
	ready := tasks[:0]
	for i := 0; i < n; i++ {
		if tasks != nil {
			t = tasks[i]
		}
		if atomic.AddInt32(&t.npreds, -1) != 0 {
			continue
		}
		r.markReady(t, -1, nil)
		if tasks == nil {
			// A hinted (body-context) submission lands in the target
			// worker's submit buffer — safe from any goroutine, unlike the
			// deque.
			if hint < 0 || !r.sched.submitLocal(t, hint) {
				r.sched.push(t, -1)
			}
			return ids, nil
		}
		ready = append(ready, t)
	}
	if len(ready) > 0 {
		// A hinted batch fills the target worker's submit buffer up to the
		// locality window; the rest goes central.
		taken := 0
		if hint >= 0 {
			taken = r.sched.submitLocalBatch(ready, hint)
		}
		if rest := ready[taken:]; len(rest) > 0 {
			r.sched.pushBatch(rest, -1)
		}
	}
	if scratch != nil {
		// The schedulers do not retain the slice (see pushBatch).
		r.scratch.put(scratch, n)
	}
	return ids, nil
}

// acquireSlots takes n backpressure slots (none on an unbounded pool),
// giving up with ctx.Err() — and nothing held — if ctx is cancelled while
// waiting. A multi-slot acquisition first passes the slotTurn turnstile,
// which makes it effectively atomic: without it, two concurrent batches
// could each hold part of the bound while waiting for slots only the
// other's completion would free — hold-and-wait with nothing registered, a
// deadlock. Slots held by already-registered tasks drain independently
// (workers never touch the turnstile), so the holder always makes
// progress. The turnstile is a channel, not a mutex, so a batch queued
// behind a blocked batch still honours its context. A single slot is taken
// without it: the submitter holds nothing while waiting.
func (r *Runtime) acquireSlots(ctx context.Context, n int) error {
	if r.slots == nil {
		return nil
	}
	if n > cap(r.slots) {
		return fmt.Errorf("runtime: batch of %d exceeds queue bound %d", n, cap(r.slots))
	}
	if n > 1 {
		select {
		case r.slotTurn <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	var err error
	for i := 0; i < n && err == nil; i++ {
		// A free slot is taken with a plain non-blocking send; only a full
		// pool pays for the two-way select (selectgo) against ctx.
		select {
		case r.slots <- struct{}{}:
			continue
		default:
		}
		select {
		case r.slots <- struct{}{}:
		case <-ctx.Done():
			r.releaseSlots(i)
			err = ctx.Err()
		}
	}
	if n > 1 {
		<-r.slotTurn
	}
	return err
}

// releaseSlots returns n backpressure slots.
func (r *Runtime) releaseSlots(n int) {
	if r.slots == nil {
		return
	}
	for i := 0; i < n; i++ {
		<-r.slots
	}
}

// newTask readies a task record for sp — reusing one from the freelist
// when available — and allocates its ID, counting it outstanding. Every
// spec field is installed here, before registration can make the task
// reachable from a completing predecessor. Must be called with the gate's
// read side held so the increment is ordered before any concurrent
// Shutdown drain.
func (r *Runtime) newTask(ctx context.Context, sp *TaskSpec, deps []Dep) *task {
	t := r.free.get()
	if t == nil {
		t = r.pool.Get().(*task)
	}
	t.id = TaskID(atomic.AddInt64(&r.seq, 1) - 1)
	t.name = sp.Name
	t.cost = sp.Cost
	atomic.StoreInt64(&t.priority, int64(sp.Priority))
	t.run, t.arg = runPlain, noBody
	switch {
	case sp.Run != nil:
		t.run, t.arg = sp.Run, sp.Arg
	case sp.Body != nil:
		t.run, t.arg = runBody, sp.Body
	case sp.Fn != nil:
		t.arg = plainBody(sp.Fn)
	}
	t.ctx = ctx
	// Recycled records must not inherit a hook or fault state (complete
	// already dropped the skip cause).
	t.onDone = sp.OnDone
	t.retry = sp.Retry
	t.deadline = sp.Deadline
	t.attempt = 0
	t.done = false
	t.setDeps(deps)
	atomic.AddInt64(&r.outstanding, 1)
	return t
}

// completeEvent is a completion event complete() has not recorded yet: the
// first successor it readies records both in one paired ring write (see
// markReady).
type completeEvent struct {
	id, claim, flags uint64
	recorded         bool
}

// markReady is the one ready transition: every path that makes a task
// dispatchable — submission, successor release, retry re-arm — goes
// through it, and its caller's scheduler push follows it. It is the flight
// recorder's ready event and nothing else; a task is dispatchable only
// once pushed, so the ready event is on its ring before any dispatch of
// the task can be recorded. ring names the recorder ring the event goes
// to: a worker's own (the caller must be that worker's goroutine) or, when
// negative, the shared external one.
//
// ce, when non-nil and not yet recorded, is the caller's completion event:
// it shares one two-slot ring write with this ready event.
func (r *Runtime) markReady(t *task, ring int, ce *completeEvent) {
	if r.rec == nil {
		return
	}
	claim := atomic.LoadUint64(&t.claim)
	if ce != nil && !ce.recorded {
		ce.recorded = true
		r.rec.RecordWorker2(ring, flightrec.KindComplete, ce.id, ce.claim, ce.flags,
			flightrec.KindReady, uint64(t.id), claim, 0)
	} else {
		r.rec.RecordWorker(ring, flightrec.KindReady, uint64(t.id), claim, 0)
	}
}

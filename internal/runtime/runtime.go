package runtime

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flightrec"
	"repro/internal/tdg"
)

// ErrShutdown is returned by Submit variants called after Shutdown.
var ErrShutdown = errors.New("runtime: submit after Shutdown")

// ErrNoTrace is returned by Graph when the runtime was built without
// WithTraceRetention: the task trace needed for the export is not kept
// (by default completed tasks are released, so a long-lived runtime's
// memory stays bounded by the work in flight).
var ErrNoTrace = errors.New("runtime: Graph requires WithTraceRetention (task trace is not retained by default)")

// AccessMode is the dependence annotation of one task argument.
type AccessMode int

const (
	// ModeIn: the task reads the datum (RAW edge from its last writer).
	ModeIn AccessMode = iota
	// ModeOut: the task overwrites the datum (WAR edges from readers, WAW
	// from the last writer).
	ModeOut
	// ModeInOut: read-modify-write (all of the above).
	ModeInOut
)

// String implements fmt.Stringer.
func (m AccessMode) String() string {
	switch m {
	case ModeIn:
		return "in"
	case ModeOut:
		return "out"
	case ModeInOut:
		return "inout"
	default:
		return fmt.Sprintf("AccessMode(%d)", int(m))
	}
}

// Dep pairs a data key with its access mode. Keys may be anything
// comparable: pointers, strings, struct{array, block} pairs…
type Dep struct {
	// Key names the datum; equal keys are one datum.
	Key any
	// Mode is how the task accesses it.
	Mode AccessMode
}

// In declares a read dependence on key.
func In(key any) Dep { return Dep{Key: key, Mode: ModeIn} }

// Out declares a write dependence on key.
func Out(key any) Dep { return Dep{Key: key, Mode: ModeOut} }

// InOut declares a read-write dependence on key.
func InOut(key any) Dep { return Dep{Key: key, Mode: ModeInOut} }

// SchedulerKind selects the scheduling policy.
type SchedulerKind int

const (
	// WorkSteal is the default Nanos++-style scheduler.
	WorkSteal SchedulerKind = iota
	// FIFO is a single central queue.
	FIFO
	// CATS is the criticality-aware task scheduler.
	CATS
)

// String implements fmt.Stringer.
func (k SchedulerKind) String() string {
	switch k {
	case WorkSteal:
		return "worksteal"
	case FIFO:
		return "fifo"
	case CATS:
		return "cats"
	default:
		return fmt.Sprintf("SchedulerKind(%d)", int(k))
	}
}

// SchedulerNames lists the valid SchedulerByName inputs in display order.
func SchedulerNames() []string {
	return []string{WorkSteal.String(), FIFO.String(), CATS.String()}
}

// SchedulerByName parses a SchedulerKind from its String form. Matching is
// case-insensitive and tolerates surrounding whitespace; the empty string
// resolves to the WorkSteal default. Unknown names produce an error that
// lists every valid name.
func SchedulerByName(name string) (SchedulerKind, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "worksteal", "work-steal", "":
		return WorkSteal, nil
	case "fifo":
		return FIFO, nil
	case "cats":
		return CATS, nil
	default:
		return 0, fmt.Errorf("runtime: unknown scheduler %q (valid: %s)",
			name, strings.Join(SchedulerNames(), ", "))
	}
}

// TaskID identifies a submitted task.
type TaskID int

// Body is a task body: it receives the context the task was submitted with
// (augmented with the executing worker's placement — see TaskPlacement)
// and may fail. The first non-nil error across all tasks is captured and
// reported by Err and WaitCtx.
//
// The context argument may be retained, derived from, and used from other
// goroutines like any context — the placement wrapper is immutable.
// Submissions made with it (from the body or from goroutines it spawned)
// take the worker-local locality path: they land in the executing
// worker's submit buffer, keeping producer-side task creation near the
// producer's cache. Note that a retained context keeps reporting the
// placement of the body it was handed to.
type Body func(ctx context.Context) error

// A task record holds one body, a run function and its argument. Body and
// Fn are stored as these adapters over that pair, with the caller's
// function as the argument (a func value converts to any without
// allocating), and a task without a body as an Fn that does nothing.
func runBody(ctx context.Context, arg any) error { return arg.(Body)(ctx) }

func runPlain(_ context.Context, arg any) error { arg.(plainBody)(); return nil }

// plainBody is an Fn as a task's argument. Only this package can name the
// type, so it marks exactly the bodies that take no context.
type plainBody func()

// noBody is the Fn of a task submitted without a body.
var noBody = plainBody(func() {})

// inlineArity is the dependence/successor count a task record holds inline.
// Tasks with at most this many deps (and successors) allocate nothing for
// them; larger fans spill to a slice that the record keeps (and reuses)
// across pool recycles.
const inlineArity = 4

// task is one task record. Records are pooled: when the runtime runs
// without WithTraceRetention, complete() retires the record back into the
// runtime's freelist and a later submission reuses it, so the steady-state
// task lifecycle performs no heap allocation. Reuse is made safe by the
// claim word (see below): the references that can outlive the task — the
// tracker's per-key writer and reader references (keyState) — carry the
// generation they were created under and are ignored once the generations
// diverge. A scheduler's queue entry never outlives the task: every
// scheduler holds one entry per ready task, gone at the pop that
// dispatches it.
type task struct {
	id       TaskID // also the submission order, for deterministic tie-breaks
	name     string
	cost     float64
	priority int64 // CATS bottom-level estimate (accessed atomically)
	// claim is the record's reuse generation, kept as gen<<1 — the layout
	// the flight recorder's events and dumps carry (flightrec.ClaimGen).
	// Bit 0 is retired: it was the dispatch-claim bit of the CATS heap's
	// stale-entry protocol and is always zero now. complete() retires the
	// record by bumping the generation (inside its t.mu critical section),
	// which atomically invalidates every outstanding reference.
	claim uint64
	// run and arg are the body: every attempt calls run(ctx, arg).
	run func(context.Context, any) error
	arg any
	ctx context.Context
	// onDone is the batch path's per-task completion hook (TaskSpec.OnDone):
	// called exactly once on the executing worker after the body returns (or
	// after the skip decision on a cancelled context), strictly before the
	// record can be recycled. Only the dispatching worker reads it, so plain
	// access suffices.
	onDone func(error)
	// retry and deadline are the spec's fault-tolerance knobs; attempt is
	// the number of failed attempts already consumed (0 on the first run).
	// Only the dispatching worker and the backoff re-arm touch attempt, and
	// the scheduler hand-off orders them, so plain access suffices.
	retry    RetryPolicy
	deadline time.Duration
	attempt  int32
	// skipCause, when non-nil, poisons the task: a predecessor terminally
	// panicked, so the body is skipped with a SkipError wrapping the root
	// cause (and the poison propagates to this task's own successors).
	// Written by completing predecessors and read at dispatch, both under
	// t.mu.
	skipCause error

	mu sync.Mutex
	// done is set (under mu) by complete: no successor edge may be added
	// any more. Only linkPreds reads it, under mu with the generation
	// validated.
	done bool
	// npreds is the number of incomplete predecessors.
	npreds int32

	// Successors: the common small fan lives in succsInl; wider fans spill
	// to succsOvf (whose capacity the record keeps across recycles).
	// Entries are direct pointers, not generation-tagged references: an
	// edge is added only under the predecessor's mutex with its generation
	// validated and done not yet set, so the predecessor's complete
	// — the only consumer — always captures each entry exactly once while
	// the successor is still pending.
	nsuccs   int32
	succsInl [inlineArity]*task
	succsOvf []*task

	// Declared dependences, same inline-then-spill scheme. With trace
	// retention these double as the dependence log Graph replays.
	ndeps   int32
	depsInl [inlineArity]Dep
	depsOvf []Dep
	// The shard each dependence key hashes to, parallel to the deps:
	// shardPlan fills it and trackDeps reads it back, so a key is hashed
	// once per registration.
	shardInl [inlineArity]uint8
	shardOvf []uint8

	// logShard is the shard whose task log records t (retention only).
	logShard int32
}

// taskRef is a generation-tagged task reference: a *task plus the claim
// word observed when the reference was created. Holders that may outlive
// the task (tracker state, the preds scratch) validate the reference
// before use — gen() mismatch means the record was recycled, i.e. the
// referenced task completed long ago.
type taskRef struct {
	t *task
	// claim is the referent's claim word at reference-creation time.
	claim uint64
}

// ref builds a generation-tagged reference to t. Callers must own t or
// hold a lock that keeps it live (registration does: the task cannot
// complete before its own submission finishes).
func (t *task) ref() taskRef {
	return taskRef{t: t, claim: atomic.LoadUint64(&t.claim)}
}

// dead reports whether the referenced record has been retired since the
// reference was taken. Generations only grow, so true is final; false is
// exact only under the referent's mutex (see linkPreds).
func (ref taskRef) dead() bool {
	return atomic.LoadUint64(&ref.t.claim) != ref.claim
}

// setDeps installs the declared dependences: inline up to inlineArity,
// spilling to (and reusing) the overflow slice past it.
func (t *task) setDeps(deps []Dep) {
	t.ndeps = int32(len(deps))
	if len(deps) <= inlineArity {
		copy(t.depsInl[:], deps)
		return
	}
	t.depsOvf = append(t.depsOvf[:0], deps...)
}

// deps returns the declared dependences as a read-only view.
func (t *task) deps() []Dep {
	if int(t.ndeps) <= inlineArity {
		return t.depsInl[:t.ndeps]
	}
	return t.depsOvf
}

// depShards returns the shard index of each declared dependence, valid
// between shardPlan and trackDeps of one registration.
func (t *task) depShards() []uint8 {
	if int(t.ndeps) <= inlineArity {
		return t.shardInl[:t.ndeps]
	}
	return t.shardOvf
}

// clearDeps drops the dependence annotations (and the interface keys they
// pin), keeping the overflow capacity for reuse.
func (t *task) clearDeps() {
	clear(t.depsInl[:])
	clear(t.depsOvf)
	t.depsOvf = t.depsOvf[:0]
	t.ndeps = 0
}

// addSucc records a successor edge. Caller holds t.mu. The first spill
// past the inline slots allocates a capacity-8 overflow directly: pooled
// records serve as wide-fan roots only occasionally (role assignment
// drifts as records rotate through the freelist), and jumping straight to
// a useful capacity instead of doubling up from one element keeps those
// first-service growth allocations from trickling through the steady
// state.
func (t *task) addSucc(s *task) {
	if int(t.nsuccs) < inlineArity {
		t.succsInl[t.nsuccs] = s
	} else {
		if t.succsOvf == nil {
			t.succsOvf = make([]*task, 0, 8)
		}
		t.succsOvf = append(t.succsOvf, s)
	}
	t.nsuccs++
}

// takeSuccs appends t's successors to buf, clearing them from the record
// (slots nilled so nothing stays pinned, overflow capacity kept). Caller
// holds t.mu.
func (t *task) takeSuccs(buf []*task) []*task {
	inl := int(t.nsuccs)
	if inl > inlineArity {
		inl = inlineArity
	}
	for i := 0; i < inl; i++ {
		buf = append(buf, t.succsInl[i])
		t.succsInl[i] = nil
	}
	buf = append(buf, t.succsOvf...)
	clear(t.succsOvf)
	t.succsOvf = t.succsOvf[:0]
	t.nsuccs = 0
	return buf
}

// Stats summarises a runtime's activity.
type Stats struct {
	// Submitted counts accepted tasks, Executed the tasks whose body ran to
	// its terminal attempt (failed or not), Steals the dispatches a worker
	// took from another worker's queue.
	Submitted uint64
	Executed  uint64
	Steals    uint64
	// Skipped counts tasks whose context was cancelled before they started,
	// plus tasks skip-poisoned by a terminally panicked predecessor.
	Skipped uint64
	// Panics counts recovered task-body (and OnDone-hook) panics — every
	// occurrence, including attempts that were subsequently retried.
	Panics uint64
	// Retries counts re-armed attempts under TaskSpec.Retry.
	Retries uint64
	// DeadlineMisses counts body attempts that overran TaskSpec.Deadline.
	DeadlineMisses uint64
	// Quarantined counts tasks terminally failed by a panic (the retry
	// budget, if any, never produced a clean run) plus the skip-poisoned
	// successors they took down with them.
	Quarantined uint64
	// Parks and Wakes count worker sleep/wake transitions across the
	// scheduler's parking lots and the class gate. Parks per thousand
	// executed tasks is the idle-protocol health figure: a pool that parks
	// often under steady load is paying the OS wake path per task.
	Parks uint64
	Wakes uint64
	// Searches counts the idle-search phases WorkSteal workers entered
	// before parking (a worker fresh off a task polls briefly for new work
	// first); SearchHits those that ended on queued work instead of a park.
	// Both stay zero on the FIFO and CATS schedulers.
	Searches   uint64
	SearchHits uint64
	// ParkedTasks is a gauge: tasks a waiter holds off the workers — a
	// body that returned after CompleteAfter, or a failed attempt waiting
	// out its retry backoff.
	ParkedTasks int64
	// PerWorker counts tasks executed by each worker.
	PerWorker []uint64
	// PerClass aggregates PerWorker by worker class, in WorkerClasses()
	// order (index 0 is the fast class).
	PerClass []uint64
	// FlightEvents is the total number of events the flight recorder has
	// captured (0 without WithFlightRecorder).
	FlightEvents uint64
	// Adaptive is the policy-layer snapshot: the live class mask plus,
	// with WithAdaptive, the controller's sample and decision counters.
	Adaptive AdaptiveStats
}

// Placement identifies the pool worker executing a task body, delivered
// to the body through its context (TaskPlacement). Simulated heterogeneous
// workloads use Speed to scale their work to the worker they landed on;
// tests and experiments use Class to assert criticality-aware placement.
type Placement struct {
	// Worker is the executing worker's ID (0 ≤ Worker < Workers()).
	Worker int
	// Class is the index of the worker's class in WorkerClasses() order.
	Class int
	// ClassName is the resolved name of the worker's class.
	ClassName string
	// Speed is the worker's class speed multiplier.
	Speed float64
	// Attempt is the number of failed attempts this task consumed before
	// the current run: 0 on the first attempt, n on the n-th retry (see
	// TaskSpec.Retry).
	Attempt int
}

// placementKey is the context key TaskPlacement looks up.
type placementKey struct{}

// placementCtx is the context a task body receives: the task's submission
// context augmented with the executing worker's placement. Instances are
// immutable once created — a worker allocates one per distinct submission
// context it dispatches and caches it, so consecutive tasks sharing a
// submission context (the steady state: one context per request, or
// context.Background throughout) share one wrapper at zero per-task
// allocation, while a body that retains its context — directly or through
// a derived context — keeps a chain that stays valid forever.
type placementCtx struct {
	context.Context
	// w is the worker that made the wrapper: it names the owning runtime,
	// so a worker hint derived from this context is only trusted by the
	// pool it belongs to, and it is where CompleteAfter leaves its request.
	w     *workerState
	where Placement
}

// Value serves the placement lookup locally and delegates everything else
// to the submission context.
func (c *placementCtx) Value(key any) any {
	if _, ok := key.(placementKey); ok {
		return &c.where
	}
	return c.Context.Value(key)
}

// TaskPlacement reports which worker is executing the current task body.
// It only succeeds on the context a Body receives from the runtime (or one
// derived from it); on any other context it returns a zero Placement and
// false.
func TaskPlacement(ctx context.Context) (Placement, bool) {
	if pc, ok := ctx.(*placementCtx); ok {
		return pc.where, true // fast path: no interface Value chain
	}
	p, ok := ctx.Value(placementKey{}).(*Placement)
	if !ok {
		return Placement{}, false
	}
	return *p, true
}

// submitHint resolves the worker-locality hint of a submission context: a
// submission made with a task body's context (the one this runtime handed
// it) targets the worker that executed that body, so producer-side task
// creation enjoys the same locality benefit as successor release.
// Everything else — foreign contexts, other runtimes' body contexts —
// gets no hint. The hint is safe from any goroutine: hinted submissions
// go through the target worker's mutex-guarded side buffer (see
// scheduler.submitLocal), never directly onto its owner-only deque.
func (r *Runtime) submitHint(ctx context.Context) int {
	if pc, ok := ctx.(*placementCtx); ok && pc.w.r == r {
		return pc.where.Worker
	}
	return -1
}

// Runtime is one task-pool instance.
type Runtime struct {
	opts  options
	sched scheduler

	// rec is the flight recorder (nil without WithFlightRecorder); every
	// instrumentation site is gated on it so a recorder-less runtime pays
	// one predictable branch. schedSelfRecords marks a scheduler that
	// records its own dispatch events from inside pop — CATS does, carrying
	// the class-gating evidence only it has — so the worker loop must not
	// record a duplicate.
	rec              *flightrec.Recorder
	schedSelfRecords bool

	// classes is the resolved worker-class set, fastest first; classOf maps
	// workerID → class index. Workers 0..fastN-1 are the fast class.
	classes []WorkerClass
	classOf []int

	// gate serialises submission against Shutdown: submitters hold the
	// (shared, scalable) read side for the registration window, Shutdown
	// takes the write side to set closed. The dependence tracker itself is
	// sharded — see depShard — so concurrent submitters touching disjoint
	// keys proceed in parallel.
	gate   sync.RWMutex
	shards []*depShard
	// seq is the task-ID allocator; TaskIDs double as the sequence numbers
	// that define program order for WAR/WAW resolution.
	seq int64

	outstanding int64 // submitted but not finished
	waitMu      sync.Mutex
	waitCond    *sync.Cond

	// slots is the backpressure semaphore (nil when unbounded); slotTurn
	// is the one-at-a-time turnstile multi-slot acquisitions pass through
	// (see acquireSlots).
	slots    chan struct{}
	slotTurn chan struct{}

	errMu    sync.Mutex
	firstErr error

	// sig is the signals layer — the single source of truth for execution
	// counters (per-worker, padded, owner-bumped), grouped at read time by
	// StatsInto. pol is the policy layer: the cached class mask every
	// scheduler's pop consults.
	sig *signals
	pol *policyWords

	// ctrl is the adaptive controller (nil without WithAdaptive). It is
	// the single writer of the class mask once running.
	ctrl *adaptiveController

	// free and pool are the two tiers of the task-record freelist. Without
	// trace retention, complete retires each finished record — first into
	// the fixed-capacity lock-free ring (GC-immune, so the steady state
	// stays allocation-free across collections), overflowing into the
	// sync.Pool (GC-reclaimable) — and newTask reuses it, so the
	// steady-state submit→execute→complete path allocates nothing.
	free *taskFreelist
	pool sync.Pool
	// scratch recycles submitSpecs' per-batch []*task scratch.
	scratch scratchPool

	// waits hands parked tasks and retry backoffs to idle waiter
	// goroutines (Runtime.waiter); idleWaiters counts those receiving on it.
	waits       chan parked
	idleWaiters atomic.Int32

	closed   int32 // Submit guard, set at Shutdown entry
	shutdown int32 // worker stop flag, set once the pool drains
	wg       sync.WaitGroup
}

// New creates and starts a runtime.
func New(opts ...Option) *Runtime {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	classes, classOf, fastN := o.resolveClasses()
	o.workers = len(classOf)
	r := &Runtime{
		opts:    o,
		classes: classes,
		classOf: classOf,
		shards:  newShards(resolveShards(o.shards)),
		sig:     newSignals(o.workers),
		pol:     newPolicyWords(len(classes)),
	}
	// Freelist ring capacity covers twice the queue bound — every
	// outstanding record plus the transient excess that recycle/slot races
	// create — or a generous default for unbounded pools; bursts past it
	// overflow to the sync.Pool tier.
	freeCap := 2048
	if o.queueBound > 0 {
		r.slots = make(chan struct{}, o.queueBound)
		r.slotTurn = make(chan struct{}, 1)
		freeCap = 2 * o.queueBound
	}
	r.free = newTaskFreelist(freeCap)
	r.pool.New = func() any { return new(task) }
	r.waitCond = sync.NewCond(&r.waitMu)
	r.waits = make(chan parked)
	if o.flight != nil {
		// One submit lane per tracker shard: the submit path records a
		// pending task's submit event while still holding a shard mutex,
		// so the lane needs no locking of its own.
		r.rec = flightrec.NewWithLanes(o.workers, len(r.shards), *o.flight)
	}
	layout := classLayout{workers: o.workers, fastN: fastN, classOf: classOf}
	switch o.scheduler {
	case FIFO:
		r.sched = newFIFOScheduler(layout, r.pol, r.sig, r.rec)
	case CATS:
		r.sched = newCATSScheduler(layout, r.pol, r.sig, r.rec)
		r.schedSelfRecords = r.rec != nil
	default:
		r.sched = newStealScheduler(layout, o.localWindow, r.pol, r.sig, r.rec)
	}
	for w := 0; w < o.workers; w++ {
		r.wg.Add(1)
		go r.worker(w)
	}
	if o.adaptive != nil {
		r.ctrl = newAdaptiveController(r, *o.adaptive)
		go r.ctrl.run()
	}
	return r
}

// Workers returns the pool size (the sum of all class counts).
func (r *Runtime) Workers() int { return r.opts.workers }

// WorkerClasses returns the resolved worker classes, fastest first —
// WithWorkerClasses input after validation, ordering, and naming, or the
// single homogeneous class a WithWorkers pool runs with. Worker IDs are
// assigned in class order: the first WorkerClasses()[0].Count workers are
// the fast class.
func (r *Runtime) WorkerClasses() []WorkerClass {
	return append([]WorkerClass(nil), r.classes...)
}

// FlightRecorder returns the runtime's flight recorder, or nil when the
// runtime was built without WithFlightRecorder. The recorder stays
// readable (Snapshot, Tail, Collect) after Shutdown — that is the point of
// a flight recorder: the timeline survives the crash site.
func (r *Runtime) FlightRecorder() *flightrec.Recorder { return r.rec }

// setErr captures the first task failure.
func (r *Runtime) setErr(err error) {
	if err == nil {
		return
	}
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
}

// Err returns the first error any task body returned (or the cancellation
// error of the first skipped task), nil if everything succeeded so far.
func (r *Runtime) Err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.firstErr
}

// Backlog reports the number of submitted tasks that have not yet
// finished — pending, queued, and running alike. It is a single atomic
// read, cheap enough for per-request admission decisions (the serve
// layer's controller polls it on every submit), where a full StatsInto
// snapshot would be disproportionate.
func (r *Runtime) Backlog() int64 {
	return atomic.LoadInt64(&r.outstanding)
}

// Wait blocks until every submitted task has finished (OmpSs taskwait).
func (r *Runtime) Wait() {
	r.waitMu.Lock()
	for atomic.LoadInt64(&r.outstanding) != 0 {
		r.waitCond.Wait()
	}
	r.waitMu.Unlock()
}

// WaitCtx is Wait with cancellation: it returns the first task error once
// everything submitted has finished, or ctx.Err() as soon as the context is
// done. Tasks already in flight keep their own submission contexts — cancel
// those to stop the work itself.
func (r *Runtime) WaitCtx(ctx context.Context) error {
	if ctx.Done() != nil {
		// Wake the condition-variable wait below when ctx fires.
		stop := context.AfterFunc(ctx, func() {
			r.waitMu.Lock()
			r.waitCond.Broadcast()
			r.waitMu.Unlock()
		})
		defer stop()
	}
	r.waitMu.Lock()
	for atomic.LoadInt64(&r.outstanding) != 0 && ctx.Err() == nil {
		r.waitCond.Wait()
	}
	r.waitMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	return r.Err()
}

// Shutdown drains outstanding tasks and stops the workers. Submissions
// racing with or following Shutdown fail with ErrShutdown instead of
// enqueuing into a stopping pool (which would hang a later Wait). The
// runtime must not be used afterwards.
func (r *Runtime) Shutdown() {
	// closed is set under the gate's write side: a submission that already
	// passed the guard finishes registering (incrementing outstanding) and
	// releases its read lock before this lock is granted, so the Wait
	// below drains it; later submissions see closed and fail.
	r.gate.Lock()
	atomic.StoreInt32(&r.closed, 1)
	r.gate.Unlock()
	r.Wait()
	if atomic.CompareAndSwapInt32(&r.shutdown, 0, 1) {
		close(r.waits) // nothing is parked once Wait returns
	}
	r.sched.wake()
	r.wg.Wait()
	if r.ctrl != nil {
		// Stop the controller after the workers: it may keep adapting while
		// the pool drains (that is the point), but must not race the
		// recorder's Close below.
		r.ctrl.halt()
	}
	if r.rec != nil {
		// Stop the recorder's clock; the rings stay readable for post-run
		// snapshots (Tail, the bench tool's -flight-dump).
		r.rec.Close()
	}
}

// Stats returns a snapshot of execution counters. Each call allocates
// fresh PerWorker/PerClass slices; reporting loops that poll repeatedly
// should use StatsInto with a reused buffer instead.
func (r *Runtime) Stats() Stats {
	var s Stats
	r.StatsInto(&s)
	return s
}

// StatsInto fills s with a snapshot of the execution counters, reusing the
// capacity of s.PerWorker and s.PerClass when they are large enough — the
// allocation-free variant of Stats for hot reporting loops (periodic
// metrics exporters, per-round experiment sampling). This is the one place
// the per-worker counter blocks are read: the totals and the per-class view
// are both grouped here, straight into s, so concurrent callers (each with
// its own s) share nothing.
func (r *Runtime) StatsInto(s *Stats) {
	sig := r.sig
	s.Submitted = uint64(atomic.LoadInt64(&r.seq))
	s.PerWorker = resized(s.PerWorker, len(sig.workers))
	s.PerClass = resized(s.PerClass, len(r.classes))
	clear(s.PerClass)
	s.Executed, s.Steals, s.Skipped, s.Searches, s.SearchHits = 0, 0, 0, 0, 0
	for i := range sig.workers {
		w := &sig.workers[i]
		e := atomic.LoadUint64(&w.executed)
		s.PerWorker[i] = e
		s.PerClass[r.classOf[i]] += e
		s.Executed += e
		s.Steals += atomic.LoadUint64(&w.steals)
		s.Skipped += atomic.LoadUint64(&w.skipped)
		s.Searches += atomic.LoadUint64(&w.searches)
		s.SearchHits += atomic.LoadUint64(&w.searchHits)
	}
	s.Panics = sig.panics.Load()
	s.Retries = sig.retries.Load()
	s.DeadlineMisses = sig.deadlineMiss.Load()
	s.Quarantined = sig.quarantined.Load()
	s.Parks = sig.parks.Load()
	s.Wakes = sig.wakes.Load()
	s.ParkedTasks = sig.parkedTasks.Load()
	s.FlightEvents = 0
	if r.rec != nil {
		s.FlightEvents = r.rec.EventCount()
	}
	s.Adaptive = AdaptiveStats{ActiveClasses: r.pol.classMask.Load()}
	if c := r.ctrl; c != nil {
		s.Adaptive.Enabled = true
		s.Adaptive.Samples = c.samples.Load()
		s.Adaptive.Decisions = c.decisions.Load()
	}
}

// resized returns s with length n, reusing its capacity when it suffices.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Graph exports the dependence graph of everything submitted so far as a
// tdg.Graph (task costs carried over), for criticality analysis or for
// replay on the simulated machine. Call after Wait for a complete graph.
//
// Graph requires the runtime to have been built with WithTraceRetention —
// the trace of completed tasks is otherwise released as tasks finish, and
// Graph fails with ErrNoTrace. With retention on, the export replays the
// dependence log in task-ID order — for tasks submitted from a single
// goroutine that is exactly the live tracking order; for concurrent
// submitters it is one valid serialisation of the program order (ID
// allocation and shard registration may interleave differently, but any
// total order yields an acyclic graph with the same per-key hazard
// structure).
func (r *Runtime) Graph() (*tdg.Graph, error) {
	if !r.opts.retainTrace {
		return nil, ErrNoTrace
	}
	// Holding every shard lock excludes in-flight registrations, so the
	// collected log slabs are mutually consistent.
	all := uint64(1)<<len(r.shards) - 1
	r.lockShards(all)
	var tasks []*task
	for _, s := range r.shards {
		tasks = append(tasks, s.tasks...)
	}
	r.unlockShards(all)
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].id < tasks[j].id })

	// succs lists are consumed on completion, so rebuild edges from the
	// dependence log with a shadow tracking pass through a tdg.Builder.
	// IDs are remapped (rather than assumed dense) so a snapshot taken
	// while submissions are in flight still exports the registered subset.
	b := tdg.NewBuilder()
	node := make(map[TaskID]tdg.NodeID, len(tasks))
	for _, t := range tasks {
		node[t.id] = b.AddNode(t.name, t.cost)
	}
	shadowWriter := make(map[any]tdg.NodeID)
	shadowReaders := make(map[any][]tdg.NodeID)
	for _, t := range tasks {
		id := node[t.id]
		for _, d := range t.deps() {
			switch d.Mode {
			case ModeIn:
				if w, ok := shadowWriter[d.Key]; ok {
					b.AddEdge(w, id)
				}
				shadowReaders[d.Key] = append(shadowReaders[d.Key], id)
			case ModeOut, ModeInOut:
				if w, ok := shadowWriter[d.Key]; ok {
					b.AddEdge(w, id)
				}
				for _, rd := range shadowReaders[d.Key] {
					b.AddEdge(rd, id)
				}
				shadowWriter[d.Key] = id
				shadowReaders[d.Key] = shadowReaders[d.Key][:0]
			}
		}
	}
	return b.Graph(), nil
}

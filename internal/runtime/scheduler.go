package runtime

import (
	"sync"

	"repro/internal/flightrec"
)

// scheduler is the ready-queue policy contract — every call the runtime
// and the sampler make into a scheduler, with no capability discovered by
// type assertion. The first five methods are implemented by all three
// schedulers; the rest are scheduler-specific hooks whose no-op defaults
// come from the embedded schedHooks.
//
//	method            fifo      worksteal   cats
//	push/pushBatch    queue     route       heap insert
//	pop               queue     find+park   refile+take
//	wake              lot       lot         lot
//	queued            1 queue   pending     2 heaps
//	submitLocal*      —         side buffer —
//	taskDone          —         —           saturation
type scheduler interface {
	// push enqueues a ready task. workerHint is the worker that released
	// it, or -1 when released from a submitting goroutine. A non-negative
	// hint promises the call is made on that worker's own goroutine — the
	// steal scheduler pushes straight onto the worker's deque, whose bottom
	// end is owner-only.
	push(t *task, workerHint int)
	// pushBatch enqueues a slice of ready tasks with at most one (broadcast)
	// wakeup — the scheduler half of SubmitBatchCtx's amortisation. The
	// workerHint contract matches push.
	pushBatch(ts []*task, workerHint int)
	// pop dequeues a task for workerID, reporting whether it was stolen
	// from another worker's queue. It blocks until a task is available or
	// wake is called with nothing queued (then it returns nil, which
	// workers interpret as a shutdown check).
	pop(workerID int) (t *task, stolen bool)
	// wake unblocks all waiting workers (used at shutdown).
	wake()
	// queued is the number of ready, undispatched tasks the scheduler
	// holds — the sampler's Pending.
	queued() int64

	// submitLocal and submitLocalBatch are the locality path for hinted
	// submissions — tasks submitted with a body's context, targeting the
	// worker that ran the body. Unlike the deque (whose bottom end is
	// owner-only), the submit buffer behind them is mutex-guarded and safe
	// from ANY goroutine, so a body may hand its context to helper
	// goroutines that submit concurrently. submitLocal reports whether it
	// took the task; submitLocalBatch takes a prefix of ts and returns how
	// many, the caller routes the rest centrally.
	submitLocal(t *task, workerID int) bool
	submitLocalBatch(ts []*task, workerID int) int
	// taskDone hears that workerID finished the task it popped. The worker
	// notifies before the task's successors are released, so a class-aware
	// scheduler's saturation count is exact when a newly-ready critical
	// successor is placed.
	taskDone(workerID int)
}

// schedHooks is embedded by every scheduler: the no-op defaults of the
// scheduler-specific half of the contract.
type schedHooks struct{}

func (schedHooks) submitLocal(*task, int) bool       { return false }
func (schedHooks) submitLocalBatch([]*task, int) int { return 0 }
func (schedHooks) taskDone(int)                      {}

// classLayout is the view of the pool CATS, the class-aware scheduler,
// receives. Worker IDs are assigned fastest class first
// (options.resolveClasses), so a single comparison — id < fastN —
// classifies a worker, and fastN == workers means the pool is homogeneous
// (every placement rule degenerates to the class-blind behaviour).
type classLayout struct {
	workers int
	// fastN is the number of fast-class workers: those whose class ties
	// the pool's top speed, always ≥ 1.
	fastN int
}

// parkLog is the park/wake bookkeeping every blocking site of every
// scheduler shares: the churn counters of the signals layer and the
// flight recorder's park/wake events.
type parkLog struct {
	sig *signals
	rec *flightrec.Recorder
}

// wait blocks workerID on cond (whose lock the caller holds), accounting
// the park before and the wake after.
func (p *parkLog) wait(cond *sync.Cond, workerID int) {
	p.sig.parks.Add(1)
	if p.rec != nil {
		p.rec.RecordWorker(workerID, flightrec.KindPark, 0, 0, 0)
	}
	cond.Wait()
	p.sig.wakes.Add(1)
	if p.rec != nil {
		p.rec.RecordWorker(workerID, flightrec.KindWake, 0, 0, 0)
	}
}

// centralLot is what the two central-queue schedulers (FIFO, CATS) share:
// one mutex guarding the queue, one condition variable every idle worker
// waits on, and the push side, which differs only in the queue insert
// (enqueue, called under mu).
type centralLot struct {
	schedHooks
	parkLog
	mu      sync.Mutex
	cond    *sync.Cond
	woken   bool
	enqueue func(*task)
}

func (c *centralLot) init(sig *signals, rec *flightrec.Recorder, enqueue func(*task)) {
	c.parkLog = parkLog{sig: sig, rec: rec}
	c.cond = sync.NewCond(&c.mu)
	c.enqueue = enqueue
}

func (c *centralLot) push(t *task, _ int) {
	c.mu.Lock()
	c.enqueue(t)
	c.mu.Unlock()
	c.kick(1)
}

func (c *centralLot) pushBatch(ts []*task, _ int) {
	if len(ts) == 0 {
		return
	}
	c.mu.Lock()
	for _, t := range ts {
		c.enqueue(t)
	}
	c.mu.Unlock()
	c.kick(len(ts))
}

// kick delivers the wakeup for n pushed tasks: a broadcast for a batch,
// a signal for one task.
func (c *centralLot) kick(n int) {
	if n > 1 {
		c.cond.Broadcast()
	} else {
		c.cond.Signal()
	}
}

// park waits on the lot. Caller holds c.mu.
func (c *centralLot) park(workerID int) { c.wait(c.cond, workerID) }

func (c *centralLot) wake() {
	c.mu.Lock()
	c.woken = true
	c.mu.Unlock()
	c.cond.Broadcast()
}

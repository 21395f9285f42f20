package runtime

import (
	"sync"
	"sync/atomic"

	"repro/internal/flightrec"
)

// scheduler is the ready-queue policy contract — every call the runtime
// makes into a scheduler, with no capability discovered by type assertion.
// The first five methods are implemented by all three schedulers; the rest
// are scheduler-specific hooks whose no-op defaults come from the embedded
// schedHooks. No method blocks but park, and every park goes through the
// pool's one lot.
//
//	method            fifo      worksteal      cats
//	push/pushBatch    queue     route          heap insert
//	take              queue     find           pick
//	park              ring      search+pending pick
//	queued            1 queue   pending        2 heaps
//	submitLocal*      —         side buffer    —
//	taskDone          —         —              saturation
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
	// take dequeues a task for workerID without blocking (nil for none),
	// reporting whether it was stolen from another worker's queue.
	take(workerID int) (t *task, stolen bool)
	// park idles workerID after a take that found nothing: it sleeps on
	// the lot unless the scheduler's re-check finds work for it. It
	// reports false once the lot is woken for shutdown.
	park(workerID int) bool
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
	// taskDone hears that workerID finished the task it took. The worker
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

// pop hands worker w its next task, parking while there is none. It
// returns nil only once the lot is woken for shutdown.
func pop(s scheduler, w int) (*task, bool) {
	for {
		if t, stolen := s.take(w); t != nil {
			return t, stolen
		}
		if !s.park(w) {
			return nil, false
		}
	}
}

// lot is the pool's one parking lot: every idle worker of every scheduler
// sleeps on its condition variable, and the push side of every scheduler
// kicks it once the task is published. Each scheduler gives park only its
// re-check (ready). The lot also keeps the park/wake churn counters and
// the recorder's park/wake events.
type lot struct {
	mu     sync.Mutex
	cond   *sync.Cond
	parked atomic.Int32
	woken  atomic.Bool
	sig    *signals
	rec    *flightrec.Recorder
}

func newLot(sig *signals, rec *flightrec.Recorder) *lot {
	l := &lot{sig: sig, rec: rec}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// kick wakes one sleeper for one published task, or all of them for a
// batch. With nobody parked (the busy steady state) it takes no lock.
func (l *lot) kick(n int) {
	if l.parked.Load() == 0 {
		return
	}
	l.mu.Lock()
	if n > 1 {
		l.cond.Broadcast()
	} else {
		l.cond.Signal()
	}
	l.mu.Unlock()
}

// park sleeps worker w until a kick, unless ready finds work once w is
// registered. It reports false, without sleeping, once the lot is woken.
// ready runs under l.mu, so nobody may kick while holding a lock ready
// takes: the lock order is l.mu → the scheduler's.
func (l *lot) park(w int, ready func() bool) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.woken.Load() {
		return false
	}
	// Register BEFORE the re-check: a pusher publishes and then loads
	// parked, so one side always sees the other. Re-checking first would
	// let a push slip between the check and the registration with parked
	// still 0 — a lost wakeup.
	l.parked.Add(1)
	if !ready() {
		l.sig.parks.Add(1)
		if l.rec != nil {
			l.rec.RecordWorker(w, flightrec.KindPark, 0, 0, 0)
		}
		l.cond.Wait()
		l.sig.wakes.Add(1)
		if l.rec != nil {
			l.rec.RecordWorker(w, flightrec.KindWake, 0, 0, 0)
		}
	}
	l.parked.Add(-1)
	return true
}

// wake releases every sleeper for good (Shutdown).
func (l *lot) wake() {
	l.woken.Store(true)
	l.mu.Lock()
	l.cond.Broadcast()
	l.mu.Unlock()
}

// centralQueue is what the two central-queue schedulers (FIFO, CATS)
// share: one mutex guarding the queue and the push side, which differs
// only in the queue insert (enqueue, called under mu). Their lot re-check
// takes mu after registering, so a push whose enqueue it missed held mu
// after it and reads parked ≥ 1 in kick.
type centralQueue struct {
	schedHooks
	lot     *lot
	mu      sync.Mutex
	enqueue func(*task)
}

func (c *centralQueue) push(t *task, _ int) {
	c.mu.Lock()
	c.enqueue(t)
	c.mu.Unlock()
	c.lot.kick(1)
}

func (c *centralQueue) pushBatch(ts []*task, _ int) {
	if len(ts) == 0 {
		return
	}
	c.mu.Lock()
	for _, t := range ts {
		c.enqueue(t)
	}
	c.mu.Unlock()
	c.lot.kick(len(ts))
}

package runtime

import (
	"sync/atomic"

	"repro/internal/flightrec"
)

// catsScheduler is a central priority queue ordered by the tasks' dynamic
// bottom-level estimates (higher first), submission order breaking ties —
// critical-path tasks start as early as possible (Section 3.1).
//
// A ready task holds exactly one heap entry from its push to the take that
// dispatches it, filed under the priority it had at the push. A queued
// task whose estimate is raised later (linkPreds, when a successor
// registers) is not re-sorted: its entry dispatches it later than a fresh
// one would, never earlier. Pop is O(log n), push is O(log n).
//
// On a heterogeneous pool CATS is additionally placement-aware — the
// paper's critical tasks → fast cores rule. Ready tasks split into two
// heaps: crit holds entries filed under a positive priority (the task is
// on somebody's critical path, or carries a programmer priority hint),
// plain holds the rest. Fast-class workers drain crit first and fall back
// to plain; slow workers drain plain first and take critical work only
// when the fast class is saturated. A plain entry whose task has turned
// critical while queued is refiled into crit when it surfaces at the plain
// root (see pick), so it is never handed out as plain work. Saturation
// means every fast worker is currently executing critical work
// (fastCritRunning == fastN) — not merely "no fast worker is idle": a fast
// worker busy with a plain task is still the critical task's best ride,
// since its very next take gets it, whereas handing the task to a slow
// worker bakes the slowdown in. Workers report the end of a dispatch
// through taskDone — before the task's successors are released, so a
// newly-ready critical successor never sees a stale saturation count.
// Liveness: a slow worker that declines critical work passes its wakeup on
// (kick) when a fast worker is in park (the wait list is FIFO, so the
// baton reaches it); otherwise no fast worker has begun to park, and its
// park's re-check will see the critical work. A fast worker whose dispatch
// saturates the class kicks if critical work remains, releasing parked
// slow workers to help. Both kicks come after s.mu is released: the lot's
// re-check runs pick under lot.mu, so the lock order is lot.mu → s.mu.
// With a homogeneous layout every worker is fast-class and the two heaps
// behave exactly like the single global order (crit priorities are all >
// plain's zero).
type catsScheduler struct {
	centralQueue
	// crit holds ready tasks filed under a positive priority, plain the
	// priority-zero (and hint-negative) rest.
	crit  catsHeap
	plain catsHeap
	// fastN classifies workers (id < fastN → fast class); fastIdle counts
	// fast-class workers in park.
	fastN    int
	fastIdle atomic.Int32
	// lastCrit[w] records that fast worker w's previous dispatch came from
	// the crit heap; fastCritRunning counts them. fastCritRunning == fastN
	// is the saturation signal that lets slow workers take critical work.
	lastCrit        []bool
	fastCritRunning int
}

// catsEntry is one heap element: a task and the priority it was filed
// under. The entry is the task's only one and leaves the heap at the take
// that dispatches it, so it never outlives the task life it names and t.id
// is safe to read at compare time.
type catsEntry struct {
	t    *task
	prio int64
}

// newCATSScheduler builds CATS for a pool whose first fastN workers are
// the fast class (options.resolveClasses assigns IDs fastest class first;
// fastN == workers is a homogeneous pool, where every placement rule
// degenerates to the class-blind behaviour).
func newCATSScheduler(fastN int, l *lot) *catsScheduler {
	s := &catsScheduler{fastN: fastN, lastCrit: make([]bool, fastN)}
	s.lot, s.enqueue = l, s.insert
	return s
}

// before reports heap order: higher filed priority first, then earlier
// submission.
func (a catsEntry) before(b catsEntry) bool {
	return a.prio > b.prio || (a.prio == b.prio && a.t.id < b.t.id)
}

// catsHeap is a binary max-heap of catsEntry in before order.
type catsHeap []catsEntry

func (h *catsHeap) push(e catsEntry) {
	*h = append(*h, e)
	heap := *h
	i := len(heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !heap[i].before(heap[p]) {
			break
		}
		heap[i], heap[p] = heap[p], heap[i]
		i = p
	}
}

// pop removes the root entry and returns its task.
func (h *catsHeap) pop() *task {
	heap := *h
	t := heap[0].t
	last := len(heap) - 1
	heap[0] = heap[last]
	heap[last] = catsEntry{} // release the task pointer
	*h = heap[:last]
	heap = *h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && heap[l].before(heap[best]) {
			best = l
		}
		if r < last && heap[r].before(heap[best]) {
			best = r
		}
		if best == i {
			break
		}
		heap[i], heap[best] = heap[best], heap[i]
		i = best
	}
	return t
}

// insert files a ready task under its live priority — the centralQueue's
// enqueue. Caller holds s.mu.
func (s *catsScheduler) insert(t *task) {
	e := catsEntry{t: t, prio: atomic.LoadInt64(&t.priority)}
	if e.prio > 0 {
		s.crit.push(e)
	} else {
		s.plain.push(e)
	}
}

// pick returns the heap workerID's class may dispatch from right now (nil
// for none). Caller holds s.mu.
func (s *catsScheduler) pick(workerID int) *catsHeap {
	// A plain entry whose task gained a successor while queued is critical
	// now: refile it when it surfaces, so it is placed as critical work —
	// late in the crit order at worst, never as plain work.
	for len(s.plain) > 0 && atomic.LoadInt64(&s.plain[0].t.priority) > 0 {
		s.insert(s.plain.pop())
	}
	if workerID < s.fastN {
		// Fast class: most critical work first, help with plain when the
		// critical heap is dry.
		if len(s.crit) > 0 {
			return &s.crit
		}
		if len(s.plain) > 0 {
			return &s.plain
		}
		return nil
	}
	// Slow class: plain work first; critical work only once every fast
	// worker is running critical work — better a critical task on a slow
	// worker than a saturated fast class, but never while a fast worker
	// is idle or about to come back for it.
	if len(s.plain) > 0 {
		return &s.plain
	}
	if len(s.crit) > 0 && s.fastCritRunning == s.fastN {
		return &s.crit
	}
	return nil
}

// taskDone records that workerID finished its dispatched task. Called by
// the worker between executing the body and releasing the successors, so
// the saturation count is already correct when any newly-ready critical
// task is pushed.
func (s *catsScheduler) taskDone(workerID int) {
	if workerID < 0 || workerID >= s.fastN { // a waiter (−1) dispatched nothing
		return
	}
	s.mu.Lock()
	if s.lastCrit[workerID] {
		s.lastCrit[workerID] = false
		s.fastCritRunning--
	}
	s.mu.Unlock()
}

// take dispatches from the heap pick names, or declines (see the type
// comment for the wakeups either may owe).
func (s *catsScheduler) take(workerID int) (*task, bool) {
	fast := workerID < s.fastN
	var t *task
	kick := false
	s.mu.Lock()
	if h := s.pick(workerID); h == nil {
		// Declining critical work in favour of a fast worker in park
		// consumes the wakeup that announced it: pass it on.
		kick = !fast && len(s.crit) > 0 && s.fastIdle.Load() > 0
	} else {
		fromCrit := h == &s.crit
		t = h.pop()
		if fast && fromCrit {
			s.lastCrit[workerID] = true
			s.fastCritRunning++
			// Saturating the fast class with critical work left over:
			// release a parked slow worker to help.
			kick = s.fastCritRunning == s.fastN && len(s.crit) > 0
		}
		if s.lot.rec != nil {
			// CATS self-records its dispatches (the runtime's worker loop
			// skips them): only here, under s.mu at the moment of the
			// placement decision, are the class-gating facts — crit origin
			// and exact fast-class saturation — available to stamp into the
			// event for the verifier.
			s.lot.rec.RecordWorker(workerID, flightrec.KindDispatch, uint64(t.id),
				atomic.LoadUint64(&t.claim), flightrec.PackDispatch(false, fromCrit, s.fastCritRunning, s.fastN))
		}
	}
	s.mu.Unlock()
	if kick {
		s.lot.kick(1)
	}
	return t, false
}

// park's re-check is pick itself: anything pick would hand this worker's
// class keeps it awake.
func (s *catsScheduler) park(workerID int) bool {
	fast := workerID < s.fastN
	if fast {
		s.fastIdle.Add(1)
	}
	ok := s.lot.park(workerID, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.pick(workerID) != nil
	})
	if fast {
		s.fastIdle.Add(-1)
	}
	return ok
}

// queued: the two heaps — one entry per ready, undispatched task.
func (s *catsScheduler) queued() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.crit) + len(s.plain))
}

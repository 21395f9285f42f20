package runtime

import (
	"sync/atomic"

	"repro/internal/flightrec"
)

// catsScheduler is a central priority queue ordered by the tasks' dynamic
// bottom-level estimates (higher first), submission order breaking ties —
// critical-path tasks start as early as possible (Section 3.1).
//
// A ready task holds exactly one heap entry from its push to the pop that
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
// root (see take), so it is never handed out as plain work. Saturation
// means every fast worker is currently executing critical work
// (fastCritRunning == fastN) — not merely "no fast worker is idle": a fast
// worker busy with a plain task is still the critical task's best ride,
// since its very next pop will take it, whereas handing the task to a slow
// worker bakes the slowdown in. Workers report the end of a dispatch
// through taskDone — before the task's successors are released, so a
// newly-ready critical successor never sees a stale saturation count.
// Liveness: a slow worker that declines critical work passes its wakeup to
// a parked fast worker when one exists (the wait list is FIFO, so the
// baton reaches it), and otherwise some fast worker is mid-task and
// guaranteed to pop again; a fast worker whose dispatch saturates the
// class re-signals if critical work remains, releasing parked slow workers
// to help. With a homogeneous layout every worker is fast-class and the
// two heaps behave exactly like the single global order (crit priorities
// are all > plain's zero).
type catsScheduler struct {
	centralLot
	// crit holds ready tasks filed under a positive priority, plain the
	// priority-zero (and hint-negative) rest.
	crit  catsHeap
	plain catsHeap
	// fastN classifies workers (id < fastN → fast class); fastIdle counts
	// fast-class workers blocked in pop.
	fastN    int
	fastIdle int
	// lastCrit[w] records that fast worker w's previous dispatch came from
	// the crit heap; fastCritRunning counts them. fastCritRunning == fastN
	// is the saturation signal that lets slow workers take critical work.
	lastCrit        []bool
	fastCritRunning int
}

// catsEntry is one heap element: a task and the priority it was filed
// under. The entry is the task's only one and leaves the heap at the pop
// that dispatches it, so it never outlives the task life it names and t.id
// is safe to read at compare time.
type catsEntry struct {
	t    *task
	prio int64
}

func newCATSScheduler(layout classLayout, sig *signals, rec *flightrec.Recorder) *catsScheduler {
	s := &catsScheduler{
		fastN:    layout.fastN,
		lastCrit: make([]bool, layout.fastN),
	}
	s.init(sig, rec, s.insert)
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

// insert files a ready task under its live priority — the centralLot's
// enqueue. Caller holds s.mu.
func (s *catsScheduler) insert(t *task) {
	e := catsEntry{t: t, prio: atomic.LoadInt64(&t.priority)}
	if e.prio > 0 {
		s.crit.push(e)
	} else {
		s.plain.push(e)
	}
}

// take pops the best task workerID's class may dispatch right now (nil for
// none), reporting which heap it came from. Caller holds s.mu.
func (s *catsScheduler) take(workerID int) (t *task, fromCrit bool) {
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
			return s.crit.pop(), true
		}
		if len(s.plain) > 0 {
			return s.plain.pop(), false
		}
		return nil, false
	}
	// Slow class: plain work first; critical work only once every fast
	// worker is running critical work — better a critical task on a slow
	// worker than a saturated fast class, but never while a fast worker
	// is idle or about to come back for it.
	if len(s.plain) > 0 {
		return s.plain.pop(), false
	}
	if len(s.crit) > 0 && s.fastCritRunning == s.fastN {
		return s.crit.pop(), true
	}
	return nil, false
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

func (s *catsScheduler) pop(workerID int) (*task, bool) {
	fast := workerID < s.fastN
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if t, fromCrit := s.take(workerID); t != nil {
			if fast && fromCrit {
				s.lastCrit[workerID] = true
				s.fastCritRunning++
				if s.fastCritRunning == s.fastN && len(s.crit) > 0 {
					// This dispatch saturates the fast class with critical
					// work left over: release a parked slow worker to help
					// (its earlier decline consumed the wakeup that
					// announced the backlog).
					s.cond.Signal()
				}
			}
			if s.rec != nil {
				// CATS self-records its dispatches (the runtime's worker
				// loop skips them): only here, under s.mu at the moment of
				// the placement decision, are the class-gating facts — crit
				// origin and exact fast-class saturation — available to
				// stamp into the event for the verifier.
				s.rec.RecordWorker(workerID, flightrec.KindDispatch, uint64(t.id),
					atomic.LoadUint64(&t.claim), flightrec.PackDispatch(false, fromCrit, s.fastCritRunning, s.fastN))
			}
			return t, false
		}
		if s.woken {
			return nil, false
		}
		if !fast && len(s.crit) > 0 && s.fastIdle > 0 {
			// Declining critical work in favour of an idle fast worker
			// consumes the wakeup that announced it; pass the signal on so
			// it keeps bouncing (FIFO through the wait list) until the
			// fast worker accepts. With no fast worker parked the signal
			// can die here: whichever fast worker is mid-task will take
			// the critical entry on its own next pop.
			s.cond.Signal()
		}
		if fast {
			s.fastIdle++
		}
		s.park(workerID)
		if fast {
			s.fastIdle--
		}
	}
}

// queued: the two heaps — one entry per ready, undispatched task.
func (s *catsScheduler) queued() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.crit) + len(s.plain))
}

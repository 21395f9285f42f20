package runtime

import (
	"sync/atomic"

	"repro/internal/flightrec"
)

// catsScheduler is a central priority queue ordered by the tasks' dynamic
// bottom-level estimates (higher first), submission order breaking ties —
// critical-path tasks start as early as possible (Section 3.1).
//
// The old implementation selected by an O(n) linear scan under the lock on
// every pop, because a concurrent priority bump would silently break a
// heap's invariant. This one is a real binary heap that tolerates bumps by
// lazy stale-entry reinsertion: each heap entry snapshots the task's
// priority at insertion; when a queued task's estimate is raised, the
// runtime calls bump and the task is reinserted at its new priority. The
// superseded (stale) entry is not searched for — it is discarded lazily
// when it reaches the root, recognised by the task's claim flag (every
// task is claimed by exactly one winning pop; a task that fails the claim
// CAS was already dispatched through a fresher entry). Pop is O(log n),
// push is O(log n), and a bump costs one extra entry instead of a scan.
//
// On a heterogeneous pool CATS is additionally placement-aware — the
// paper's critical tasks → fast cores rule. Ready tasks split into two
// heaps: crit holds entries whose snapshot priority is positive (the task
// is on somebody's critical path, or carries a programmer priority hint),
// plain holds the rest. Fast-class workers drain crit first and fall back
// to plain; slow workers drain plain first and take critical work only
// when the fast class is saturated. Saturation means every fast worker is
// currently executing critical work (fastCritRunning == fastN) — not
// merely "no fast worker is idle": a fast worker busy with a plain task
// is still the critical task's best ride, since its very next pop will
// take it, whereas handing the task to a slow worker bakes the slowdown
// in. Workers report the end of a dispatch through taskDone — before the
// task's successors are released, so a newly-ready critical successor
// never sees a stale saturation count. Liveness: a slow worker
// that declines critical work passes its wakeup to a parked fast worker
// when one exists (the wait list is FIFO, so the baton reaches it), and
// otherwise some fast worker is mid-task and guaranteed to pop again; a
// fast worker whose dispatch saturates the class re-signals if critical
// work remains, releasing parked slow workers to help. With a homogeneous
// layout every worker is fast-class and the two heaps behave exactly like
// the single global order (crit priorities are all > plain's zero).
type catsScheduler struct {
	centralLot
	// crit holds ready tasks with positive snapshot priority, plain the
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

// catsEntry is one heap element: a task plus snapshots of its priority,
// sequence number, and claim word at insertion. task.priority may have
// been raised since; the entry then either gets superseded by a bump
// reinsertion or dispatches the task slightly later than a fresh entry
// would — never earlier, so order violations are one-sided and bounded by
// the bump window. The seq snapshot (rather than reading t.seq at compare
// time) and the generation-tagged claim matter because task records are
// pooled: a stale entry may outlive its task, and by comparison time the
// record can already belong to an unrelated task — the entry must neither
// read the recycled record's fields nor claim it (the claim CAS fails on
// any generation but the one the entry was created under).
type catsEntry struct {
	t     *task
	prio  int64
	seq   int64
	claim uint64
}

// snapshotEntry builds t's heap entry under the given claim snapshot.
func snapshotEntry(t *task, claim uint64) catsEntry {
	return catsEntry{
		t:     t,
		prio:  atomic.LoadInt64(&t.priority),
		seq:   atomic.LoadInt64(&t.seq),
		claim: claim,
	}
}

func newCATSScheduler(layout classLayout, pol *policyWords, sig *signals, rec *flightrec.Recorder) *catsScheduler {
	s := &catsScheduler{
		fastN:    layout.fastN,
		lastCrit: make([]bool, layout.fastN),
	}
	s.init(layout, pol, sig, rec, s.insert)
	return s
}

// before reports heap order: higher snapshot priority first, then earlier
// submission (by the entry's seq snapshot — see catsEntry).
func (a catsEntry) before(b catsEntry) bool {
	return a.prio > b.prio || (a.prio == b.prio && a.seq < b.seq)
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

func (h *catsHeap) pop() catsEntry {
	heap := *h
	e := heap[0]
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
	return e
}

// insert routes a ready task to the heap its snapshot priority selects —
// the centralLot's enqueue. Caller holds s.mu.
func (s *catsScheduler) insert(t *task) {
	// The claim snapshot is the READY-TIME word (readyClaim), not the live
	// one: a push that arrives after the task was bump-inserted, dispatched,
	// and recycled must produce an entry whose claim CAS fails on the old
	// generation rather than an entry that could claim the recycled record.
	e := snapshotEntry(t, atomic.LoadUint64(&t.readyClaim))
	if e.prio > 0 {
		s.crit.push(e)
	} else {
		s.plain.push(e)
	}
}

// bump reinserts a queued task whose bottom-level estimate was raised —
// possibly promoting it from the plain heap to crit. The entry already
// queued goes stale and is dropped when popped (its claim CAS fails).
// Called by the runtime under the task's mutex; the lock order task.mu →
// cats.mu is safe because pop takes no task mutexes.
func (s *catsScheduler) bump(t *task) { s.push(t, -1) }

// take pops the best entry workerID's class may dispatch right now,
// reporting which heap it came from. Caller holds s.mu.
func (s *catsScheduler) take(workerID int) (e catsEntry, fromCrit, ok bool) {
	if workerID < s.fastN {
		// Fast class: most critical work first, help with plain when the
		// critical heap is dry.
		if len(s.crit) > 0 {
			return s.crit.pop(), true, true
		}
		if len(s.plain) > 0 {
			return s.plain.pop(), false, true
		}
		return catsEntry{}, false, false
	}
	// Slow class: plain work first; critical work only once every fast
	// worker is running critical work — better a critical task on a slow
	// worker than a saturated fast class, but never while a fast worker
	// is idle or about to come back for it.
	if len(s.plain) > 0 {
		return s.plain.pop(), false, true
	}
	if len(s.crit) > 0 && s.fastCritRunning == s.fastN {
		return s.crit.pop(), true, true
	}
	return catsEntry{}, false, false
}

// taskDone records that workerID finished its dispatched task. Called by
// the worker between executing the body and releasing the successors, so
// the saturation count is already correct when any newly-ready critical
// task is pushed.
func (s *catsScheduler) taskDone(workerID int) {
	if workerID >= s.fastN {
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
	class := s.classOf(workerID)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		// The policy class gate: an inactive class's worker waits without
		// taking work and without joining the fastIdle baton accounting (a
		// gated fast worker must not attract the critical-work signal).
		// CATS's native criticality gating is unaffected — the class gate
		// composes on top.
		if !s.pol.classActive(class) {
			if s.woken {
				return nil, false
			}
			s.park(workerID)
			continue
		}
		if e, fromCrit, ok := s.take(workerID); ok {
			// The claim CAS only succeeds against the exact claim word the
			// entry snapshotted: a stale duplicate of an already-dispatched
			// task fails on the set claimed bit, and a stale entry whose
			// record was recycled fails on the bumped generation — so a
			// pooled record can never be dispatched through an entry from a
			// previous life.
			if e.claim&1 == 0 && atomic.CompareAndSwapUint64(&e.t.claim, e.claim, e.claim|1) {
				if fast && fromCrit {
					s.lastCrit[workerID] = true
					s.fastCritRunning++
					if s.fastCritRunning == s.fastN && len(s.crit) > 0 {
						// This dispatch saturates the fast class with
						// critical work left over: release a parked slow
						// worker to help (its earlier decline consumed the
						// wakeup that announced the backlog).
						s.cond.Signal()
					}
				}
				if s.rec != nil {
					// CATS self-records its dispatches (the runtime's
					// worker loop skips them): only here, under s.mu at the
					// moment of the placement decision, are the class-gating
					// facts — crit origin and exact fast-class saturation —
					// available to stamp into the event for the verifier.
					s.rec.RecordWorker(workerID, flightrec.KindDispatch, uint64(e.t.id),
						e.claim|1, flightrec.PackDispatch(false, fromCrit, s.fastCritRunning, s.fastN))
				}
				return e.t, false
			}
			continue // stale duplicate of an already-dispatched task
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

// queued: the two heaps (stale bump duplicates included — an upper bound).
func (s *catsScheduler) queued() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.crit) + len(s.plain))
}

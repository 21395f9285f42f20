package runtime

import (
	stdruntime "runtime"
	"sync"
	"sync/atomic"

	"repro/internal/flightrec"
)

// stealScheduler is the multi-core dispatch path: one Chase–Lev deque per
// worker plus one injector ring for tasks released off-pool.
//
//   - A worker that releases a task (successor wakeup in complete) pushes it
//     onto its own deque bottom — no lock, no contention, LIFO locality.
//     Past the locality window the release spills to the injector.
//   - Submitting goroutines (no worker identity) push into the injector; an
//     idle worker refills from it in chunks.
//   - A worker with nothing local steals from the top of a victim's deque
//     (FIFO: the oldest task, which heads the largest remaining subtree) —
//     a single CAS, no lock. Victims are visited fast-class before slow
//     (see buildVictimPlans), each tier swept from a random offset.
//   - Only when everything is empty does a worker go idle: fresh off a
//     task it first searches (a bounded number of yield-and-poll rounds,
//     see search), then parks on the pool's one parking lot. The parking
//     protocol is sequentially consistent: pushers bump the pending count
//     before enqueuing and check the parked count after; parkers register
//     in parked under the lot lock and re-check pending before sleeping —
//     so a task published concurrently with a park attempt is always seen
//     by one side.
type stealScheduler struct {
	schedHooks
	// parkLog carries the runtime's signals layer and flight recorder for
	// the park/wake accounting of the parking lot and the class gate.
	parkLog

	deques []*wsDeque

	// inj is the injector: the landing zone of everything released without
	// a worker hint or past the locality window.
	inj lockedRing

	// pending counts queued tasks (deques + injector + side buffers).
	// Maintained with seqcst atomics purely for the parking protocol; the
	// queues themselves are the source of truth.
	pending atomic.Int64
	// parked counts workers asleep on the parking lot (parkMu/parkCond),
	// read lock-free by pushers deciding whether to wake anyone at all.
	parked   atomic.Int32
	parkMu   sync.Mutex
	parkCond *sync.Cond
	woken    atomic.Bool

	// victims holds each worker's precomputed tier-ordered victim plan.
	victims []victimPlan

	// window is the locality window (WithLocalityWindow), immutable: a push
	// carrying a worker hint goes to that worker's own deque only while the
	// deque holds fewer than window tasks, and spills to the injector past
	// it — so a completing worker keeps its successors hot in cache without
	// hoarding a wide fan that the rest of the pool would have to steal back
	// one CAS at a time (window <= 0 disables the locality path entirely:
	// every release goes through the injector, the central-queue baseline).
	window int64
	// pol is the policy layer: pol.classMask gates worker classes (see pop).
	pol *policyWords
	// classOf maps workerID → class index for the policy gate.
	classOf func(int) int

	// gateMu/gateCond form the class gate: a worker whose class bit is
	// clear in pol.classMask parks here (outside the parking lot and the
	// pending/parked protocol — a gated worker is withdrawn from the pool,
	// not idle). Its deque and submit buffer stay stealable by active
	// workers, and its queued tasks stay counted in pending, so no active
	// worker can park while a gated worker's work remains.
	gateMu   sync.Mutex
	gateCond *sync.Cond

	// side holds one submit buffer per worker: the landing zone for
	// hinted submissions (tasks submitted with a worker's body context,
	// possibly from arbitrary goroutines — the deque bottom is owner-only,
	// this is not). The owner drains its buffer into its deque at the top
	// of pop; thieves with nothing else to do steal from other workers'
	// buffers, so a task parked here by a body that then blocks is still
	// reachable by the rest of the pool.
	side []lockedRing

	local []stealLocal
}

// lockedRing is a mutex-guarded task ring — the injector, or one worker's
// submit buffer. n mirrors q.len() so the refill and pop fast paths and
// thieves' sweeps can skip the lock when the ring is empty (the steady
// state once work is distributed).
type lockedRing struct {
	mu sync.Mutex
	q  taskRing
	n  atomic.Int64
	_  [4]int64 // keep neighbouring rings off one cache line
}

// offer buffers t unless the ring already holds win tasks.
func (b *lockedRing) offer(t *task, win int64) bool {
	b.mu.Lock()
	if int64(b.q.len()) >= win {
		b.mu.Unlock()
		return false
	}
	b.q.push(t)
	b.mu.Unlock()
	b.n.Add(1)
	return true
}

// stealLocal is one worker's owner-only scheduler state, padded to a cache
// line so neighbouring workers don't false-share: the xorshift state behind
// its victim-selection draws, and the idle-search rounds it has left —
// refilled by every dispatch, spent by search (a worker never sleeps with
// any left), forfeited by gating (see search).
type stealLocal struct {
	rand       uint64
	searchLeft int
	_          [6]uint64
}

func newStealScheduler(layout classLayout, window int, pol *policyWords, sig *signals, rec *flightrec.Recorder) *stealScheduler {
	s := &stealScheduler{
		parkLog: parkLog{sig: sig, rec: rec},
		deques:  make([]*wsDeque, layout.workers),
		local:   make([]stealLocal, layout.workers),
		victims: buildVictimPlans(layout),
		window:  int64(window),
		pol:     pol,
		classOf: layout.class,
		side:    make([]lockedRing, layout.workers),
	}
	for i := range s.deques {
		s.deques[i] = newWSDeque()
		s.local[i].rand = mix64(uint64(i) + 0x9e3779b97f4a7c15)
	}
	s.parkCond = sync.NewCond(&s.parkMu)
	s.gateCond = sync.NewCond(&s.gateMu)
	return s
}

// victimPlan is one worker's precomputed steal order: every other worker
// exactly once, fast class first. order[:fast] is the fast-class tier,
// order[fast:] the slow-class one.
type victimPlan struct {
	order []int32
	fast  int
}

// buildVictimPlans precomputes every worker's victim list from the layout.
// Worker IDs are assigned fastest class first, so ascending ID order is
// already tier order. Keeping the plan static (only the per-tier starting
// offset is randomised per sweep) makes the tier ordering a checkable
// invariant rather than an emergent property of per-sweep filtering.
func buildVictimPlans(l classLayout) []victimPlan {
	plans := make([]victimPlan, l.workers)
	for w := range plans {
		p := &plans[w]
		p.order = make([]int32, 0, l.workers-1)
		for v := 0; v < l.workers; v++ {
			if v == w {
				continue
			}
			if v < l.fastN {
				p.fast++
			}
			p.order = append(p.order, int32(v))
		}
	}
	return plans
}

// hinted reports whether workerHint names a worker of this pool whose
// locality path is open (false for no hint, or with locality disabled).
func (s *stealScheduler) hinted(workerHint int) bool {
	return workerHint >= 0 && workerHint < len(s.deques) && s.window > 0
}

// localRoom reports how many more tasks worker w's deque may take through
// the locality path (0 when the hint is invalid or locality is disabled).
func (s *stealScheduler) localRoom(workerHint int) int64 {
	if !s.hinted(workerHint) {
		return 0
	}
	return max(s.window-s.deques[workerHint].size(), 0)
}

func (s *stealScheduler) push(t *task, workerHint int) {
	s.pending.Add(1)
	if s.localRoom(workerHint) > 0 {
		s.deques[workerHint].pushBottom(t)
	} else {
		s.inject(t)
	}
	s.wakeWorkers(1)
}

// inject pushes one task into the injector.
func (s *stealScheduler) inject(t *task) {
	s.inj.mu.Lock()
	s.inj.q.push(t)
	s.inj.mu.Unlock()
	s.inj.n.Add(1)
}

// pushOwned: the completing worker keeps its single ready successor to
// itself, no wakeup. Only taken when the worker's deque is empty AND
// locality is enabled — then the pushed task is exactly what this worker
// pops next, so no other work is hidden from parked thieves by the skipped
// signal. With anything else already queued the caller falls back to the
// waking push, which lets a parked worker come steal the older entries
// (FIFO top) while the owner continues its chain.
func (s *stealScheduler) pushOwned(t *task, workerID int) bool {
	if s.window <= 0 {
		return false
	}
	d := s.deques[workerID]
	if d.size() != 0 {
		return false
	}
	s.pending.Add(1)
	d.pushBottom(t)
	return true
}

// submitLocal: a hinted submission lands in the target worker's submit
// buffer (bounded by the locality window), safe from any goroutine.
// Returns false — caller routes centrally — when the hint is invalid,
// locality is disabled, or the buffer is full.
func (s *stealScheduler) submitLocal(t *task, workerID int) bool {
	if !s.hinted(workerID) || !s.side[workerID].offer(t, s.window) {
		return false
	}
	s.pending.Add(1)
	s.wakeWorkers(1)
	return true
}

// submitLocalBatch takes a window-bounded prefix of ts into the worker's
// submit buffer and returns how many.
func (s *stealScheduler) submitLocalBatch(ts []*task, workerID int) int {
	if !s.hinted(workerID) {
		return 0
	}
	b := &s.side[workerID]
	b.mu.Lock()
	take := int(min(int64(len(ts)), max(s.window-int64(b.q.len()), 0)))
	for _, t := range ts[:take] {
		b.q.push(t)
	}
	b.mu.Unlock()
	if take > 0 {
		b.n.Add(int64(take))
		s.pending.Add(int64(take))
		s.wakeWorkers(take)
	}
	return take
}

// drainSide moves the owner's submit buffer into its own deque (owner
// goroutine only — pushBottom is owner-only).
func (s *stealScheduler) drainSide(w int) {
	b := &s.side[w]
	b.mu.Lock()
	for b.q.len() > 0 {
		s.deques[w].pushBottom(b.q.pop())
		b.n.Add(-1)
	}
	b.mu.Unlock()
}

// stealSide takes one task from another worker's submit buffer — the
// fallback that keeps buffered submissions reachable when their target
// worker is blocked inside a long-running body. Buffers are visited in
// the thief's victim-plan order.
func (s *stealScheduler) stealSide(w int) *task {
	t, _ := s.sweep(w, func(v int) (*task, bool) {
		b := &s.side[v]
		if b.n.Load() == 0 {
			return nil, false
		}
		b.mu.Lock()
		t := b.q.pop()
		b.mu.Unlock()
		if t != nil {
			b.n.Add(-1)
		}
		return t, false
	})
	return t
}

func (s *stealScheduler) pushBatch(ts []*task, workerHint int) {
	if len(ts) == 0 {
		return
	}
	s.pending.Add(int64(len(ts)))
	// Fill the hinted worker's deque up to the locality window, the rest
	// goes to the injector — so a wide fan still spreads across the pool
	// without every other worker stealing it back one task at a time.
	local := 0
	if room := s.localRoom(workerHint); room > 0 {
		local = int(min(int64(len(ts)), room))
		d := s.deques[workerHint]
		for _, t := range ts[:local] {
			d.pushBottom(t)
		}
	}
	if rest := ts[local:]; len(rest) > 0 {
		s.inj.mu.Lock()
		for _, t := range rest {
			s.inj.q.push(t)
		}
		s.inj.mu.Unlock()
		s.inj.n.Add(int64(len(rest)))
	}
	s.wakeWorkers(len(ts))
}

// wakeWorkers unparks one worker (n == 1) or all of them if any are parked.
// The parked check is a lock-free fast path: with no one parked (the busy
// steady state) a push touches no lock at all. It cannot miss a committed
// sleeper: a parker registers in parked (seqcst) before its pending
// re-check, so a pusher whose enqueue the parker did not see always sees
// the parker's registration.
func (s *stealScheduler) wakeWorkers(n int) {
	if s.parked.Load() == 0 {
		return
	}
	s.parkMu.Lock()
	if n == 1 {
		s.parkCond.Signal()
	} else {
		s.parkCond.Broadcast()
	}
	s.parkMu.Unlock()
}

// injectorGrab caps a refill chunk.
const injectorGrab = 32

// refill pulls from the injector on behalf of worker w: it returns one task
// and moves a fair share of the backlog (n/workers, capped) onto w's own
// deque, amortising the injector lock over the whole chunk.
func (s *stealScheduler) refill(w int) *task {
	inj := &s.inj
	if inj.n.Load() == 0 {
		return nil // lock-free fast path for the common empty case
	}
	inj.mu.Lock()
	n := inj.q.len()
	if n == 0 {
		inj.mu.Unlock()
		return nil
	}
	// Never more than n: on a single-worker pool n/1+1 would overshoot the
	// ring.
	grab := min(n/len(s.deques)+1, injectorGrab, n)
	t := inj.q.pop()
	dq := s.deques[w]
	for i := 1; i < grab; i++ {
		dq.pushBottom(inj.q.pop())
	}
	inj.n.Add(int64(-grab))
	inj.mu.Unlock()
	return t
}

// sweep walks w's victims in plan order — fast-class tier, then slow, each
// rotated by a fresh random offset so concurrent thieves don't convoy on
// one victim — asking take for a task from each until one yields. Fast-class
// victims lead because the released successors of critical tasks live there
// and stealing their oldest (least critical) entries keeps the fast LIFO end
// free for the path itself. Every victim is visited at most once and w
// itself never is — the property the sweep test checks. take's second
// result (a lost race) is OR-ed into the sweep's: a caller that came back
// empty-handed but contended must not park on this evidence alone.
func (s *stealScheduler) sweep(w int, take func(v int) (*task, bool)) (*task, bool) {
	p := &s.victims[w]
	contended := false
	for _, tier := range [2][]int32{p.order[:p.fast], p.order[p.fast:]} {
		n := len(tier)
		if n == 0 {
			continue
		}
		off := int(s.nextRand(w) % uint64(n))
		for i := 0; i < n; i++ {
			j := off + i
			if j >= n {
				j -= n
			}
			t, retry := take(int(tier[j]))
			contended = contended || retry
			if t != nil {
				return t, contended
			}
		}
	}
	return nil, contended
}

// nextRand advances worker w's xorshift64 state.
func (s *stealScheduler) nextRand(w int) uint64 {
	x := s.local[w].rand
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.local[w].rand = x
	return x
}

// find is one pass over every source worker w may take work from, nearest
// first: its submit buffer, its deque, the injector, the other workers'
// deques and finally their submit buffers. It does not touch pending (pop
// accounts the task it returns); contended reports that some steal CAS lost
// a race, so an empty-handed caller must not park on this evidence alone.
func (s *stealScheduler) find(w int) (t *task, stolen, contended bool) {
	// Claim the hinted submissions aimed at this worker first — they
	// were routed here for this worker's cache (one lock-free check in
	// the common empty case).
	if s.side[w].n.Load() > 0 {
		s.drainSide(w)
	}
	if t := s.deques[w].popBottom(); t != nil {
		return t, false, false
	}
	if t := s.refill(w); t != nil {
		return t, false, false
	}
	t, contended = s.sweep(w, func(v int) (*task, bool) { return s.deques[v].stealTop() })
	if t == nil {
		t = s.stealSide(w)
	}
	return t, t != nil, contended
}

func (s *stealScheduler) pop(workerID int) (*task, bool) {
	class := s.classOf(workerID)
	loc := &s.local[workerID]
	for {
		// The policy class gate: a worker whose class is inactive parks
		// outside the pool until the mask widens. Anything it still holds
		// locally must be handed off first — pending counts it, but parked
		// peers are only woken by new pushes (pushOwned in particular wakes
		// nobody, betting the owner pops next), so a task left in the gating
		// worker's deque or submit buffer would strand with every
		// active-class worker already asleep. Spill it to the injector and
		// wake for it; a hinted submission landing in the side buffer after
		// the spill is covered by submitLocal's own wake plus stealSide.
		if !s.pol.classActive(class) {
			n := s.evacuate(workerID)
			if n == 0 && s.pending.Load() > 0 {
				// This worker may be here because a pusher's wake signal
				// landed on it while work sits elsewhere (injector, another
				// deque). Pass the wake along rather than absorbing it: the
				// next lot waiter either takes the work or, gated too,
				// relays again until an active-class worker gets it.
				n = 1
			}
			if n > 0 {
				s.wakeWorkers(n)
			}
			// The gate is withdrawal, not idleness: a gated worker never
			// searches, here or on its way back into the pool.
			loc.searchLeft = 0
			if s.gatePark(workerID, class) {
				return nil, false // shutdown wake
			}
			continue
		}
		t, stolen, contended := s.find(workerID)
		if t != nil {
			s.pending.Add(-1)
			loc.searchLeft = searchRounds
			return t, stolen
		}
		if contended {
			// Someone holds work we raced for; try again without parking —
			// but yield first so the holder can make progress when cores
			// are oversubscribed.
			stdruntime.Gosched()
			continue
		}
		// Nothing anywhere. A worker with search budget left — fresh off a
		// task — polls before it sleeps (see search); one that saw work
		// published goes straight back to find.
		if loc.searchLeft > 0 && s.search(workerID) {
			continue
		}
		// Park — unless a task was published since the sweep (the pending
		// re-check under the lock closes the race with a concurrent push,
		// whose pending increment precedes its parked check in seqcst
		// order).
		s.parkMu.Lock()
		woken := false
		slept := false
		for {
			if s.woken.Load() {
				woken = true
				break
			}
			// Register as parked BEFORE re-checking pending: a pusher does
			// pending.Add then parked.Load, so with this order one side
			// always sees the other (seqcst). Checking pending first would
			// let a push slip between the check and the registration with
			// parked still 0 — a lost wakeup.
			s.parked.Add(1)
			idle := s.pending.Load() <= 0
			if idle {
				s.wait(s.parkCond, workerID)
				slept = true
			}
			s.parked.Add(-1)
			if !idle {
				break
			}
		}
		s.parkMu.Unlock()
		if woken {
			return nil, false
		}
		if !slept {
			// pending raced ahead of the enqueue we are about to rescan
			// for; give the publisher a beat instead of spinning the sweep.
			stdruntime.Gosched()
		}
	}
}

// searchRounds is the idle search's budget per busy→idle transition, chosen
// from the sweep in DESIGN.md § WorkSteal › "Parking list": throughput is on
// its plateau from 128 rounds, and 256 is the smallest setting that keeps
// parks under one per thousand tasks with margin. At ~160 ns a round it is
// ~41 µs of otherwise idle CPU — less than the ~67 µs of P that one
// park/wake round trip through the Go scheduler costs. A constant, not a
// knob: nothing in the repo needs a second value.
const searchRounds = 256

// search is the first phase of the idle protocol: a worker whose find came
// back empty and uncontended polls for new work before it parks, because a
// park that is undone microseconds later costs far more of the P
// (cond.Wait → stopm/futex → wakep/futex) than the polling does. A round is
// one runtime.Gosched followed by one load of pending. It yields rather than
// spins so every runnable goroutine — the submitter a wakeup left in this
// P's runnext, an HTTP handler, the recorder's collector — gets the P
// first; at GOMAXPROCS=1 that is what lets the work being searched for be
// published at all. It reports true as soon as pending is positive (the
// caller re-runs find) and false when the budget is spent or the pool is
// waking for shutdown — then the caller falls through to the park
// handshake, which is untouched: the search only delays it, so the
// lost-wakeup argument stands as written, and the handshake's own woken
// check stays the single shutdown exit (a searcher that answered woken by
// going back to find would find nothing, search again, and never reach it).
//
// The budget is loc.searchLeft: only a dispatch refills it to searchRounds,
// and a worker reaches the handshake with none left, so only a worker that
// has dispatched since it last slept may search — one woken by a broadcast
// that finds nothing sleeps again at once, and a herd cannot multiply the
// burn — and a hit that loses the race for its task resumes with what is
// left instead of starting over, so one busy→idle transition never costs
// more than one budget however often pending flickers (a neighbour's
// pushOwned hand-offs raise it for a few hundred nanoseconds per chain
// link). No flight-recorder event marks a search: a
// searching worker is simply awake.
func (s *stealScheduler) search(workerID int) bool {
	loc, sig := &s.local[workerID], &s.sig.workers[workerID]
	atomic.AddUint64(&sig.searches, 1)
	for loc.searchLeft > 0 {
		loc.searchLeft--
		stdruntime.Gosched()
		if s.woken.Load() {
			return false
		}
		if s.pending.Load() > 0 {
			atomic.AddUint64(&sig.searchHits, 1)
			return true
		}
	}
	return false
}

// evacuate spills everything a gating worker still owns — its submit
// buffer and then its deque — to the injector and returns how many tasks
// moved, so an active-class worker can be woken to refill from there.
func (s *stealScheduler) evacuate(workerID int) int {
	if s.side[workerID].n.Load() > 0 {
		s.drainSide(workerID)
	}
	n := 0
	for {
		t := s.deques[workerID].popBottom()
		if t == nil {
			break
		}
		s.inject(t)
		n++
	}
	return n
}

// gatePark blocks workerID at the class gate until its class is active
// again (false) or the pool is waking for shutdown (true).
func (s *stealScheduler) gatePark(workerID, class int) (shutdown bool) {
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	for {
		if s.woken.Load() {
			return true
		}
		if s.pol.classActive(class) {
			return false
		}
		s.wait(s.gateCond, workerID)
	}
}

// policyChanged makes gated workers re-examine the class mask. The
// broadcast is made under the gate mutex so it cannot slip between a
// parking worker's mask check and its Wait.
func (s *stealScheduler) policyChanged() {
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	s.gateCond.Broadcast()
}

func (s *stealScheduler) wake() {
	s.woken.Store(true)
	s.parkMu.Lock()
	s.parkCond.Broadcast()
	s.parkMu.Unlock()
	s.gateMu.Lock()
	s.gateCond.Broadcast()
	s.gateMu.Unlock()
}

// queued: the parking protocol's pending count is already the total over
// every deque, the injector and the submit buffers.
func (s *stealScheduler) queued() int64 { return s.pending.Load() }

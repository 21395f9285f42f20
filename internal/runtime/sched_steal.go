package runtime

import (
	stdruntime "runtime"
	"sync"
	"sync/atomic"
)

// stealScheduler is the multi-core dispatch path: one Chase–Lev deque per
// worker plus one injector ring for tasks released off-pool.
//
//   - A worker that releases a task (successor wakeup in complete) pushes it
//     onto its own deque bottom — no lock, no contention, LIFO locality.
//     Past the locality window the release spills to the injector.
//   - Submitting goroutines (no worker identity) push into the injector; a
//     worker with an empty deque takes one task from it at a time.
//   - A worker with nothing local steals from the top of a victim's deque
//     (FIFO: the oldest task, which heads the largest remaining subtree) —
//     a single CAS, no lock. Every other worker is a victim, swept once
//     from a random offset (see sweep).
//   - Only when everything is empty does a worker go idle: fresh off a
//     task it first searches (a bounded number of yield-and-poll rounds,
//     see search), then parks on the pool's one lot. Pushers bump the
//     pending count before enqueuing and kick the lot after; the lot's
//     re-check is pending > 0.
type stealScheduler struct {
	schedHooks
	lot *lot

	deques []*wsDeque

	// inj is the injector: the landing zone of everything released without
	// a worker hint or past the locality window.
	inj lockedRing

	// pending counts queued tasks (deques + injector + side buffers).
	// Maintained with seqcst atomics purely for the parking protocol; the
	// queues themselves are the source of truth.
	pending atomic.Int64

	// window is the locality window (WithLocalityWindow), immutable: a push
	// carrying a worker hint goes to that worker's own deque only while the
	// deque holds fewer than window tasks, and spills to the injector past
	// it — so a completing worker keeps its successors hot in cache without
	// hoarding a wide fan that the rest of the pool would have to steal back
	// one CAS at a time (window <= 0 disables the locality path entirely:
	// every release goes through the injector, the central-queue baseline).
	window int64

	// side holds one submit buffer per worker: the landing zone for
	// hinted submissions (tasks submitted with a worker's body context,
	// possibly from arbitrary goroutines — the deque bottom is owner-only,
	// this is not). The owner drains its buffer into its deque at the top
	// of take; thieves with nothing else to do steal from other workers'
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
// any left; see search).
type stealLocal struct {
	rand       uint64
	searchLeft int
	_          [6]uint64
}

func newStealScheduler(workers, window int, l *lot) *stealScheduler {
	s := &stealScheduler{
		lot:    l,
		deques: make([]*wsDeque, workers),
		local:  make([]stealLocal, workers),
		window: int64(window),
		side:   make([]lockedRing, workers),
	}
	for i := range s.deques {
		s.deques[i] = newWSDeque()
		s.local[i].rand = mix64(uint64(i) + 0x9e3779b97f4a7c15)
	}
	return s
}

// mix64 is the splitmix64 finaliser: it spreads the worker index into a
// well-mixed, non-zero seed for the worker's xorshift state.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
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
		s.inj.mu.Lock()
		s.inj.q.push(t)
		s.inj.mu.Unlock()
		s.inj.n.Add(1)
	}
	s.lot.kick(1)
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
	s.lot.kick(1)
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
		s.lot.kick(take)
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
// the thief's sweep order.
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
	s.lot.kick(len(ts))
}

// refill takes one task from the injector on behalf of a worker whose own
// deque is empty.
func (s *stealScheduler) refill() *task {
	inj := &s.inj
	if inj.n.Load() == 0 {
		return nil // lock-free fast path for the common empty case
	}
	inj.mu.Lock()
	t := inj.q.pop()
	inj.mu.Unlock()
	if t != nil {
		inj.n.Add(-1)
	}
	return t
}

// sweep walks every other worker once, starting from a fresh random offset
// so concurrent thieves don't convoy on one victim, asking take for a task
// from each until one yields. w itself is never visited — the property the
// sweep test checks. take's second result (a lost race) is OR-ed into the
// sweep's: a caller that came back empty-handed but contended must not park
// on this evidence alone.
func (s *stealScheduler) sweep(w int, take func(v int) (*task, bool)) (*task, bool) {
	workers := len(s.deques)
	n := workers - 1 // the victims are w+1 … w+n, wrapped
	if n == 0 {
		return nil, false
	}
	contended := false
	off := int(s.nextRand(w) % uint64(n))
	for i := 0; i < n; i++ {
		j := off + i
		if j >= n {
			j -= n
		}
		v := w + 1 + j
		if v >= workers {
			v -= workers
		}
		t, retry := take(v)
		contended = contended || retry
		if t != nil {
			return t, contended
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
// deques and finally their submit buffers. It does not touch pending (take
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
	if t := s.refill(); t != nil {
		return t, false, false
	}
	t, contended = s.sweep(w, func(v int) (*task, bool) { return s.deques[v].stealTop() })
	if t == nil {
		t = s.stealSide(w)
	}
	return t, t != nil, contended
}

// take runs find until it yields a task or the pool is provably empty of
// work for this worker: a lost steal race, or a pending count ahead of the
// queues (a push between its increment and its enqueue), means work is on
// its way, so take yields and rescans rather than report nothing.
func (s *stealScheduler) take(workerID int) (*task, bool) {
	for {
		t, stolen, contended := s.find(workerID)
		if t != nil {
			s.pending.Add(-1)
			s.local[workerID].searchLeft = searchRounds
			return t, stolen
		}
		if !contended && s.pending.Load() <= 0 {
			return nil, false
		}
		stdruntime.Gosched()
	}
}

// park searches first — a worker with search budget left, fresh off a
// task, polls before it sleeps (see search) — then sleeps on the lot,
// whose re-check is pending.
func (s *stealScheduler) park(workerID int) bool {
	if s.local[workerID].searchLeft > 0 && s.search(workerID) {
		return true
	}
	return s.lot.park(workerID, func() bool { return s.pending.Load() > 0 })
}

// searchRounds is the idle search's budget per busy→idle transition, chosen
// from a sweep on rt-deps (CHANGES.md keeps the table): throughput is on
// its plateau from 128 rounds, and 256 is the smallest setting that keeps
// parks under one per thousand tasks with margin. At ~160 ns a round it is
// ~41 µs of otherwise idle CPU — less than the ~67 µs of P that one
// park/wake round trip through the Go scheduler costs. A constant, not a
// knob: nothing in the repo needs a second value.
const searchRounds = 256

// search is the first phase of the idle protocol: a worker whose take came
// back empty polls for new work before it parks, because a
// park that is undone microseconds later costs far more of the P
// (cond.Wait → stopm/futex → wakep/futex) than the polling does. A round is
// one runtime.Gosched followed by one load of pending. It yields rather than
// spins so every runnable goroutine — the submitter a wakeup left in this
// P's runnext, an HTTP handler, the recorder's collector — gets the P
// first; at GOMAXPROCS=1 that is what lets the work being searched for be
// published at all. It reports true as soon as pending is positive (the
// caller re-runs take) and false when the budget is spent or the pool is
// waking for shutdown — then the caller falls through to the lot's
// handshake, which is untouched: the search only delays it, so the
// lost-wakeup argument stands as written, and the lot's own woken check
// stays the single shutdown exit (a searcher that answered woken by going
// back to take would find nothing, search again, and never reach it).
//
// The budget is loc.searchLeft: only a dispatch refills it to searchRounds,
// and a worker reaches the handshake with none left, so only a worker that
// has dispatched since it last slept may search — one woken by a broadcast
// that finds nothing sleeps again at once, and a herd cannot multiply the
// burn — and a hit that loses the race for its task resumes with what is
// left instead of starting over, so one busy→idle transition never costs
// more than one budget however often pending flickers (a neighbour's
// chain raises it for a few hundred nanoseconds per link, pushed and popped
// on its own deque). No flight-recorder event marks a search: a searching
// worker is simply awake.
func (s *stealScheduler) search(workerID int) bool {
	loc, sig := &s.local[workerID], &s.lot.sig.workers[workerID]
	atomic.AddUint64(&sig.searches, 1)
	for loc.searchLeft > 0 {
		loc.searchLeft--
		stdruntime.Gosched()
		if s.lot.woken.Load() {
			return false
		}
		if s.pending.Load() > 0 {
			atomic.AddUint64(&sig.searchHits, 1)
			return true
		}
	}
	return false
}

// queued: the parking protocol's pending count is already the total over
// every deque, the injector and the submit buffers.
func (s *stealScheduler) queued() int64 { return s.pending.Load() }

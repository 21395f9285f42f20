package runtime

import (
	"context"
	"math/rand"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// boundedWait fails the test if r does not drain within d. The pool is then
// left running: Shutdown would wait for the stranded tasks too.
func boundedWait(t *testing.T, r *Runtime, d time.Duration, what string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	if err := r.WaitCtx(ctx); err != nil {
		t.Fatalf("%s: %v with %d tasks outstanding", what, err, r.Backlog())
	}
}

// --- wsDeque -----------------------------------------------------------------

func TestWSDequeOwnerLIFOThiefFIFO(t *testing.T) {
	d := newWSDeque()
	tasks := make([]task, 10)
	for i := range tasks {
		tasks[i].id = TaskID(i)
		d.pushBottom(&tasks[i])
	}
	// Owner pops LIFO.
	for i := 9; i >= 5; i-- {
		if tk := d.popBottom(); tk == nil || tk.id != TaskID(i) {
			t.Fatalf("popBottom = %v, want id %d", tk, i)
		}
	}
	// Thieves steal FIFO from the same deque.
	for i := 0; i < 5; i++ {
		tk, retry := d.stealTop()
		if tk == nil || tk.id != TaskID(i) {
			t.Fatalf("stealTop = %v (retry=%v), want id %d", tk, retry, i)
		}
	}
	if tk := d.popBottom(); tk != nil {
		t.Fatalf("drained deque popped %v", tk)
	}
	if tk, _ := d.stealTop(); tk != nil {
		t.Fatalf("drained deque stole %v", tk)
	}
}

func TestWSDequeGrowsAndReleasesArray(t *testing.T) {
	d := newWSDeque()
	const n = wsResetThreshold * 2 // forces several grow steps
	tasks := make([]task, n)
	for i := range tasks {
		tasks[i].id = TaskID(i)
		d.pushBottom(&tasks[i])
	}
	if got := d.arr.Load().size(); got < n {
		t.Fatalf("array size %d after %d pushes", got, n)
	}
	for i := n - 1; i >= 0; i-- {
		if tk := d.popBottom(); tk == nil || tk.id != TaskID(i) {
			t.Fatalf("popBottom after grow lost order at %d", i)
		}
	}
	// The empty pop after draining must drop the grown array so its dead
	// slots are collectable.
	if tk := d.popBottom(); tk != nil {
		t.Fatalf("empty deque popped %v", tk)
	}
	if got := d.arr.Load().size(); got != wsInitialSize {
		t.Fatalf("drained deque kept array of size %d, want reset to %d", got, wsInitialSize)
	}
}

func TestWSDequePopClearsSlots(t *testing.T) {
	d := newWSDeque()
	tasks := make([]task, 8)
	for i := range tasks {
		d.pushBottom(&tasks[i])
	}
	for i := 0; i < len(tasks); i++ {
		d.popBottom()
	}
	a := d.arr.Load()
	for i := range a.slots {
		if a.slots[i].Load() != nil {
			t.Fatalf("slot %d still holds a popped task pointer", i)
		}
	}
}

// Race witness for the lock-free deque itself: one owner mixing pushes and
// LIFO pops against several concurrent thieves. Every task must be taken
// exactly once, whoever wins it. Run with -race.
func TestStressDequeOwnerVsThieves(t *testing.T) {
	const (
		nTasks  = 20000
		thieves = 4
	)
	d := newWSDeque()
	tasks := make([]task, nTasks)
	popped := make([]int32, nTasks)
	var taken int64
	take := func(tk *task) {
		if c := atomic.AddInt32(&popped[tk.id], 1); c != 1 {
			t.Errorf("task %d taken %d times", tk.id, c)
		}
		atomic.AddInt64(&taken, 1)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if tk, _ := d.stealTop(); tk != nil {
					take(tk)
					continue
				}
				select {
				case <-stop:
					return
				default:
					stdruntime.Gosched()
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(7))
	pushed := 0
	for pushed < nTasks {
		burst := 1 + rng.Intn(8)
		for i := 0; i < burst && pushed < nTasks; i++ {
			tasks[pushed].id = TaskID(pushed)
			d.pushBottom(&tasks[pushed])
			pushed++
		}
		if rng.Intn(2) == 0 {
			if tk := d.popBottom(); tk != nil {
				take(tk)
			}
		}
	}
	for atomic.LoadInt64(&taken) < nTasks {
		if tk := d.popBottom(); tk != nil {
			take(tk)
		} else {
			stdruntime.Gosched() // thieves hold the rest
		}
	}
	close(stop)
	wg.Wait()

	for i, c := range popped {
		if c != 1 {
			t.Fatalf("task %d taken %d times", i, c)
		}
	}
}

// --- steal scheduler parking -------------------------------------------------

// The lot's handshake order, driven deterministically: the re-check
// misses the work and the push lands between it and the wait. ready starts
// the pusher's kick and gives it 20 ms before answering idle. Registered
// first, the parker holds the lot lock through its re-check, so the kick
// sees it, waits for the lock and wakes it; with the re-check first, the
// kick reads nobody parked and the parker sleeps forever. Then the same
// park-then-wake on a live WorkSteal pool.
func TestStealWorkersParkWhenIdle(t *testing.T) {
	l, woke := newTestLot(1), make(chan bool)
	go func() {
		woke <- l.park(0, func() bool {
			go l.kick(1)
			time.Sleep(20 * time.Millisecond)
			return false
		})
	}()
	select {
	case ok := <-woke:
		if !ok || l.sig.parks.Load() != 1 || l.sig.wakes.Load() != 1 {
			t.Fatalf("park = %v with %d parks, %d wakes; want true, 1, 1", ok, l.sig.parks.Load(), l.sig.wakes.Load())
		}
	case <-time.After(time.Second):
		t.Fatal("a push between the re-check and the wait was lost: the parker sleeps on")
	}

	const workers = 3
	r := New(WithWorkers(workers))
	defer r.Shutdown()
	asleep := func() bool { return r.lot.parked.Load() == workers }
	waitFor(t, 5*time.Second, asleep, "all idle workers to park")
	mustSubmit(t, r, "t", nil) // Wait hangs unless it wakes a parked worker
	boundedWait(t, r, time.Second, "one push on a parked pool")
	waitFor(t, 5*time.Second, asleep, "workers to re-park after the task")
}

// A fan a worker releases lands on its own deque, so while that worker is
// held by the fan's first leaf only a thief can run the rest. Without deque
// steals the other worker finds nothing and parks, and the first leaf waits
// for a sibling in vain.
func TestStealRunsFanBehindBusyOwner(t *testing.T) {
	r := New(WithWorkers(2))
	defer r.Shutdown()
	gate := make(chan struct{})
	if _, err := r.SubmitCtx(context.Background(), "root", func(context.Context) error { <-gate; return nil }, Out("fan")); err != nil {
		t.Fatal(err)
	}
	var started atomic.Int32
	var lonely atomic.Bool
	for i := 0; i < 8; i++ {
		if _, err := r.SubmitCtx(context.Background(), "leaf", func(context.Context) error {
			if started.Add(1) > 1 {
				return nil
			}
			for deadline := time.Now().Add(2 * time.Second); started.Load() < 2; stdruntime.Gosched() {
				if time.Now().After(deadline) {
					lonely.Store(true)
					return nil
				}
			}
			return nil
		}, In("fan")); err != nil {
			t.Fatal(err)
		}
	}
	close(gate) // root completes with every leaf registered behind it
	r.Wait()
	if lonely.Load() {
		t.Fatal("no second leaf ran while the first held its worker: the fan on its deque was never stolen")
	}
}

// Regression: with a single worker the injector refill used to grab
// n/1+1 tasks — one more than the ring held — pushing a nil task and
// desyncing the length mirror so a later submission was never seen and
// Wait hung forever.
func TestSingleWorkerInjectorRefill(t *testing.T) {
	r := New(WithWorkers(1))
	defer r.Shutdown()
	var ran int32
	for round := 0; round < 3; round++ {
		for i := 0; i < 5; i++ {
			r.SubmitCtx(context.Background(), "t", func(context.Context) error { atomic.AddInt32(&ran, 1); return nil })
		}
		done := make(chan struct{})
		go func() { r.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: Wait hung (injector refill lost a task)", round)
		}
	}
	if got := atomic.LoadInt32(&ran); got != 15 {
		t.Fatalf("ran %d tasks, want 15", got)
	}
}

// TestVictimSweepClassTierProperty is the randomized property test for the
// steal sweep: across random pools of 1–12 workers every worker's full sweep
// visits every other deque exactly once and never its own, and the random
// rotation moves where a worker's sweeps start.
func TestVictimSweepClassTierProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0xA17))
	for trial := 0; trial < 300; trial++ {
		workers := 1 + rng.Intn(12)
		s := newTestSteal(workers, 0)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("trial %d (workers=%d): "+format, append([]any{trial, workers}, args...)...)
		}
		for w := 0; w < workers; w++ {
			firsts := map[int]bool{}
			for sweep := 0; sweep < 16; sweep++ {
				seen := make(map[int]bool, workers)
				first := -1
				s.sweep(w, func(v int) (*task, bool) {
					switch {
					case v == w:
						fail("worker %d sweeps its own deque", w)
					case v < 0 || v >= workers:
						fail("worker %d visits out-of-range victim %d", w, v)
					case seen[v]:
						fail("worker %d visits victim %d twice", w, v)
					}
					if first < 0 {
						first = v
					}
					seen[v] = true
					return nil, false
				})
				if len(seen) != workers-1 {
					fail("worker %d swept %d of %d victims", w, len(seen), workers-1)
				}
				firsts[first] = true
			}
			if workers > 2 && len(firsts) == 1 {
				fail("worker %d started all 16 sweeps at victim %v", w, firsts)
			}
		}
	}
}

// --- taskRing ----------------------------------------------------------------

func TestTaskRingFIFOWraparoundAndRelease(t *testing.T) {
	var r taskRing
	tasks := make([]task, 300)
	next, expect := 0, 0
	// Interleaved pushes and pops force head to wrap several times.
	for expect < len(tasks) {
		for i := 0; i < 7 && next < len(tasks); i++ {
			tasks[next].id = TaskID(next)
			r.push(&tasks[next])
			next++
		}
		for i := 0; i < 5 && expect < next; i++ {
			tk := r.pop()
			if tk == nil || tk.id != TaskID(expect) {
				t.Fatalf("pop = %v, want id %d", tk, expect)
			}
			expect++
		}
	}
	if r.len() != 0 {
		t.Fatalf("ring not drained: %d left", r.len())
	}
	for i := range r.buf {
		if r.buf[i] != nil {
			t.Fatalf("slot %d still holds a popped task pointer", i)
		}
	}
}

func TestTaskRingShrinksWhenMostlyEmpty(t *testing.T) {
	var r taskRing
	n := ringShrinkThreshold * 4
	tasks := make([]task, n)
	for i := range tasks {
		r.push(&tasks[i])
	}
	grown := len(r.buf)
	if grown < n {
		t.Fatalf("ring capacity %d after %d pushes", grown, n)
	}
	for i := 0; i < n; i++ {
		r.pop()
	}
	if len(r.buf) >= grown {
		t.Fatalf("ring kept capacity %d after draining (was %d)", len(r.buf), grown)
	}
}

// --- test constructors -------------------------------------------------------

// newTestLot/newTestSteal/newTestCATS build a lot with a fresh signals
// layer and schedulers on one, the way New wires them; a CATS pool's first
// fastN workers are its fast class.
func newTestLot(workers int) *lot { return newLot(newSignals(workers), nil) }

func newTestSteal(workers, window int) *stealScheduler {
	return newStealScheduler(workers, window, newTestLot(workers))
}

func newTestCATS(workers, fastN int) *catsScheduler {
	return newCATSScheduler(fastN, newTestLot(workers))
}

// --- CATS heap ---------------------------------------------------------------

func TestCATSHeapPopsByPriorityThenSeq(t *testing.T) {
	s := newTestCATS(4, 4)
	mk := func(prio int64, id TaskID) *task { return &task{priority: prio, id: id} }
	ts := []*task{mk(1, 0), mk(9, 1), mk(5, 2), mk(9, 3), mk(0, 4)}
	for _, tk := range ts {
		s.push(tk, -1)
	}
	wantID := []TaskID{1, 3, 2, 0, 4} // prio 9 (id 1 before 3), 5, 1, 0
	for i, want := range wantID {
		tk, _ := pop(s, 0)
		if tk.id != want {
			t.Fatalf("pop %d = id %d, want %d", i, tk.id, want)
		}
	}
}

// One heap entry per ready task. A plain entry whose task is raised while
// queued (linkPreds raises task.priority when a successor registers and
// tells the scheduler nothing) is not re-sorted on the spot: it is refiled
// into the crit heap once, when it surfaces at the plain root, and never
// duplicated — queued() is exactly the tasks not yet popped at every step,
// and a woken pop after the last one reports empty instead of dispatching
// anything a second time.
func TestCATSHeapRaisedEntryRefiledOnce(t *testing.T) {
	s := newTestCATS(4, 4)
	t1, t2, t3 := &task{id: 1}, &task{id: 2}, &task{id: 3}
	for _, tk := range []*task{t1, t2, t3} {
		s.push(tk, -1)
	}
	atomic.StoreInt64(&t2.priority, 10)
	if len(s.crit) != 0 || len(s.plain) != 3 {
		t.Fatalf("a raise moved entries: crit %d, plain %d, want 0, 3", len(s.crit), len(s.plain))
	}
	// t1 is the plain root and is taken as plain work; that surfaces t2,
	// which the next pop refiles and takes from crit; t3 was never raised.
	for i, want := range []struct {
		t        *task
		fromCrit bool
	}{{t1, false}, {t2, true}, {t3, false}} {
		if q := s.queued(); q != int64(3-i) {
			t.Fatalf("queued() = %d before pop %d, want %d", q, i, 3-i)
		}
		tk, _ := pop(s, 0)
		if tk != want.t || s.lastCrit[0] != want.fromCrit {
			t.Fatalf("pop %d = id %d (from crit: %v), want id %d (from crit: %v)",
				i, tk.id, s.lastCrit[0], want.t.id, want.fromCrit)
		}
		s.taskDone(0)
	}
	if q := s.queued(); q != 0 {
		t.Fatalf("queued() = %d after the last pop, want 0", q)
	}
	s.lot.wake()
	if tk, _ := pop(s, 0); tk != nil {
		t.Fatalf("task %d dispatched a second time", tk.id)
	}
}

// --- cross-scheduler wake ----------------------------------------------------

func TestWakeUnblocksPoppingWorkers(t *testing.T) {
	for _, mk := range []func(*lot) scheduler{
		func(l *lot) scheduler { return newFIFOScheduler(l) },
		func(l *lot) scheduler { return newStealScheduler(4, defaultLocalityWindow, l) },
		func(l *lot) scheduler { return newCATSScheduler(4, l) },
	} {
		l := newTestLot(4)
		s := mk(l)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if tk, _ := pop(s, w); tk != nil {
					t.Errorf("pop on empty scheduler returned %v", tk)
				}
			}(w)
		}
		time.Sleep(10 * time.Millisecond) // let them block
		l.wake()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%T: workers still blocked after wake", s)
		}
	}
}

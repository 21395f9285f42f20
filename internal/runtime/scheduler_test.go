package runtime

import (
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

func TestStealWorkersParkWhenIdle(t *testing.T) {
	const workers = 3
	r := New(WithWorkers(workers))
	defer r.Shutdown()
	s, ok := r.sched.(*stealScheduler)
	if !ok {
		t.Fatalf("default scheduler is %T, want *stealScheduler", r.sched)
	}
	// Idle workers must end up parked, not spinning the queues.
	waitFor(t, 5*time.Second, func() bool { return s.parked.Load() == workers },
		"all idle workers to park")
	// A submission must wake a parked worker and run.
	var ran int32
	r.Submit("t", 1, func() { atomic.AddInt32(&ran, 1) })
	r.Wait()
	if atomic.LoadInt32(&ran) != 1 {
		t.Fatalf("task ran %d times", ran)
	}
	waitFor(t, 5*time.Second, func() bool { return s.parked.Load() == workers },
		"workers to re-park after the task")
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
			r.Submit("t", 1, func() { atomic.AddInt32(&ran, 1) })
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
// tiered steal sweep: across random pools (1–12 workers, with and without a
// fast worker class) every worker's full sweep visits each fast-class victim
// before any slow-class one, never visits itself, and covers every other
// deque exactly once. The per-tier random rotation only reorders victims
// within a tier, so the property must hold for every worker on every trial.
func TestVictimSweepClassTierProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0xA17))
	for trial := 0; trial < 300; trial++ {
		workers := 1 + rng.Intn(12)
		fastN := workers
		if workers > 1 && rng.Intn(2) == 0 {
			fastN = 1 + rng.Intn(workers-1)
		}
		s := newTestSteal(classLayout{workers: workers, fastN: fastN}, 0)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("trial %d (workers=%d fastN=%d): "+format, append([]any{trial, workers, fastN}, args...)...)
		}
		for w := 0; w < workers; w++ {
			seen := make(map[int]bool, workers)
			slow := false
			s.sweep(w, func(v int) (*task, bool) {
				switch {
				case v == w:
					fail("worker %d sweeps its own deque", w)
				case v < 0 || v >= workers:
					fail("worker %d visits out-of-range victim %d", w, v)
				case seen[v]:
					fail("worker %d visits victim %d twice", w, v)
				case v < fastN && slow:
					fail("worker %d visits fast victim %d after a slow one", w, v)
				}
				seen[v] = true
				slow = slow || v >= fastN
				return nil, false
			})
			if len(seen) != workers-1 {
				fail("worker %d swept %d of %d victims", w, len(seen), workers-1)
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

// layoutClassCount counts the classes a layout spans (1 for nil classOf).
func layoutClassCount(l classLayout) int {
	n := 1
	for _, c := range l.classOf {
		if c+1 > n {
			n = c + 1
		}
	}
	return n
}

// homogeneousLayout is the layout of a single-class pool.
func homogeneousLayout(workers int) classLayout {
	return classLayout{workers: workers, fastN: workers}
}

// newTestSteal/newTestCATS/newTestFIFO build schedulers with a fresh
// policy/signals pair, the way New wires them.
func newTestSteal(l classLayout, window int) *stealScheduler {
	return newStealScheduler(l, window, newPolicyWords(layoutClassCount(l)), newSignals(l.workers), nil)
}

func newTestCATS(l classLayout) *catsScheduler {
	return newCATSScheduler(l, newPolicyWords(layoutClassCount(l)), newSignals(l.workers), nil)
}

func newTestFIFO(workers int) *fifoScheduler {
	l := homogeneousLayout(workers)
	return newFIFOScheduler(l, newPolicyWords(1), newSignals(workers), nil)
}

// --- CATS heap ---------------------------------------------------------------

func TestCATSHeapPopsByPriorityThenSeq(t *testing.T) {
	s := newTestCATS(homogeneousLayout(4))
	mk := func(prio int64, id TaskID) *task { return &task{priority: prio, id: id} }
	ts := []*task{mk(1, 0), mk(9, 1), mk(5, 2), mk(9, 3), mk(0, 4)}
	for _, tk := range ts {
		s.push(tk, -1)
	}
	wantID := []TaskID{1, 3, 2, 0, 4} // prio 9 (id 1 before 3), 5, 1, 0
	for i, want := range wantID {
		tk, _ := s.pop(0)
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
	s := newTestCATS(homogeneousLayout(4))
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
		tk, _ := s.pop(0)
		if tk != want.t || s.lastCrit[0] != want.fromCrit {
			t.Fatalf("pop %d = id %d (from crit: %v), want id %d (from crit: %v)",
				i, tk.id, s.lastCrit[0], want.t.id, want.fromCrit)
		}
		s.taskDone(0)
	}
	if q := s.queued(); q != 0 {
		t.Fatalf("queued() = %d after the last pop, want 0", q)
	}
	s.wake()
	if tk, _ := s.pop(0); tk != nil {
		t.Fatalf("task %d dispatched a second time", tk.id)
	}
}

// --- cross-scheduler wake ----------------------------------------------------

func TestWakeUnblocksPoppingWorkers(t *testing.T) {
	for _, mk := range []func() scheduler{
		func() scheduler { return newTestFIFO(4) },
		func() scheduler { return newTestSteal(homogeneousLayout(4), defaultLocalityWindow) },
		func() scheduler { return newTestCATS(homogeneousLayout(4)) },
	} {
		s := mk()
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if tk, _ := s.pop(w); tk != nil {
					t.Errorf("pop on empty scheduler returned %v", tk)
				}
			}(w)
		}
		time.Sleep(10 * time.Millisecond) // let them block
		s.wake()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%T: workers still blocked after wake", s)
		}
	}
}

package runtime

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flightrec"
	"repro/internal/flightrec/verify"
)

// --- worker-class option validation -----------------------------------------

func TestWorkerClassResolution(t *testing.T) {
	cases := []struct {
		name    string
		opts    []Option
		workers int
		classes []WorkerClass
	}{
		{
			name:    "default is one homogeneous class",
			opts:    nil,
			workers: 4,
			classes: []WorkerClass{{Name: "worker", Count: 4, Speed: 1}},
		},
		{
			name:    "WithWorkers is a single nominal class",
			opts:    []Option{WithWorkers(6)},
			workers: 6,
			classes: []WorkerClass{{Name: "worker", Count: 6, Speed: 1}},
		},
		{
			name: "classes sort fastest first and keep names",
			opts: []Option{WithWorkerClasses(
				WorkerClass{Name: "little", Count: 4, Speed: 0.5},
				WorkerClass{Name: "big", Count: 2, Speed: 2},
			)},
			workers: 6,
			classes: []WorkerClass{
				{Name: "big", Count: 2, Speed: 2},
				{Name: "little", Count: 4, Speed: 0.5},
			},
		},
		{
			name: "unnamed classes get positional names after sorting",
			opts: []Option{WithWorkerClasses(
				WorkerClass{Count: 1, Speed: 1},
				WorkerClass{Count: 2, Speed: 3},
			)},
			workers: 3,
			classes: []WorkerClass{
				{Name: "class0", Count: 2, Speed: 3},
				{Name: "class1", Count: 1, Speed: 1},
			},
		},
		{
			name: "zero counts and non-positive or non-finite speeds are dropped",
			opts: []Option{WithWorkerClasses(
				WorkerClass{Name: "empty", Count: 0, Speed: 1},
				WorkerClass{Name: "negcount", Count: -3, Speed: 1},
				WorkerClass{Name: "stopped", Count: 2, Speed: 0},
				WorkerClass{Name: "backwards", Count: 2, Speed: -1.5},
				WorkerClass{Name: "nan", Count: 2, Speed: math.NaN()},
				WorkerClass{Name: "inf", Count: 2, Speed: math.Inf(1)},
				WorkerClass{Name: "ok", Count: 3, Speed: 1},
			)},
			workers: 3,
			classes: []WorkerClass{{Name: "ok", Count: 3, Speed: 1}},
		},
		{
			name: "all classes invalid falls back to the homogeneous pool",
			opts: []Option{WithWorkers(5), WithWorkerClasses(
				WorkerClass{Name: "empty", Count: 0, Speed: 1},
			)},
			workers: 5,
			classes: []WorkerClass{{Name: "worker", Count: 5, Speed: 1}},
		},
		{
			name: "WithWorkers after WithWorkerClasses wins",
			opts: []Option{
				WithWorkerClasses(WorkerClass{Name: "big", Count: 2, Speed: 2}),
				WithWorkers(8),
			},
			workers: 8,
			classes: []WorkerClass{{Name: "worker", Count: 8, Speed: 1}},
		},
		{
			name: "WithWorkerClasses after WithWorkers wins",
			opts: []Option{
				WithWorkers(8),
				WithWorkerClasses(WorkerClass{Name: "big", Count: 2, Speed: 2}),
			},
			workers: 2,
			classes: []WorkerClass{{Name: "big", Count: 2, Speed: 2}},
		},
		{
			name: "ignored WithWorkers keeps the classes",
			opts: []Option{
				WithWorkerClasses(WorkerClass{Name: "big", Count: 2, Speed: 2}),
				WithWorkers(0),
			},
			workers: 2,
			classes: []WorkerClass{{Name: "big", Count: 2, Speed: 2}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(tc.opts...)
			defer rt.Shutdown()
			if rt.Workers() != tc.workers {
				t.Fatalf("Workers() = %d, want %d", rt.Workers(), tc.workers)
			}
			got := rt.WorkerClasses()
			if len(got) != len(tc.classes) {
				t.Fatalf("WorkerClasses() = %v, want %v", got, tc.classes)
			}
			for i := range got {
				if got[i] != tc.classes[i] {
					t.Fatalf("class %d = %v, want %v", i, got[i], tc.classes[i])
				}
			}
		})
	}
}

// Classes tying the pool's top speed must all count as fast-class.
func TestFastClassCoversTopSpeedTies(t *testing.T) {
	o := options{workers: 4, classes: []WorkerClass{
		{Name: "a", Count: 2, Speed: 2},
		{Name: "slow", Count: 3, Speed: 1},
		{Name: "b", Count: 1, Speed: 2},
	}}
	classes, classOf, fastN := o.resolveClasses()
	if fastN != 3 {
		t.Fatalf("fastN = %d, want 3 (both speed-2 classes)", fastN)
	}
	if len(classOf) != 6 {
		t.Fatalf("len(classOf) = %d, want 6", len(classOf))
	}
	// Fast classes sort (stably) ahead of slow, so workers 0..2 are fast.
	for w := 0; w < fastN; w++ {
		if classes[classOf[w]].Speed != 2 {
			t.Fatalf("worker %d in class %v, want a fast class", w, classes[classOf[w]])
		}
	}
}

// --- CATS placement (scheduler level, deterministic) -------------------------

// A slow worker must prefer plain work, leave critical work to a fast
// worker that is merely busy (its next pop will take it), and fall back
// to critical work only once the whole fast class is running critical
// tasks.
func TestCATSSlowWorkerPrefersPlainThenFallsBack(t *testing.T) {
	s := newTestCATS(3, 1)
	crit1 := &task{priority: 5, id: 0}
	crit2 := &task{priority: 4, id: 1}
	plain := &task{priority: 0, id: 2}
	s.push(crit1, -1)
	s.push(crit2, -1)
	s.push(plain, -1)

	// The fast worker dispatches the most critical entry: the class is now
	// saturated (its only fast worker runs critical work).
	if tk, _ := pop(s, 0); tk != crit1 {
		t.Fatalf("fast pop = id %d, want the top critical task", tk.id)
	}
	// The slow worker prefers plain work even under saturation.
	if tk, _ := pop(s, 2); tk != plain {
		t.Fatalf("slow pop = id %d, want the plain task", tk.id)
	}
	// Only critical work remains and the fast class is saturated: the slow
	// worker takes it rather than idling the machine.
	if tk, _ := pop(s, 2); tk != crit2 {
		t.Fatalf("saturated slow pop = id %d, want the critical task", tk.id)
	}
	// Completion (taskDone, called by the worker before successors are
	// released) ends the critical dispatch and with it the saturation;
	// a slow worker's taskDone is a no-op on the accounting.
	s.taskDone(2)
	if s.fastCritRunning != 1 {
		t.Fatalf("fastCritRunning = %d after slow taskDone, want 1", s.fastCritRunning)
	}
	s.taskDone(0)
	if s.fastCritRunning != 0 {
		t.Fatalf("fastCritRunning = %d after fast taskDone, want 0", s.fastCritRunning)
	}
	// Plain dispatches leave the saturation count alone.
	s.push(&task{priority: 0, id: 3}, -1)
	if tk, _ := pop(s, 0); tk == nil || tk.id != 3 {
		t.Fatalf("fast pop after saturation = %v, want id 3", tk)
	}
	s.taskDone(0)
	if s.fastCritRunning != 0 {
		t.Fatalf("fastCritRunning = %d after plain dispatch completed, want 0", s.fastCritRunning)
	}
}

// With a fast worker idle in pop, a critical task must reach it, not a
// slow worker that is also waiting.
func TestCATSCriticalTaskGoesToIdleFastWorker(t *testing.T) {
	s := newTestCATS(3, 1)
	fastGot := make(chan *task, 1)
	slowGot := make(chan *task, 1)
	go func() { tk, _ := pop(s, 0); fastGot <- tk }()
	time.Sleep(20 * time.Millisecond) // let the fast worker park first
	go func() { tk, _ := pop(s, 2); slowGot <- tk }()
	time.Sleep(20 * time.Millisecond)

	crit := &task{priority: 7, id: 0}
	s.push(crit, -1)
	select {
	case tk := <-fastGot:
		if tk != crit {
			t.Fatalf("fast worker popped %v, want the critical task", tk)
		}
	case tk := <-slowGot:
		t.Fatalf("slow worker took critical task %v while a fast worker was idle", tk)
	case <-time.After(5 * time.Second):
		t.Fatal("critical task never dispatched")
	}

	// The slow worker is still parked; plain work releases it.
	plain := &task{priority: 0, id: 1}
	s.push(plain, -1)
	select {
	case tk := <-slowGot:
		if tk != plain {
			t.Fatalf("slow worker popped id %d, want the plain task", tk.id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slow worker never released")
	}
}

// A plain entry raised while queued is critical work from then on: a slow
// worker is not handed it while the fast class is unsaturated, the fast
// worker gets it from the crit heap — and once that saturates the class, a
// second raised entry may leak to the slow worker, a dispatch the
// verifier's ClassGating judges from the recorded saturation facts.
func TestCATSRaisedPlainEntryPlacedAsCritical(t *testing.T) {
	rec := flightrec.New(2, flightrec.Options{})
	s := newCATSScheduler(1, newLot(newSignals(2), rec))
	pushRaised := func(id TaskID) *task {
		tk := &task{id: id}
		rec.RecordExternal(flightrec.KindReady, uint64(id), 0, 0)
		s.push(tk, -1)
		atomic.StoreInt64(&tk.priority, 3) // what linkPreds does for a new successor
		return tk
	}
	a := pushRaised(1)
	s.mu.Lock()
	got := s.pick(1)
	crit, plain := len(s.crit), len(s.plain)
	s.mu.Unlock()
	if got != nil || crit != 1 || plain != 0 {
		t.Fatalf("slow pick = %v with crit %d, plain %d; want nothing, the entry refiled (1, 0)", got, crit, plain)
	}
	if tk, _ := pop(s, 0); tk != a || !s.lastCrit[0] {
		t.Fatalf("fast pop = %v (from crit: %v), want the raised task from crit", tk, s.lastCrit[0])
	}
	// The fast class is saturated now: the slow worker may take the next one.
	b := pushRaised(2)
	if tk, _ := pop(s, 1); tk != b {
		t.Fatalf("saturated slow pop = %v, want the second raised task", tk)
	}
	chk := verify.New(verify.Options{})
	chk.Feed(rec.Snapshot(), false)
	chk.Flush()
	if st := chk.Stats(); st.Total != 0 || st.Events != 4 {
		t.Fatalf("verifier on the recorded placement: %+v, want 4 events and no violation", st)
	}
}

// --- CATS placement (runtime level) ------------------------------------------

// placementOf runs fn on rt and reports the Placement its body observed.
type placementProbe struct {
	mu   sync.Mutex
	by   map[string][]Placement // task name -> placements
	fail int32
}

func (p *placementProbe) record(name string, pl Placement, ok bool) {
	if !ok {
		atomic.AddInt32(&p.fail, 1)
		return
	}
	p.mu.Lock()
	p.by[name] = append(p.by[name], pl)
	p.mu.Unlock()
}

// With the pool parked, critical tasks must land on the fast class even
// when slow workers wake first, and once the fast class is saturated
// (its worker running, none idle) further critical tasks must fall back
// to the slow class instead of waiting.
func TestCATSFastPlacementAndSaturationFallback(t *testing.T) {
	rt := New(
		WithScheduler(CATS),
		WithWorkerClasses(
			WorkerClass{Name: "fast", Count: 1, Speed: 1},
			WorkerClass{Name: "slow", Count: 2, Speed: 0.25},
		),
	)
	defer rt.Shutdown()
	time.Sleep(50 * time.Millisecond) // let every worker park

	started := make(chan Placement, 1)
	release := make(chan struct{})
	defer close(release) // before Shutdown: a failed check must not strand the hold
	if _, err := rt.SubmitPriorityCtx(context.Background(), "blocker", 10, func(context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	rt.Wait() // warm-up critical task also proves dispatch works

	// Occupy the fast worker with a long-running critical task.
	_, err := rt.SubmitPriorityCtx(nil, "hold", 10, func(ctx context.Context) error {
		pl, _ := TaskPlacement(ctx)
		started <- pl
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	holdPl := <-started
	if holdPl.ClassName != "fast" {
		t.Fatalf("critical task placed on %q worker %d, want the fast class",
			holdPl.ClassName, holdPl.Worker)
	}

	// Fast class saturated: the next critical task must run on a slow
	// worker rather than wait for the fast one.
	ranOn := make(chan Placement, 1)
	_, err = rt.SubmitPriorityCtx(nil, "spill", 5, func(ctx context.Context) error {
		pl, _ := TaskPlacement(ctx)
		ranOn <- pl
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case pl := <-ranOn:
		if pl.ClassName != "slow" {
			t.Fatalf("saturation spill ran on %q worker %d, want a slow worker",
				pl.ClassName, pl.Worker)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("critical task starved while the fast class was saturated")
	}
}

// End to end: on a chain-plus-fanout DAG the chain (critical, priority-
// hinted) tasks should overwhelmingly run on the fast class while the fan
// tasks keep the slow workers busy. The threshold is far above the fast
// class's 1/3 fair share, so a class-blind scheduler would fail it.
func TestCATSChainRunsOnFastClass(t *testing.T) {
	const chain, fan = 32, 6
	rt := New(
		WithScheduler(CATS),
		WithWorkerClasses(
			WorkerClass{Name: "fast", Count: 1, Speed: 1},
			WorkerClass{Name: "slow", Count: 2, Speed: 0.25},
		),
	)
	defer rt.Shutdown()
	time.Sleep(20 * time.Millisecond)

	probe := &placementProbe{by: map[string][]Placement{}}
	spin := func() {
		x := uint64(1)
		for i := 0; i < 20000; i++ {
			x = x*1664525 + 1013904223
		}
		atomic.AddUint64(&probeSink, x)
	}
	for i := 0; i < chain; i++ {
		i := i
		_, err := rt.SubmitPriorityCtx(nil, "chain", chain-i, func(ctx context.Context) error {
			pl, ok := TaskPlacement(ctx)
			probe.record("chain", pl, ok)
			spin()
			return nil
		}, InOut("chain"), Out(i))
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < fan; f++ {
			_, err := rt.SubmitCtx(nil, "fan", func(ctx context.Context) error {
				pl, ok := TaskPlacement(ctx)
				probe.record("fan", pl, ok)
				spin()
				return nil
			}, In(i))
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	rt.Wait()

	if n := atomic.LoadInt32(&probe.fail); n != 0 {
		t.Fatalf("%d task bodies saw no Placement in their context", n)
	}
	chainPl := probe.by["chain"]
	if len(chainPl) != chain {
		t.Fatalf("recorded %d chain placements, want %d", len(chainPl), chain)
	}
	onFast := 0
	for _, pl := range chainPl {
		if pl.ClassName == "fast" {
			onFast++
		}
	}
	if frac := float64(onFast) / float64(chain); frac < 0.6 {
		t.Fatalf("only %.0f%% of chain tasks ran on the fast class (fair share would be 33%%)",
			frac*100)
	}
}

// probeSink defeats dead-code elimination of the placement-test spins.
var probeSink uint64

// --- heterogeneous stress -----------------------------------------------------

// Every scheduler must run a heterogeneous pool without losing tasks or
// deadlocking, including under concurrent submission.
func TestHeterogeneousPoolAllSchedulers(t *testing.T) {
	for _, kind := range []SchedulerKind{WorkSteal, FIFO, CATS} {
		t.Run(kind.String(), func(t *testing.T) {
			rt := New(
				WithScheduler(kind),
				WithWorkerClasses(
					WorkerClass{Name: "big", Count: 2, Speed: 2},
					WorkerClass{Name: "little", Count: 3, Speed: 0.5},
				),
			)
			const producers, per = 4, 500
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						var deps []Dep
						switch i % 3 {
						case 0:
							deps = []Dep{InOut(p)}
						case 1:
							deps = []Dep{In(p), Out(p*100 + i)}
						}
						if _, err := rt.SubmitPriorityCtx(context.Background(), "t", i%7, func(context.Context) error { return nil }, deps...); err != nil {
							t.Error(err)
							return
						}
					}
				}(p)
			}
			wg.Wait()
			rt.Wait()
			st := rt.Stats()
			if st.Executed != producers*per {
				t.Fatalf("executed %d of %d tasks", st.Executed, producers*per)
			}
			var sum uint64
			for _, c := range st.PerClass {
				sum += c
			}
			if sum != st.Executed {
				t.Fatalf("PerClass sums to %d, Executed is %d", sum, st.Executed)
			}
			rt.Shutdown()
		})
	}
}

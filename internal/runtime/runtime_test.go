package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func eachScheduler(t *testing.T, f func(t *testing.T, kind SchedulerKind)) {
	t.Helper()
	for _, kind := range []SchedulerKind{FIFO, WorkSteal, CATS} {
		t.Run(kind.String(), func(t *testing.T) { f(t, kind) })
	}
}

func TestSingleTaskRuns(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		r := New(WithWorkers(2), WithScheduler(kind))
		defer r.Shutdown()
		var ran int32
		r.Submit("t", 1, func() { atomic.AddInt32(&ran, 1) })
		r.Wait()
		if ran != 1 {
			t.Fatalf("task ran %d times", ran)
		}
	})
}

func TestRAWOrdering(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		r := New(WithWorkers(4), WithScheduler(kind))
		defer r.Shutdown()
		x := 0
		key := "x"
		r.Submit("write", 1, func() { x = 42 }, Out(key))
		got := 0
		r.Submit("read", 1, func() { got = x }, In(key))
		r.Wait()
		if got != 42 {
			t.Fatalf("RAW violated: read %d", got)
		}
	})
}

func TestWARandWAWOrdering(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		r := New(WithWorkers(4), WithScheduler(kind))
		defer r.Shutdown()
		key := "k"
		var log []string
		var mu sync.Mutex
		rec := func(s string) func() {
			return func() {
				mu.Lock()
				log = append(log, s)
				mu.Unlock()
			}
		}
		r.Submit("w1", 1, rec("w1"), Out(key))
		r.Submit("r1", 1, rec("r1"), In(key))
		r.Submit("r2", 1, rec("r2"), In(key))
		r.Submit("w2", 1, rec("w2"), Out(key)) // WAR after r1,r2; WAW after w1
		r.Submit("r3", 1, rec("r3"), In(key))  // RAW after w2
		r.Wait()
		pos := map[string]int{}
		for i, s := range log {
			pos[s] = i
		}
		if !(pos["w1"] < pos["r1"] && pos["w1"] < pos["r2"]) {
			t.Fatalf("RAW violated: %v", log)
		}
		if !(pos["r1"] < pos["w2"] && pos["r2"] < pos["w2"]) {
			t.Fatalf("WAR violated: %v", log)
		}
		if pos["w2"] > pos["r3"] {
			t.Fatalf("RAW after rename violated: %v", log)
		}
	})
}

func TestIndependentTasksRunInParallel(t *testing.T) {
	r := New(WithWorkers(4), WithScheduler(WorkSteal))
	defer r.Shutdown()
	const n = 4
	var mu sync.Mutex
	started := 0
	release := make(chan struct{})
	ready := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		r.Submit("p", 1, func() {
			mu.Lock()
			started++
			mu.Unlock()
			ready <- struct{}{}
			<-release
		})
	}
	for i := 0; i < n; i++ {
		<-ready
	}
	mu.Lock()
	if started != n {
		mu.Unlock()
		t.Fatalf("only %d of %d independent tasks started concurrently", started, n)
	}
	mu.Unlock()
	close(release)
	r.Wait()
}

func TestInOutChainIsSerial(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		r := New(WithWorkers(8), WithScheduler(kind))
		defer r.Shutdown()
		counter := 0 // deliberately unsynchronised: the chain must serialise
		const n = 200
		for i := 0; i < n; i++ {
			r.Submit("inc", 1, func() { counter++ }, InOut("counter"))
		}
		r.Wait()
		if counter != n {
			t.Fatalf("inout chain raced: counter = %d, want %d", counter, n)
		}
	})
}

func TestWaitThenMoreTasks(t *testing.T) {
	r := New(WithWorkers(2), WithScheduler(WorkSteal))
	defer r.Shutdown()
	var a, b int32
	r.Submit("a", 1, func() { atomic.StoreInt32(&a, 1) })
	r.Wait()
	if a != 1 {
		t.Fatalf("first batch incomplete")
	}
	r.Submit("b", 1, func() { atomic.StoreInt32(&b, 1) })
	r.Wait()
	if b != 1 {
		t.Fatalf("second batch incomplete")
	}
}

func TestStatsAndWorkDistribution(t *testing.T) {
	r := New(WithWorkers(4), WithScheduler(WorkSteal))
	const n = 400
	var done int64
	for i := 0; i < n; i++ {
		r.Submit("t", 1, func() {
			// A little spin so multiple workers engage.
			for j := 0; j < 1000; j++ {
				_ = j * j
			}
			atomic.AddInt64(&done, 1)
		})
	}
	r.Wait()
	st := r.Stats()
	r.Shutdown()
	if st.Submitted != n || st.Executed != n {
		t.Fatalf("stats %+v", st)
	}
	var sum uint64
	for _, c := range st.PerWorker {
		sum += c
	}
	if sum != n {
		t.Fatalf("per-worker sum %d != %d", sum, n)
	}
}

func TestPriorityOrderUnderCATS(t *testing.T) {
	// One worker: the CATS queue order is observable directly.
	r := New(WithWorkers(1), WithScheduler(CATS))
	defer r.Shutdown()
	var order []string
	var mu sync.Mutex
	rec := func(s string) func() {
		return func() {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
		}
	}
	gate := make(chan struct{})
	// A blocker task keeps the worker busy while the others queue up.
	r.Submit("blocker", 1, func() { <-gate })
	r.SubmitPriority("low", 1, 0, rec("low"))
	r.SubmitPriority("high", 1, 10, rec("high"))
	r.SubmitPriority("mid", 1, 5, rec("mid"))
	close(gate)
	r.Wait()
	want := []string{"high", "mid", "low"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("CATS order = %v, want %v", order, want)
		}
	}
}

func TestCATSBumpsCriticalPredecessors(t *testing.T) {
	// Submitting a high-priority successor raises the queued predecessor's
	// estimate: pred, the oldest plain entry, is refiled as critical work
	// when the worker comes back and runs before the filler queued beside
	// it. (A raised entry deeper in the plain heap waits for the entries
	// filed before it: there is no re-sort at the raise.)
	r := New(WithWorkers(1), WithScheduler(CATS))
	defer r.Shutdown()
	var order []string
	var mu sync.Mutex
	rec := func(s string) func() {
		return func() {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
		}
	}
	gate := make(chan struct{})
	blocker := make(chan struct{})
	r.Submit("gatekeeper", 1, func() { <-gate })
	// pred is submitted with no priority but blocked behind the gatekeeper's
	// queue position; filler competes with it.
	r.Submit("pred", 1, func() { <-blocker; rec("pred")() }, Out("d"))
	r.Submit("filler", 1, rec("filler"))
	// The critical successor raises pred's bottom-level estimate.
	r.SubmitPriority("succ", 1, 50, rec("succ"), In("d"))
	close(gate)
	close(blocker)
	r.Wait()
	pos := map[string]int{}
	for i, s := range order {
		pos[s] = i
	}
	if pos["pred"] > pos["filler"] {
		t.Fatalf("CATS should run raised pred before filler: %v", order)
	}
}

func TestGraphExport(t *testing.T) {
	r := New(WithWorkers(2), WithScheduler(WorkSteal), WithTraceRetention())
	defer r.Shutdown()
	r.Submit("w", 3, func() {}, Out("x"))
	r.Submit("r1", 1, func() {}, In("x"))
	r.Submit("r2", 1, func() {}, In("x"))
	r.Submit("w2", 2, func() {}, InOut("x"))
	r.Wait()
	g, err := r.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 {
		t.Fatalf("graph size %d", g.Len())
	}
	// w -> r1, w -> r2, r1 -> w2, r2 -> w2, w -> w2.
	if len(g.Node(0).Succs()) != 3 {
		t.Fatalf("w succs = %v", g.Node(0).Succs())
	}
	if len(g.Node(3).Preds()) != 3 {
		t.Fatalf("w2 preds = %v", g.Node(3).Preds())
	}
	if _, err := g.TopoOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestAccessModeStrings(t *testing.T) {
	if ModeIn.String() != "in" || ModeOut.String() != "out" || ModeInOut.String() != "inout" {
		t.Fatalf("mode strings")
	}
	if WorkSteal.String() != "worksteal" || FIFO.String() != "fifo" || CATS.String() != "cats" {
		t.Fatalf("scheduler strings")
	}
	if AccessMode(9).String() == "" || SchedulerKind(9).String() == "" {
		t.Fatalf("unknown enums must format")
	}
}

// Property: for a random chain/fan mix over a handful of keys, parallel
// dataflow execution computes exactly what sequential execution computes.
// This is the fundamental correctness claim of the dataflow runtime.
func TestQuickDataflowMatchesSequential(t *testing.T) {
	type op struct {
		Key  uint8
		Kind uint8 // 0: add, 1: mul (non-commutative composition orders matter)
		Val  uint8
	}
	f := func(ops []op, sched uint8) bool {
		if len(ops) > 120 {
			ops = ops[:120]
		}
		kinds := []SchedulerKind{FIFO, WorkSteal, CATS}
		kind := kinds[int(sched)%len(kinds)]

		// Sequential reference.
		ref := map[uint8]int64{}
		for _, o := range ops {
			k := o.Key % 4
			switch o.Kind % 2 {
			case 0:
				ref[k] += int64(o.Val)
			default:
				ref[k] = ref[k]*3 + int64(o.Val)
			}
		}

		// Parallel dataflow execution. A fixed array gives every key its
		// own address: chains on different keys may run concurrently, and
		// the dataflow ordering serialises accesses within a key.
		var got [4]int64
		r := New(WithWorkers(4), WithScheduler(kind))
		for _, o := range ops {
			o := o
			k := o.Key % 4
			r.Submit("op", 1, func() {
				switch o.Kind % 2 {
				case 0:
					got[k] += int64(o.Val)
				default:
					got[k] = got[k]*3 + int64(o.Val)
				}
			}, InOut(k))
		}
		r.Wait()
		r.Shutdown()
		for k, v := range ref {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the exported graph is always acyclic regardless of the
// dependence pattern thrown at it.
func TestQuickGraphAcyclic(t *testing.T) {
	f := func(deps []uint16) bool {
		if len(deps) > 150 {
			deps = deps[:150]
		}
		r := New(WithWorkers(2), WithScheduler(WorkSteal), WithTraceRetention())
		for _, d := range deps {
			key := d % 5
			switch (d >> 8) % 3 {
			case 0:
				r.Submit("t", 1, func() {}, In(key))
			case 1:
				r.Submit("t", 1, func() {}, Out(key))
			default:
				r.Submit("t", 1, func() {}, InOut(key))
			}
		}
		r.Wait()
		g, gerr := r.Graph()
		r.Shutdown()
		if gerr != nil {
			return false
		}
		_, err := g.TopoOrder()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

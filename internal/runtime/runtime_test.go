package runtime

import (
	"context"
	"fmt"
	"slices"
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
		r.SubmitCtx(context.Background(), "t", func(context.Context) error { atomic.AddInt32(&ran, 1); return nil })
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
		r.SubmitCtx(context.Background(), "write", func(context.Context) error { x = 42; return nil }, Out(key))
		got := 0
		r.SubmitCtx(context.Background(), "read", func(context.Context) error { got = x; return nil }, In(key))
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
		rec := func(s string) Body {
			return func(context.Context) error { mu.Lock(); log = append(log, s); mu.Unlock(); return nil }
		}
		r.SubmitCtx(context.Background(), "w1", rec("w1"), Out(key))
		r.SubmitCtx(context.Background(), "r1", rec("r1"), In(key))
		r.SubmitCtx(context.Background(), "r2", rec("r2"), In(key))
		r.SubmitCtx(context.Background(), "w2", rec("w2"), Out(key)) // WAR after r1,r2; WAW after w1
		r.SubmitCtx(context.Background(), "r3", rec("r3"), In(key))  // RAW after w2
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
		r.SubmitCtx(context.Background(), "p", func(context.Context) error {
			mu.Lock()
			started++
			mu.Unlock()
			ready <- struct{}{}
			<-release
			return nil
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
			r.SubmitCtx(context.Background(), "inc", func(context.Context) error { counter++; return nil }, InOut("counter"))
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
	r.SubmitCtx(context.Background(), "a", func(context.Context) error { atomic.StoreInt32(&a, 1); return nil })
	r.Wait()
	if a != 1 {
		t.Fatalf("first batch incomplete")
	}
	r.SubmitCtx(context.Background(), "b", func(context.Context) error { atomic.StoreInt32(&b, 1); return nil })
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
		r.SubmitCtx(context.Background(), "t", func(context.Context) error {
			// A little spin so multiple workers engage.
			for j := 0; j < 1000; j++ {
				_ = j * j
			}
			atomic.AddInt64(&done, 1)
			return nil
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

// catsOrder runs submit on a one-worker CATS pool behind a gatekeeper that
// holds the worker until everything is queued, and returns the order the
// recorded bodies ran in.
func catsOrder(submit func(r *Runtime, rec func(string) Body)) string {
	r := New(WithWorkers(1), WithScheduler(CATS))
	defer r.Shutdown()
	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	r.SubmitCtx(context.Background(), "gatekeeper", func(context.Context) error { <-gate; return nil })
	submit(r, func(s string) Body {
		return func(context.Context) error { mu.Lock(); order = append(order, s); mu.Unlock(); return nil }
	})
	close(gate)
	r.Wait()
	return fmt.Sprint(order)
}

func TestPriorityOrderUnderCATS(t *testing.T) {
	got := catsOrder(func(r *Runtime, rec func(string) Body) {
		r.SubmitPriorityCtx(context.Background(), "low", 0, rec("low"))
		r.SubmitPriorityCtx(context.Background(), "high", 10, rec("high"))
		r.SubmitPriorityCtx(context.Background(), "mid", 5, rec("mid"))
	})
	if want := "[high mid low]"; got != want {
		t.Fatalf("CATS order = %v, want %v", got, want)
	}
}

func TestCATSBumpsCriticalPredecessors(t *testing.T) {
	// The raise decides order for a predecessor that is not yet ready when
	// its successor registers: pred waits on x, succ (priority 50) raises
	// it, so when x completes pred is pushed as critical work and runs
	// before filler, which was queued before it. Without the raise pred is
	// plain and, filed after filler, runs after it. (An entry already
	// queued is not re-sorted by a raise; the refile tests cover that.)
	got := catsOrder(func(r *Runtime, rec func(string) Body) {
		r.SubmitCtx(context.Background(), "x", rec("x"), Out("x"))
		r.SubmitCtx(context.Background(), "filler", rec("filler"))
		r.SubmitCtx(context.Background(), "pred", rec("pred"), In("x"), Out("d"))
		r.SubmitPriorityCtx(context.Background(), "succ", 50, rec("succ"), In("d"))
	})
	if want := "[x pred succ filler]"; got != want {
		t.Fatalf("CATS should run raised pred before filler: got %v, want %s", got, want)
	}
}

func TestGraphExport(t *testing.T) {
	r := New(WithWorkers(2), WithScheduler(WorkSteal), WithTraceRetention())
	defer r.Shutdown()
	r.SubmitCtx(context.Background(), "w", func(context.Context) error { return nil }, Out("x"))
	r.SubmitCtx(context.Background(), "r1", func(context.Context) error { return nil }, In("x"))
	r.SubmitCtx(context.Background(), "r2", func(context.Context) error { return nil }, In("x"))
	r.SubmitCtx(context.Background(), "w2", func(context.Context) error { return nil }, InOut("x"))
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

// Graph replays registrations in the order the tracker saw them, so with
// two submitters on one key the exported chain is the chain that ran. An
// export sorted by task ID disagrees with it: IDs are allocated before the
// tracker lock is taken, so two submitters' IDs and registrations interleave
// differently.
func TestGraphFollowsRunOrderWithConcurrentSubmitters(t *testing.T) {
	const iterations, perSubmitter = 10, 2000
	bad := 0
	for it := 0; it < iterations; it++ {
		r := New(WithWorkers(2), WithTraceRetention())
		var ran []string // the InOut chain serialises the bodies
		var wg sync.WaitGroup
		for p := 0; p < 2; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < perSubmitter; i++ {
					name := fmt.Sprintf("p%d-%d", p, i)
					if _, err := r.SubmitCtx(context.Background(), name, func(context.Context) error { ran = append(ran, name); return nil }, InOut("k")); err != nil {
						t.Error(err)
						return
					}
				}
			}(p)
		}
		wg.Wait()
		r.Wait()
		g, err := r.Graph()
		r.Shutdown()
		if err != nil {
			t.Fatal(err)
		}
		roots := g.Roots()
		if len(roots) != 1 {
			t.Fatalf("iteration %d: the chain has %d roots", it, len(roots))
		}
		var chain []string
		for id := roots[0]; ; {
			chain = append(chain, g.Node(id).Name)
			succs := g.Node(id).Succs()
			if len(succs) == 0 {
				break
			}
			if len(succs) != 1 {
				t.Fatalf("iteration %d: %s has %d successors in a chain", it, g.Node(id).Name, len(succs))
			}
			id = succs[0]
		}
		if !slices.Equal(chain, ran) {
			bad++
		}
	}
	if bad != 0 {
		t.Fatalf("the exported chain disagreed with the run order in %d of %d iterations", bad, iterations)
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
			r.SubmitCtx(context.Background(), "op", func(context.Context) error {
				switch o.Kind % 2 {
				case 0:
					got[k] += int64(o.Val)
				default:
					got[k] = got[k]*3 + int64(o.Val)
				}
				return nil
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
				r.SubmitCtx(context.Background(), "t", func(context.Context) error { return nil }, In(key))
			case 1:
				r.SubmitCtx(context.Background(), "t", func(context.Context) error { return nil }, Out(key))
			default:
				r.SubmitCtx(context.Background(), "t", func(context.Context) error { return nil }, InOut(key))
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

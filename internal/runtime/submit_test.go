package runtime

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSubmitBatchRunsEverything(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		r := New(WithWorkers(4), WithScheduler(kind))
		defer r.Shutdown()
		const n = 100
		var ran int64
		specs := make([]TaskSpec, n)
		for i := range specs {
			specs[i] = TaskSpec{Name: "t", Cost: 1, Fn: func() { atomic.AddInt64(&ran, 1) }}
		}
		ids, err := r.SubmitBatch(specs)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != n {
			t.Fatalf("got %d ids, want %d", len(ids), n)
		}
		r.Wait()
		if ran != n {
			t.Fatalf("ran %d of %d batch tasks", ran, n)
		}
	})
}

// Dependences between specs of one batch must behave exactly as if the
// tasks had been submitted one by one, in slice order.
func TestSubmitBatchIntraBatchDeps(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		r := New(WithWorkers(8), WithScheduler(kind))
		defer r.Shutdown()
		counter := 0 // unsynchronised on purpose: the chain must serialise
		const n = 150
		specs := make([]TaskSpec, n)
		for i := range specs {
			specs[i] = TaskSpec{Name: "inc", Cost: 1, Fn: func() { counter++ }, Deps: []Dep{InOut("c")}}
		}
		if _, err := r.SubmitBatch(specs); err != nil {
			t.Fatal(err)
		}
		r.Wait()
		if counter != n {
			t.Fatalf("intra-batch inout chain raced: counter = %d, want %d", counter, n)
		}
	})
}

// A batch chained across keys: writer then readers then writer, all in one
// slice, must respect RAW/WAR ordering.
func TestSubmitBatchHazardOrdering(t *testing.T) {
	r := New(WithWorkers(4))
	defer r.Shutdown()
	var mu sync.Mutex
	var log []string
	rec := func(s string) func() {
		return func() {
			mu.Lock()
			log = append(log, s)
			mu.Unlock()
		}
	}
	_, err := r.SubmitBatch([]TaskSpec{
		{Name: "w1", Cost: 1, Fn: rec("w1"), Deps: []Dep{Out("k")}},
		{Name: "r1", Cost: 1, Fn: rec("r1"), Deps: []Dep{In("k")}},
		{Name: "r2", Cost: 1, Fn: rec("r2"), Deps: []Dep{In("k")}},
		{Name: "w2", Cost: 1, Fn: rec("w2"), Deps: []Dep{Out("k")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Wait()
	pos := map[string]int{}
	for i, s := range log {
		pos[s] = i
	}
	if !(pos["w1"] < pos["r1"] && pos["w1"] < pos["r2"] && pos["r1"] < pos["w2"] && pos["r2"] < pos["w2"]) {
		t.Fatalf("batch hazard ordering violated: %v", log)
	}
}

// SubmitBatchCtx keeps nothing of its specs: a caller that reuses them —
// and the dependence slab their Deps share, as a service layer lowering one
// graph after another does — the moment the call returns still has the
// tasks it submitted run their own bodies with their own arguments, in
// their own dependence order, with their own hooks, and the retained trace
// records their own dependences. The middles are Run tasks, the source and
// the sink Body tasks; the sink declares more dependences than a task
// holds inline, so both of setDeps' copies are covered.
func TestSubmitBatchRetainsNoSpec(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		r := New(WithWorkers(4), WithScheduler(kind), WithTraceRetention())
		defer r.Shutdown()
		var mu sync.Mutex
		var ran, hooked []string
		gate := make(chan struct{})
		body := func(name string) Body {
			return func(context.Context) error {
				if name == "src" {
					<-gate
				}
				mu.Lock()
				ran = append(ran, name)
				mu.Unlock()
				return nil
			}
		}
		run := func(ctx context.Context, arg any) error { return body(arg.(string))(ctx) }
		hook := func(name string) func(error) {
			return func(error) {
				mu.Lock()
				hooked = append(hooked, name)
				mu.Unlock()
			}
		}
		const mids = inlineArity + 2
		keys := make([]string, mids)
		slab := []Dep{Out("a")}
		for i := range keys {
			keys[i] = fmt.Sprintf("b%d", i)
			slab = append(slab, In("a"), Out(keys[i]))
		}
		for _, k := range keys {
			slab = append(slab, In(k))
		}
		specs := []TaskSpec{{Name: "src", Body: body("src"), OnDone: hook("src"), Deps: slab[:1:1]}}
		for i := range keys {
			name := "mid-" + keys[i]
			specs = append(specs, TaskSpec{Name: name, Run: run, Arg: name, OnDone: hook(name), Deps: slab[1+2*i : 3+2*i : 3+2*i]})
		}
		specs = append(specs, TaskSpec{Name: "sink", Body: body("sink"), OnDone: hook("sink"), Deps: slab[1+2*mids:]})

		if _, err := r.SubmitBatchCtx(context.Background(), specs); err != nil {
			t.Fatal(err)
		}
		for i := range slab {
			slab[i] = InOut("elsewhere")
		}
		for i := range specs {
			specs[i] = TaskSpec{
				Body:   func(context.Context) error { t.Error("a body overwritten after the submit ran"); return nil },
				Deps:   []Dep{Out("elsewhere")},
				OnDone: func(error) { t.Error("a hook overwritten after the submit ran") },
			}
			if i%2 == 1 { // Run wins over Body: half the specs keep the Body check
				specs[i].Run = func(context.Context, any) error { t.Error("a Run overwritten after the submit ran"); return nil }
				specs[i].Arg = "overwritten"
			}
		}
		close(gate)
		r.Wait()

		mu.Lock()
		defer mu.Unlock()
		if len(ran) != mids+2 || ran[0] != "src" || ran[len(ran)-1] != "sink" {
			t.Fatalf("bodies ran %v, want src, the %d middles, sink", ran, mids)
		}
		got, want := slices.Clone(hooked), slices.Clone(ran)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("hooks ran %v, want one per task of %v", hooked, ran)
		}
		g, err := r.Graph()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range g.Nodes() {
			if n.Name == "sink" && len(n.Preds()) != mids || n.Name == "src" && len(n.Succs()) != mids {
				t.Errorf("the trace gives %s preds %v succs %v, want the %d middles", n.Name, n.Preds(), n.Succs(), mids)
			}
		}
	})
}

// Batch deps must also link against previously-submitted (non-batch)
// tasks, and later Submits must link against batch tasks.
func TestSubmitBatchInteroperatesWithSubmit(t *testing.T) {
	r := New(WithWorkers(4))
	defer r.Shutdown()
	x := 0
	r.Submit("w", 1, func() { x = 41 }, Out("x"))
	got := 0
	if _, err := r.SubmitBatch([]TaskSpec{
		{Name: "bump", Cost: 1, Fn: func() { x++ }, Deps: []Dep{InOut("x")}},
	}); err != nil {
		t.Fatal(err)
	}
	r.Submit("read", 1, func() { got = x }, In("x"))
	r.Wait()
	if got != 42 {
		t.Fatalf("cross-path dependence chain read %d, want 42", got)
	}
}

func TestSubmitBatchAfterShutdown(t *testing.T) {
	r := New(WithWorkers(2))
	r.Shutdown()
	if _, err := r.SubmitBatch([]TaskSpec{{Name: "late", Cost: 1, Fn: func() { t.Error("late batch ran") }}}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("SubmitBatch after Shutdown = %v, want ErrShutdown", err)
	}
}

func TestSubmitBatchEmptyAndNilBody(t *testing.T) {
	r := New(WithWorkers(2))
	defer r.Shutdown()
	ids, err := r.SubmitBatch(nil)
	if err != nil || ids != nil {
		t.Fatalf("empty batch = (%v, %v), want (nil, nil)", ids, err)
	}
	// A nil-body spec is a pure synchronisation point.
	if _, err := r.SubmitBatch([]TaskSpec{{Name: "sync", Cost: 1, Deps: []Dep{InOut("k")}}}); err != nil {
		t.Fatal(err)
	}
	r.Wait()
}

func TestSubmitBatchExceedsQueueBound(t *testing.T) {
	r := New(WithWorkers(2), WithQueueBound(4))
	defer r.Shutdown()
	specs := make([]TaskSpec, 5)
	for i := range specs {
		specs[i] = TaskSpec{Name: "t", Cost: 1, Fn: func() {}}
	}
	if _, err := r.SubmitBatch(specs); err == nil || !strings.Contains(err.Error(), "queue bound") {
		t.Fatalf("oversized batch = %v, want queue-bound error", err)
	}
	// A batch that fits must still go through.
	if _, err := r.SubmitBatch(specs[:4]); err != nil {
		t.Fatal(err)
	}
	r.Wait()
}

// Regression: two concurrent batches under a bound big enough for either
// but not both used to deadlock in hold-and-wait, each clutching part of
// the bound while waiting for slots only the other's completion would
// free. Batch slot acquisition is now atomic, so they must serialise and
// both complete.
func TestConcurrentBatchesUnderQueueBoundNoDeadlock(t *testing.T) {
	r := New(WithWorkers(2), WithQueueBound(4))
	defer r.Shutdown()
	var ran int64
	const producers = 8
	const rounds = 20
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		wg.Add(producers)
		for p := 0; p < producers; p++ {
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					specs := make([]TaskSpec, 3) // 2×3 > bound of 4
					for j := range specs {
						specs[j] = TaskSpec{Name: "t", Cost: 1, Fn: func() { atomic.AddInt64(&ran, 1) }}
					}
					if _, err := r.SubmitBatch(specs); err != nil {
						t.Errorf("SubmitBatch: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		r.Wait()
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("concurrent batches deadlocked under queue bound")
	}
	if got := atomic.LoadInt64(&ran); got != producers*rounds*3 {
		t.Fatalf("ran %d tasks, want %d", got, producers*rounds*3)
	}
}

func TestSubmitBatchCancelledWhileBlocked(t *testing.T) {
	r := New(WithWorkers(2), WithQueueBound(2))
	defer r.Shutdown()
	release := make(chan struct{})
	for i := 0; i < 2; i++ {
		if _, err := r.Submit("hold", 1, func() { <-release }); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := r.SubmitBatchCtx(ctx, []TaskSpec{{Name: "a", Cost: 1}, {Name: "b", Cost: 1}})
		errc <- err
	}()
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked batch on cancel = %v, want context.Canceled", err)
	}
	close(release)
	r.Wait()
}

// Regression: a batch queued behind another batch that is itself blocked on
// slots used to sit on a mutex and ignore its context until the first one
// got through. The multi-slot turnstile is selectable, so the second
// waiter must honour its cancellation while the first is still blocked —
// and nothing may leak once everything drains.
func TestSubmitBatchCancelledBehindBlockedBatch(t *testing.T) {
	r := New(WithWorkers(2), WithQueueBound(2))
	defer r.Shutdown()
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // before Shutdown, so a failed assertion cannot hang the drain
	for i := 0; i < 2; i++ {
		if _, err := r.Submit("hold", 1, func() { <-release }); err != nil {
			t.Fatal(err)
		}
	}
	var ran int32
	specs := func(name string) []TaskSpec {
		fn := func() { atomic.AddInt32(&ran, 1) }
		return []TaskSpec{{Name: name, Cost: 1, Fn: fn}, {Name: name, Cost: 1, Fn: fn}}
	}
	errA := make(chan error, 1)
	go func() {
		_, err := r.SubmitBatch(specs("a"))
		errA <- err
	}()
	// A holds the turnstile once it is inside its slot wait.
	for deadline := time.Now().Add(10 * time.Second); len(r.slotTurn) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("batch A never reached its slot wait")
		}
		time.Sleep(100 * time.Microsecond)
	}
	inner, cancel := context.WithCancel(context.Background())
	ctx := &doneSpy{Context: inner, asked: make(chan struct{})}
	errB := make(chan error, 1)
	go func() {
		_, err := r.SubmitBatchCtx(ctx, specs("b"))
		errB <- err
	}()
	// B asks for Done only once it is past the pre-checks and waiting.
	select {
	case <-ctx.asked:
	case <-time.After(10 * time.Second):
		t.Fatal("batch B never reached a cancellable wait behind batch A")
	}
	cancel()
	select {
	case err := <-errB:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("batch B on cancel = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batch B ignored its cancellation while queued behind blocked batch A")
	}
	select {
	case err := <-errA:
		t.Fatalf("batch A returned (%v) while both slots were still held", err)
	default:
	}
	unblock()
	if err := <-errA; err != nil {
		t.Fatalf("batch A: %v", err)
	}
	r.Wait()
	if got := atomic.LoadInt32(&ran); got != 2 {
		t.Fatalf("ran %d batch tasks, want A's 2 and none of B's", got)
	}
	if b, s, turn := r.Backlog(), len(r.slots), len(r.slotTurn); b != 0 || s != 0 || turn != 0 {
		t.Fatalf("after drain: backlog %d, %d slots held, turnstile %d; want all zero", b, s, turn)
	}
}

// doneSpy is a context that reports the first time anyone asks for its
// Done channel — the observable moment a submission enters a cancellable
// wait.
type doneSpy struct {
	context.Context
	asked chan struct{}
	once  sync.Once
}

func (c *doneSpy) Done() <-chan struct{} {
	c.once.Do(func() { close(c.asked) })
	return c.Context.Done()
}

// The four one-task entry points are wrappers of the one submission path.
// Each must return its own task's ID, reject a pre-cancelled context
// without consuming a slot, and fail with ErrShutdown after Shutdown —
// under every scheduler.
func TestOneTaskEntryPointsThroughUnifiedPath(t *testing.T) {
	type entry struct {
		name string
		// call submits one task named name recording into got; ctx is ignored
		// by the context-free entry points.
		call func(r *Runtime, ctx context.Context, name string, got *atomic.Int64) (TaskID, error)
		ctx  bool
	}
	entries := []entry{
		{name: "Submit", call: func(r *Runtime, _ context.Context, name string, got *atomic.Int64) (TaskID, error) {
			return r.Submit(name, 1, func() { got.Add(1) }, InOut(name))
		}},
		{name: "SubmitPriority", call: func(r *Runtime, _ context.Context, name string, got *atomic.Int64) (TaskID, error) {
			return r.SubmitPriority(name, 1, 3, func() { got.Add(1) }, InOut(name))
		}},
		{name: "SubmitCtx", ctx: true, call: func(r *Runtime, ctx context.Context, name string, got *atomic.Int64) (TaskID, error) {
			return r.SubmitCtx(ctx, name, 1, func(context.Context) error { got.Add(1); return nil }, InOut(name))
		}},
		{name: "SubmitPriorityCtx", ctx: true, call: func(r *Runtime, ctx context.Context, name string, got *atomic.Int64) (TaskID, error) {
			return r.SubmitPriorityCtx(ctx, name, 1, 3, func(context.Context) error { got.Add(1); return nil }, InOut(name))
		}},
	}
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		for _, e := range entries {
			t.Run(e.name, func(t *testing.T) {
				// The registration log keeps every task's ID and name, so the
				// ID the wrapper returned can be checked against the ID the
				// task itself carried — however quickly the pool ran and
				// recycled it.
				r := New(WithWorkers(2), WithScheduler(kind), WithQueueBound(4), WithTraceRetention())
				var got atomic.Int64
				const n = 50
				ids := make(map[TaskID]string, n)
				for i := 0; i < n; i++ {
					name := fmt.Sprintf("%s-%d", e.name, i%3)
					id, err := e.call(r, context.Background(), name, &got)
					if err != nil {
						t.Fatal(err)
					}
					if prev, dup := ids[id]; dup {
						t.Fatalf("ID %d returned twice (%s, %s)", id, prev, name)
					}
					ids[id] = name
				}
				r.Wait()
				if got.Load() != n {
					t.Fatalf("%d of %d bodies ran", got.Load(), n)
				}
				r.traceMu.Lock()
				for _, e := range r.trace {
					if ids[e.id] != e.name {
						t.Fatalf("task %q carries ID %d, but that ID was returned for %q", e.name, e.id, ids[e.id])
					}
					delete(ids, e.id)
				}
				r.traceMu.Unlock()
				if len(ids) != 0 {
					t.Fatalf("%d returned IDs match no task: %v", len(ids), ids)
				}
				if e.ctx {
					dead, cancel := context.WithCancel(context.Background())
					cancel()
					if _, err := e.call(r, dead, "dead", &got); !errors.Is(err, context.Canceled) {
						t.Fatalf("pre-cancelled ctx = %v, want context.Canceled", err)
					}
					if held := len(r.slots); held != 0 {
						t.Fatalf("rejected submission left %d slots held", held)
					}
				}
				r.Shutdown()
				if _, err := e.call(r, context.Background(), "late", &got); !errors.Is(err, ErrShutdown) {
					t.Fatalf("after Shutdown = %v, want ErrShutdown", err)
				}
				if got.Load() != n || r.Backlog() != 0 {
					t.Fatalf("rejected submissions ran or leaked: %d bodies, backlog %d", got.Load(), r.Backlog())
				}
			})
		}
	})
}

// A one-task submission made with a body's context must still take the
// hinted worker's submit buffer after the entry points were folded into the
// batch-shaped path: only the external parents may reach the injector. One
// worker, so nobody can take the children while the parent's body looks.
func TestOneTaskHintedSubmissionBypassesInjector(t *testing.T) {
	r := New(WithWorkers(1))
	defer r.Shutdown()
	s := r.sched.(*stealScheduler)
	noop := func(context.Context) error { return nil }
	const parents = 10
	for i := 0; i < parents; i++ {
		if _, err := r.SubmitCtx(context.Background(), "parent", 1, func(ctx context.Context) error {
			if _, err := r.SubmitCtx(ctx, "child", 1, noop); err != nil {
				return err
			}
			if _, err := r.SubmitPriorityCtx(ctx, "child", 1, 2, noop); err != nil {
				return err
			}
			if buf, inj := s.side[0].n.Load(), s.inj.n.Load(); buf != 2 || inj != 0 {
				return fmt.Errorf("submit buffer holds %d and the injector %d, want 2 and 0: hinted children must go through the submit buffer", buf, inj)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		r.Wait() // the side buffer is empty again, so the window cannot spill
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Executed != 3*parents {
		t.Fatalf("executed %d tasks, want %d", st.Executed, 3*parents)
	}
}

// IDs of one batch are returned in spec order and are distinct.
func TestSubmitBatchIDs(t *testing.T) {
	r := New(WithWorkers(2))
	defer r.Shutdown()
	specs := make([]TaskSpec, 10)
	for i := range specs {
		specs[i] = TaskSpec{Name: "t", Cost: 1}
	}
	ids, err := r.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			t.Fatalf("batch ids not consecutive in spec order: %v", ids)
		}
	}
	r.Wait()
}

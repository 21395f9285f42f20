package runtime

import (
	"context"
	"errors"
	stdruntime "runtime"
	"sync/atomic"
	"testing"
)

// A hinted batch must fill the owner's deque only up to the locality
// window and spill the rest to the injector; a hinted single push against
// a full deque must spill too.
func TestLocalityWindowSpillsToInjector(t *testing.T) {
	const window = 4
	s := newTestSteal(homogeneousLayout(2), window)
	tasks := make([]task, 10)
	ts := make([]*task, len(tasks))
	for i := range tasks {
		tasks[i].id = TaskID(i)
		ts[i] = &tasks[i]
	}
	s.pushBatch(ts, 0)
	if got := s.deques[0].size(); got != window {
		t.Fatalf("owner deque holds %d tasks, want the window %d", got, window)
	}
	if got := s.inj.n.Load(); got != int64(len(ts)-window) {
		t.Fatalf("injector holds %d tasks, want the %d-task spill", got, len(ts)-window)
	}
	extra := &task{id: 99}
	s.push(extra, 0)
	if got := s.deques[0].size(); got != window {
		t.Fatalf("single push grew the full deque to %d, want spill at %d", got, window)
	}
	if got := s.inj.n.Load(); got != int64(len(ts)-window+1) {
		t.Fatalf("injector holds %d after single-push spill, want %d", got, len(ts)-window+1)
	}
	// The locally-kept tasks are the owner's, LIFO: the newest of the
	// local prefix pops first.
	if tk := s.deques[0].popBottom(); tk == nil || tk.id != TaskID(window-1) {
		t.Fatalf("owner pop = %v, want id %d (LIFO over the local prefix)", tk, window-1)
	}
}

// window <= 0 disables the locality path: every hinted push routes to the
// central injector — the baseline the locality experiment compares
// against.
func TestLocalityDisabledRoutesCentrally(t *testing.T) {
	s := newTestSteal(homogeneousLayout(2), 0)
	s.push(&task{}, 0)
	s.pushBatch([]*task{{}, {}}, 0)
	if got := s.deques[0].size(); got != 0 {
		t.Fatalf("disabled locality still placed %d tasks on the owner deque", got)
	}
	if got := s.inj.n.Load(); got != 3 {
		t.Fatalf("injector holds %d tasks, want all 3", got)
	}
}

// An out-of-range hint (a submitting goroutine, hint -1) must never touch
// a deque whatever the window.
func TestLocalityIgnoresInvalidHint(t *testing.T) {
	s := newTestSteal(homogeneousLayout(2), 8)
	s.push(&task{}, -1)
	s.pushBatch([]*task{{}, {}}, 7)
	for w, d := range s.deques {
		if d.size() != 0 {
			t.Fatalf("worker %d deque got tasks from an invalid hint", w)
		}
	}
	if got := s.inj.n.Load(); got != 3 {
		t.Fatalf("injector holds %d tasks, want all 3", got)
	}
}

// The locality hint of a submission context: a body's own context resolves
// to the executing worker, every other context — background, another
// runtime's body context — resolves to no hint.
func TestSubmitHintResolution(t *testing.T) {
	r := New(WithWorkers(2))
	defer r.Shutdown()
	if h := r.submitHint(context.Background()); h != -1 {
		t.Fatalf("background ctx hint = %d, want -1", h)
	}
	own := make(chan int, 1)
	if _, err := r.SubmitCtx(context.Background(), "probe", func(ctx context.Context) error {
		own <- r.submitHint(ctx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if h := <-own; h < 0 || h >= r.Workers() {
		t.Fatalf("body ctx hint = %d, want a worker of this pool", h)
	}

	// A foreign runtime's body context must not leak its worker identity
	// into this pool's deques.
	r2 := New(WithWorkers(2))
	defer r2.Shutdown()
	foreign := make(chan int, 1)
	if _, err := r2.SubmitCtx(context.Background(), "probe", func(ctx context.Context) error {
		foreign <- r.submitHint(ctx) // note: r, not r2
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r2.Wait()
	if h := <-foreign; h != -1 {
		t.Fatalf("foreign body ctx hint = %d, want -1", h)
	}
}

// A hinted submission must land in the target worker's submit buffer, be
// drained by the owner's pop, bound itself by the locality window, and
// stay stealable by other workers.
func TestSubmitLocalSideBuffer(t *testing.T) {
	const window = 4
	s := newTestSteal(homogeneousLayout(2), window)
	tasks := make([]task, window+2)
	for i := range tasks[:window] {
		if !s.submitLocal(&tasks[i], 0) {
			t.Fatalf("submitLocal %d rejected below the window", i)
		}
	}
	if s.submitLocal(&tasks[window], 0) {
		t.Fatal("submitLocal accepted past the window")
	}
	if got := s.side[0].n.Load(); got != window {
		t.Fatalf("side buffer holds %d, want %d", got, window)
	}
	// A thief can take from the buffer directly.
	if tk := s.stealSide(1); tk != &tasks[0] {
		t.Fatalf("stealSide = %v, want the oldest buffered task", tk)
	}
	// The owner's pop drains the rest into its own deque and returns the
	// LIFO end.
	tk, stolen := s.pop(0)
	if tk == nil || stolen {
		t.Fatalf("owner pop = (%v, %v), want a local task", tk, stolen)
	}
	// window buffered, one stolen, one popped: two remain on the deque.
	if got := s.deques[0].size(); got != window-2 {
		t.Fatalf("owner deque holds %d after drain+pop, want %d", got, window-2)
	}
	if got := s.side[0].n.Load(); got != 0 {
		t.Fatalf("side buffer holds %d after drain, want 0", got)
	}
	// Disabled locality refuses outright.
	off := newTestSteal(homogeneousLayout(2), 0)
	if off.submitLocal(&tasks[0], 0) {
		t.Fatal("submitLocal accepted with locality disabled")
	}
	if off.submitLocalBatch([]*task{&tasks[0]}, 0) != 0 {
		t.Fatal("submitLocalBatch accepted with locality disabled")
	}
}

// Regression: a body that derives a context from its body ctx and hands it
// to a child task (or retains it past its own return) must stay fully
// usable — the placement wrapper is immutable, so the chain neither
// crashes the dispatching worker nor loses its values. This used to
// segfault when the wrapper was reused by mutation.
func TestDerivedBodyContextOutlivesBody(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		r := New(WithWorkers(2), WithScheduler(kind))
		defer r.Shutdown()
		type key struct{}
		got := make(chan any, 1)
		if _, err := r.SubmitCtx(context.Background(), "parent", func(ctx context.Context) error {
			derived := context.WithValue(ctx, key{}, "payload")
			// The child's dependence on the parent's key guarantees it
			// dispatches only after the parent completed — exactly the
			// window where a mutated wrapper used to be nil.
			_, err := r.SubmitCtx(derived, "child", func(cctx context.Context) error {
				got <- cctx.Value(key{})
				if _, ok := TaskPlacement(cctx); !ok {
					t.Error("child lost its placement through the derived chain")
				}
				return nil
			}, In("gate"))
			return err
		}, Out("gate")); err != nil {
			t.Fatal(err)
		}
		r.Wait()
		if v := <-got; v != "payload" {
			t.Fatalf("derived ctx value = %v, want payload", v)
		}
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// A chain that grows itself from inside task bodies (each link submits the
// next with its body context — the worker-local fast path) must execute
// every link exactly once, on every scheduler.
func TestSubmitFromBodyChainCompletes(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		r := New(WithWorkers(4), WithScheduler(kind))
		defer r.Shutdown()
		const depth = 200
		var ran int32
		var step func(ctx context.Context) error
		step = func(ctx context.Context) error {
			if atomic.AddInt32(&ran, 1) < depth {
				if _, err := r.SubmitCtx(ctx, "link", step); err != nil {
					return err
				}
			}
			return nil
		}
		if _, err := r.SubmitCtx(context.Background(), "link", step); err != nil {
			t.Fatal(err)
		}
		// The chain keeps outstanding nonzero until the last link, so one
		// Wait covers the whole self-extending chain... as long as each
		// link registers before its parent completes. It does: SubmitCtx
		// runs inside the parent body, strictly before complete.
		r.Wait()
		if got := atomic.LoadInt32(&ran); got != depth {
			t.Fatalf("self-extending chain ran %d links, want %d", got, depth)
		}
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// Race witness for the worker-local push path (run with -race): producer
// tasks submit successors from inside their bodies — landing on the
// executing worker's own deque — while other workers steal and Shutdown
// fires mid-stream. Every accepted task must execute exactly once and
// rejected submissions must never run.
func TestStressSubmitFromBodyDuringShutdown(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		const (
			roots    = 16
			width    = 3
			maxDepth = 6
			// Full tree: roots*(width^(maxDepth+1)-1)/(width-1) ≈ 17.5k
			// cells; leave headroom.
			maxTasks = 32 * 1024
		)
		r := New(WithWorkers(4), WithScheduler(kind))
		cells := make([]int32, maxTasks)
		var next int32
		var accepted int64
		var spawn func(depth int) Body
		spawn = func(depth int) Body {
			cell := atomic.AddInt32(&next, 1) - 1
			return func(ctx context.Context) error {
				atomic.AddInt32(&cells[cell], 1)
				if depth >= maxDepth {
					return nil
				}
				for c := 0; c < width; c++ {
					child := spawn(depth + 1)
					// Body ctx: the worker-local fast path under test.
					if _, err := r.SubmitCtx(ctx, "child", child); err != nil {
						if errors.Is(err, ErrShutdown) {
							return nil
						}
						return err
					}
					atomic.AddInt64(&accepted, 1)
				}
				return nil
			}
		}
		for i := 0; i < roots; i++ {
			if _, err := r.SubmitCtx(context.Background(), "root", spawn(0)); err != nil {
				t.Fatal(err)
			}
			atomic.AddInt64(&accepted, 1)
		}
		// Shutdown races the in-body producers once the tree is growing.
		for atomic.LoadInt64(&accepted) < roots*width*2 {
			stdruntime.Gosched()
		}
		r.Shutdown()

		st := r.Stats()
		acc := atomic.LoadInt64(&accepted)
		if st.Executed != uint64(acc) {
			t.Errorf("accepted %d tasks but executed %d", acc, st.Executed)
		}
		var ran int64
		for i, c := range cells {
			switch c {
			case 0, 1:
				ran += int64(c)
			default:
				t.Errorf("cell %d executed %d times", i, c)
			}
		}
		if ran != acc {
			t.Errorf("cells record %d executions, accepted %d", ran, acc)
		}
		if err := r.Err(); err != nil {
			t.Errorf("stress run captured error: %v", err)
		}
	})
}

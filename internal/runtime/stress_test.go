package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Stress: 8 producers hammer a runtime with a mix of Submit and
// SubmitBatch over a shared key space while Shutdown fires mid-stream.
// Invariants, per scheduler kind and shard count:
//   - every accepted task executes exactly once (no lost tasks, no double
//     execution);
//   - every rejected submission fails with ErrShutdown and its body never
//     runs;
//   - after Shutdown returns, further Submit/SubmitBatch fail fast.
//
// Run with -race: this is the main concurrency witness for the sharded
// tracker's lock ordering and the gate/Shutdown protocol.
func TestStressMixedSubmitBatchShutdown(t *testing.T) {
	for _, shards := range []int{1, 4, 0} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
				stressOnce(t, kind, shards)
			})
		})
	}
}

func stressOnce(t *testing.T, kind SchedulerKind, shards int) {
	const (
		producers = 8
		opsEach   = 120
		batchSize = 5
		maxTasks  = producers * opsEach * batchSize
	)
	r := New(WithWorkers(4), WithScheduler(kind), WithShards(shards))

	// Each task body bumps its own cell; a cell > 1 is a double execution,
	// an accepted cell left at 0 is a lost task.
	cells := make([]int32, maxTasks)
	var next int32 // cell allocator
	var accepted int64
	body := func(cell int32) func() {
		return func() { atomic.AddInt32(&cells[cell], 1) }
	}
	randomDeps := func(rng *rand.Rand) []Dep {
		nd := rng.Intn(3)
		deps := make([]Dep, 0, nd)
		for j := 0; j < nd; j++ {
			key := rng.Intn(16)
			switch rng.Intn(3) {
			case 0:
				deps = append(deps, In(key))
			case 1:
				deps = append(deps, Out(key))
			default:
				deps = append(deps, InOut(key))
			}
		}
		return deps
	}

	var wg sync.WaitGroup
	shutdownDone := make(chan struct{})
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p) + 1))
			for op := 0; op < opsEach; op++ {
				if rng.Intn(4) == 0 { // 25% batches
					n := 1 + rng.Intn(batchSize)
					specs := make([]TaskSpec, n)
					base := atomic.AddInt32(&next, int32(n)) - int32(n)
					for j := range specs {
						specs[j] = TaskSpec{Name: "b", Cost: 1, Fn: body(base + int32(j)), Deps: randomDeps(rng)}
					}
					ids, err := r.SubmitBatch(specs)
					switch {
					case err == nil:
						if len(ids) != n {
							t.Errorf("batch accepted with %d ids, want %d", len(ids), n)
						}
						atomic.AddInt64(&accepted, int64(n))
					case errors.Is(err, ErrShutdown):
						return // rejected batches are all-or-nothing; cells stay 0
					default:
						t.Errorf("SubmitBatch: %v", err)
						return
					}
				} else {
					cell := atomic.AddInt32(&next, 1) - 1
					_, err := r.Submit("s", 1, body(cell), randomDeps(rng)...)
					switch {
					case err == nil:
						atomic.AddInt64(&accepted, 1)
					case errors.Is(err, ErrShutdown):
						return
					default:
						t.Errorf("Submit: %v", err)
						return
					}
				}
			}
		}(p)
	}
	// Shutdown races the producers roughly mid-stream: wait until some
	// tasks were accepted so both pre- and post-close submissions occur.
	go func() {
		defer close(shutdownDone)
		for atomic.LoadInt64(&accepted) < maxTasks/8 {
			stdruntime.Gosched()
		}
		r.Shutdown()
	}()
	wg.Wait()
	<-shutdownDone

	// Shutdown has drained: every accepted task must have run exactly once.
	st := r.Stats()
	acc := atomic.LoadInt64(&accepted)
	if st.Submitted != uint64(acc) {
		t.Errorf("accepted %d tasks but runtime counted %d submitted", acc, st.Submitted)
	}
	if st.Executed != uint64(acc) {
		t.Errorf("accepted %d tasks but executed %d (lost or leaked)", acc, st.Executed)
	}
	var ran int64
	for i, c := range cells {
		switch c {
		case 0, 1:
			ran += int64(c)
		default:
			t.Errorf("task cell %d executed %d times", i, c)
		}
	}
	if ran != acc {
		t.Errorf("cells record %d executions, accepted %d", ran, acc)
	}

	// The pool is closed: everything must fail fast now.
	if _, err := r.Submit("late", 1, func() { t.Error("post-shutdown task ran") }); !errors.Is(err, ErrShutdown) {
		t.Errorf("Submit after stress shutdown = %v, want ErrShutdown", err)
	}
	if _, err := r.SubmitBatch([]TaskSpec{{Name: "late", Cost: 1}}); !errors.Is(err, ErrShutdown) {
		t.Errorf("SubmitBatch after stress shutdown = %v, want ErrShutdown", err)
	}
}

// Stress the multi-shard lock ordering specifically: tasks whose dep lists
// span many keys (hence many shards, locked in ascending order) submitted
// from many goroutines must neither deadlock nor drop dependences.
func TestStressMultiShardLockOrdering(t *testing.T) {
	// Trace retention on: countDeps audits the shard task logs at the end.
	r := New(WithWorkers(4), WithShards(8), WithTraceRetention())
	defer r.Shutdown()
	const producers = 8
	const tasksEach = 200
	// One counter per key; every task inouts three keys, so per-key
	// increments are totally ordered by the tracker if it is correct.
	counters := make([]int64, 8) // unsynchronised: dataflow must serialise per key
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p) * 31))
			for i := 0; i < tasksEach; i++ {
				a, b := rng.Intn(8), rng.Intn(8)
				c := (a + 1 + rng.Intn(7)) % 8
				deps := []Dep{InOut(a), InOut(c)}
				if b != a && b != c {
					deps = append(deps, InOut(b))
				}
				keys := make([]int, 0, 3)
				for _, d := range deps {
					keys = append(keys, d.Key.(int))
				}
				if _, err := r.Submit("t", 1, func() {
					for _, k := range keys {
						counters[k]++
					}
				}, deps...); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	r.Wait()
	var got int64
	for _, c := range counters {
		got += c
	}
	st := r.Stats()
	if st.Executed != producers*tasksEach {
		t.Fatalf("executed %d, want %d", st.Executed, producers*tasksEach)
	}
	// Each task bumped one counter per dep; if any per-key chain raced,
	// increments are lost and the sum comes up short.
	want := countDeps(r)
	if got != want {
		t.Fatalf("per-key increments %d, want %d — per-key serialisation raced", got, want)
	}
}

// Steal-heavy stress: each root task's completion releases a whole fan of
// children at once, pushed onto the completing worker's own deque — the
// other workers must steal them. Shutdown races the producers mid-stream.
// With -race this is the owner-pop vs concurrent-steal vs Shutdown witness
// for the lock-free deques (and exercises the same shape on the other
// schedulers).
func TestStressStealHeavyFanOutShutdown(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		const (
			producers = 4
			groups    = 40
			fan       = 12
			maxTasks  = producers * groups * (fan + 1)
		)
		r := New(WithWorkers(4), WithScheduler(kind))
		cells := make([]int32, maxTasks)
		var next int32
		var accepted int64
		body := func(cell int32) func() {
			return func() {
				for i := 0; i < 200; i++ { // a little spin so fans overlap
					_ = i * i
				}
				atomic.AddInt32(&cells[cell], 1)
			}
		}
		var wg sync.WaitGroup
		shutdownDone := make(chan struct{})
		wg.Add(producers)
		for p := 0; p < producers; p++ {
			go func(p int) {
				defer wg.Done()
				for g := 0; g < groups; g++ {
					key := fmt.Sprintf("fan-%d-%d", p, g)
					cell := atomic.AddInt32(&next, 1) - 1
					if _, err := r.Submit("root", 1, body(cell), Out(key)); err != nil {
						if errors.Is(err, ErrShutdown) {
							return
						}
						t.Errorf("Submit root: %v", err)
						return
					}
					atomic.AddInt64(&accepted, 1)
					for c := 0; c < fan; c++ {
						cell := atomic.AddInt32(&next, 1) - 1
						if _, err := r.Submit("child", 1, body(cell), In(key)); err != nil {
							if errors.Is(err, ErrShutdown) {
								return
							}
							t.Errorf("Submit child: %v", err)
							return
						}
						atomic.AddInt64(&accepted, 1)
					}
				}
			}(p)
		}
		go func() {
			defer close(shutdownDone)
			for atomic.LoadInt64(&accepted) < maxTasks/4 {
				stdruntime.Gosched()
			}
			r.Shutdown()
		}()
		wg.Wait()
		<-shutdownDone

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
				t.Errorf("task cell %d executed %d times", i, c)
			}
		}
		if ran != acc {
			t.Errorf("cells record %d executions, accepted %d", ran, acc)
		}
	})
}

// Regression stress for the CATS publish-window race. Between a pusher
// recording a task ready and its scheduler insert, a concurrent
// registration that finds the task as a predecessor raises its priority.
// That raise used to insert a second heap entry on the spot — EARLY, able
// to dispatch the task to completion and recycling before the original
// push ran, whose late entry then had to be unclaimable. Now the raise only
// writes task.priority and the push's entry is the task's only one, so
// there is no early entry to race; the test pins the outcome: every task
// executes exactly once. The shape maximises raise pressure: many
// producers hammering short chains over a tiny key space, so nearly every
// registration raises a just-released predecessor's bottom level while its
// push is in flight.
func TestStressCATSBumpDuringPublishWindow(t *testing.T) {
	const (
		producers = 8
		opsEach   = 400
		keys      = 4
	)
	r := New(WithWorkers(4), WithScheduler(CATS), WithShards(1))
	defer r.Shutdown()
	cells := make([]int32, producers*opsEach)
	var next int32
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				cell := atomic.AddInt32(&next, 1) - 1
				if _, err := r.Submit("t", 1, func() { atomic.AddInt32(&cells[cell], 1) },
					InOut(i%keys)); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	r.Wait()
	st := r.Stats()
	if st.Executed != producers*opsEach {
		t.Fatalf("executed %d, want %d", st.Executed, producers*opsEach)
	}
	for i, c := range cells {
		if c != 1 {
			t.Fatalf("cell %d executed %d times", i, c)
		}
	}
}

// countDeps sums the dependence counts over the task log.
func countDeps(r *Runtime) int64 {
	var n int64
	all := uint64(1)<<len(r.shards) - 1
	r.lockShards(all)
	defer r.unlockShards(all)
	for _, s := range r.shards {
		for _, t := range s.tasks {
			n += int64(len(t.deps()))
		}
	}
	return n
}

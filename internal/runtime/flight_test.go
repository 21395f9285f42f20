package runtime

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/flightrec"
	"repro/internal/flightrec/verify"
)

// TestFlightRecorderDisabledByDefault: no recorder without the option.
func TestFlightRecorderDisabledByDefault(t *testing.T) {
	r := New(WithWorkers(2))
	defer r.Shutdown()
	if r.FlightRecorder() != nil {
		t.Fatal("recorder present without WithFlightRecorder")
	}
	if _, err := r.Submit("t", 1, func() {}); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if s := r.Stats(); s.FlightEvents != 0 {
		t.Fatalf("FlightEvents = %d without a recorder", s.FlightEvents)
	}
}

// TestFlightRecorderCapturesLifecycle checks that one task's full lifecycle
// shows up on the merged timeline in causal order.
func TestFlightRecorderCapturesLifecycle(t *testing.T) {
	for _, kind := range []SchedulerKind{WorkSteal, FIFO, CATS} {
		t.Run(kind.String(), func(t *testing.T) {
			r := New(WithWorkers(2), WithScheduler(kind), WithFlightRecorder(flightrec.Options{}))
			a := mustSubmit(t, r, "a", nil)
			b := mustSubmit(t, r, "b", []Dep{In("k")})
			_ = a
			r.Wait()
			events := r.FlightRecorder().Snapshot()
			r.Shutdown()

			// Index the lifecycle events per task.
			seen := map[string]uint64{} // "task/kind" → seq
			selfDispatched := map[uint64]bool{}
			for _, e := range events {
				seen[fmt.Sprintf("%d/%s", e.Task, e.Kind)] = e.Seq
				if e.Kind == flightrec.KindComplete && e.Arg2&flightrec.CompleteSelfDispatch != 0 {
					selfDispatched[e.Task] = true
				}
			}
			for _, id := range []TaskID{a, b} {
				ready := seen[fmt.Sprintf("%d/ready", id)]
				disp := seen[fmt.Sprintf("%d/dispatch", id)]
				comp := seen[fmt.Sprintf("%d/complete", id)]
				if ready == 0 || comp == 0 {
					t.Fatalf("task %d lifecycle incomplete: %v", id, seen)
				}
				if disp == 0 {
					// Legal only as an elided chain hand-off, which the
					// complete event must announce.
					if !selfDispatched[uint64(id)] {
						t.Fatalf("task %d has no dispatch event and no self-dispatch flag: %v", id, seen)
					}
					disp = ready // the hand-off dispatch coincides with ready
				}
				if !(ready <= disp && disp < comp) {
					t.Fatalf("task %d out of causal order: ready=%d dispatch=%d complete=%d",
						id, ready, disp, comp)
				}
			}
			if s := func() Stats { var s Stats; r.StatsInto(&s); return s }(); s.FlightEvents == 0 {
				t.Fatal("Stats.FlightEvents stayed 0")
			}
		})
	}
}

// mustSubmit submits one task with the given deps against key "k" writes.
func mustSubmit(t *testing.T, r *Runtime, name string, deps []Dep) TaskID {
	t.Helper()
	if deps == nil {
		deps = []Dep{Out("k")}
	}
	id, err := r.Submit(name, 1, func() {}, deps...)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestFlightPendingTaskGetsSubmitEvent: a task held back by a dependence
// records submit first, ready later.
func TestFlightPendingTaskGetsSubmitEvent(t *testing.T) {
	r := New(WithWorkers(1), WithFlightRecorder(flightrec.Options{}))
	defer r.Shutdown()
	release := make(chan struct{})
	if _, err := r.Submit("w", 1, func() { <-release }, Out("k")); err != nil {
		t.Fatal(err)
	}
	dep, err := r.Submit("r", 1, func() {}, In("k"))
	if err != nil {
		t.Fatal(err)
	}
	var submitSeq, readySeq uint64
	for _, e := range r.FlightRecorder().Snapshot() {
		if e.Task == uint64(dep) && e.Kind == flightrec.KindSubmit {
			submitSeq = e.Seq
		}
	}
	if submitSeq == 0 {
		t.Fatal("pending task has no submit event")
	}
	close(release)
	r.Wait()
	for _, e := range r.FlightRecorder().Snapshot() {
		if e.Task == uint64(dep) && e.Kind == flightrec.KindReady {
			readySeq = e.Seq
		}
	}
	if readySeq <= submitSeq {
		t.Fatalf("ready seq %d not after submit seq %d", readySeq, submitSeq)
	}
}

// logWeakened makes a run whose checker went lax visible. From the first
// ring gap or table reset on, the checker stops judging by an event's
// absence (a dispatch with no ready, a complete with no dispatch), so the
// green tick proves less than it says. Not a failure: a collector
// descheduled past a ring's length on a small host is not a runtime bug.
func logWeakened(t *testing.T, st verify.Stats) {
	t.Helper()
	if st.Gaps != 0 || st.Resets != 0 {
		t.Logf("note: checker went lax (%d gaps, %d resets over %d events): absence-based judgements were off for the rest of the run",
			st.Gaps, st.Resets, st.Events)
	}
}

// TestFlightOnlineVerifierCleanStress runs a dependence-heavy workload on
// every scheduler × class layout with the online invariant checker sampling
// the live recorder, and requires a spotless verdict: any violation is a
// runtime bug (or a recorder ordering bug) by construction.
func TestFlightOnlineVerifierCleanStress(t *testing.T) {
	layouts := []struct {
		name string
		opts []Option
	}{
		{"homogeneous", []Option{WithWorkers(4)}},
		{"hetero", []Option{WithWorkerClasses(
			WorkerClass{Name: "big", Count: 2, Speed: 2},
			WorkerClass{Name: "little", Count: 2, Speed: 1},
		)}},
	}
	for _, kind := range []SchedulerKind{WorkSteal, FIFO, CATS} {
		for _, lay := range layouts {
			t.Run(kind.String()+"/"+lay.name, func(t *testing.T) {
				opts := append([]Option{
					WithScheduler(kind),
					WithFlightRecorder(flightrec.Options{PerWorkerEvents: 1 << 14}),
				}, lay.opts...)
				r := New(opts...)
				online := verify.StartOnline(r.FlightRecorder(), verify.Options{
					StarveBound: 30 * time.Second,
					OnViolation: func(v verify.Violation) {
						t.Errorf("invariant violation: %s task=%d worker=%d: %s",
							v.Invariant, v.Task, v.Worker, v.Detail)
					},
				}, time.Millisecond)

				// Mixed shape: chains (dependences + recycling pressure),
				// fans (steal pressure), priorities (CATS bump pressure),
				// from several submitters.
				var wg sync.WaitGroup
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						key := fmt.Sprintf("chain%d", g)
						for i := 0; i < 400; i++ {
							if _, err := r.SubmitPriority("c", 1, i%3, func() {}, InOut(key)); err != nil {
								t.Error(err)
								return
							}
							if i%8 == 0 {
								fan := fmt.Sprintf("fan%d-%d", g, i)
								if _, err := r.Submit("w", 1, func() {}, Out(fan)); err != nil {
									t.Error(err)
									return
								}
								for j := 0; j < 6; j++ {
									if _, err := r.Submit("r", 1, func() {}, In(fan)); err != nil {
										t.Error(err)
										return
									}
								}
							}
						}
					}(g)
				}
				wg.Wait()
				r.Wait()
				r.Shutdown()
				st := online.Stop()
				logWeakened(t, st)
				if st.Total != 0 {
					t.Fatalf("verifier flagged a clean run: %+v", st)
				}
				if st.Events == 0 {
					t.Fatal("verifier consumed no events")
				}
			})
		}
	}
}

// TestFlightCATSPublishWindowStress leans on the exact interleaving behind
// the PR-5 publish-window race — the ready transition versus a concurrent
// registration raising the priority of the shared predecessor, under heavy
// record recycling — with the checker watching. The raise no longer reaches
// the scheduler (one heap entry per ready task, filed by the push that
// follows the ready event), so the window is closed by construction; the
// test keeps it closed: exactly-once dispatch, violation-free timeline.
func TestFlightCATSPublishWindowStress(t *testing.T) {
	r := New(WithWorkers(4), WithScheduler(CATS), WithQueueBound(512),
		WithFlightRecorder(flightrec.Options{PerWorkerEvents: 1 << 14}))
	online := verify.StartOnline(r.FlightRecorder(), verify.Options{
		OnViolation: func(v verify.Violation) {
			t.Errorf("invariant violation: %s task=%d worker=%d seq=%d: %s",
				v.Invariant, v.Task, v.Worker, v.Seq, v.Detail)
		},
	}, time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			shared := fmt.Sprintf("s%d", g%2) // cross-goroutine raise traffic
			for i := 0; i < 2000; i++ {
				if _, err := r.SubmitPriority("p", 1, i%2, func() {}, InOut(shared)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	r.Wait()
	r.Shutdown()
	st := online.Stop()
	logWeakened(t, st)
	if st.Total != 0 {
		t.Fatalf("publish-window stress flagged: %+v", st)
	}
}

// TestStatsIntoConcurrentCallers: StatsInto reuses the caller's own buffers,
// so two goroutines sampling a live runtime with their own Stats values must
// neither race nor bleed into each other's slices. Each caller checks that
// its PerWorker backing array is allocated once and then reused across calls,
// and that its counters never run backwards.
func TestStatsIntoConcurrentCallers(t *testing.T) {
	r := New(WithWorkers(4), WithQueueBound(256), WithFlightRecorder(flightrec.Options{}))
	defer r.Shutdown()

	done := make(chan struct{})
	var feed sync.WaitGroup
	feed.Add(1)
	go func() {
		defer feed.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := r.Submit("t", 1, func() {}, InOut(fmt.Sprintf("k%d", i%8))); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const samples = 500
	var wg sync.WaitGroup
	bufs := make([]*[]uint64, 2) // each sampler's final PerWorker slice, for cross-talk check
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var s Stats
			var backing *uint64
			var lastExec uint64
			for i := 0; i < samples; i++ {
				r.StatsInto(&s)
				if len(s.PerWorker) != 4 {
					t.Errorf("caller %d: PerWorker len = %d, want 4", c, len(s.PerWorker))
					return
				}
				if backing == nil {
					backing = &s.PerWorker[0]
				} else if backing != &s.PerWorker[0] {
					t.Errorf("caller %d: PerWorker reallocated on call %d — buffer not reused", c, i)
					return
				}
				if s.Executed < lastExec {
					t.Errorf("caller %d: Executed ran backwards: %d then %d", c, lastExec, s.Executed)
					return
				}
				lastExec = s.Executed
			}
			bufs[c] = &s.PerWorker
		}(c)
	}
	wg.Wait()
	close(done)
	feed.Wait()

	if bufs[0] == nil || bufs[1] == nil {
		t.Fatal("a sampler bailed out early")
	}
	if &(*bufs[0])[0] == &(*bufs[1])[0] {
		t.Fatal("the two callers ended up sharing one PerWorker backing array")
	}
	// Quiesced, the per-worker counters must account for every execution.
	r.Wait()
	var final Stats
	r.StatsInto(&final)
	var sum uint64
	for _, n := range final.PerWorker {
		sum += n
	}
	if sum != final.Executed {
		t.Fatalf("per-worker sum %d != executed %d after quiesce", sum, final.Executed)
	}
}

// Stats is a read-time grouping of the one per-worker counter block, so it
// must agree with it exactly — there is no second counter that could drift
// — and the one figure the controller reads beside it, the scheduler's
// queued-task count, must read zero on a drained pool.
func TestDerivedCountersAgree(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		r := New(WithWorkers(4), WithScheduler(kind))
		defer r.Shutdown()
		// Serialized chains with periodic fans, then quiet, so every counter
		// read afterwards is stable. Submitted task by task, a chain link
		// gains its successor while queued — under CATS, a raise of an entry
		// already in the heap.
		for i := 0; i < 300; i++ {
			for c := 0; c < 4; c++ {
				mustSubmit(t, r, "link", []Dep{InOut(c)})
			}
			if i%10 == 0 {
				fan := fmt.Sprintf("fan%d", i)
				mustSubmit(t, r, "root", []Dep{Out(fan)})
				for j := 0; j < 12; j++ {
					mustSubmit(t, r, "leaf", []Dep{In(fan)})
				}
			}
		}
		r.Wait()
		st := r.Stats()
		var steals, executed uint64
		for w := range r.sig.workers {
			steals += r.sig.workers[w].steals
			executed += r.sig.workers[w].executed
		}
		if steals != st.Steals || executed != st.Executed {
			t.Errorf("Σ per-worker steals, executed = %d, %d; Stats has %d, %d", steals, executed, st.Steals, st.Executed)
		}
		if st.Executed != st.Submitted {
			t.Errorf("%d executed of %d submitted on the drained pool", st.Executed, st.Submitted)
		}
		if q := r.sched.queued(); q != 0 {
			t.Errorf("controller's reading of the drained pool: %d queued (want 0)", q)
		}
	})
}

// TestFlightRecorderSubmitAllocationFree: the recorder must not reintroduce
// allocations on the steady-state submit path.
func TestFlightRecorderSubmitAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	r := New(WithWorkers(2), WithQueueBound(256), WithFlightRecorder(flightrec.Options{}))
	defer r.Shutdown()
	// Warm the task pool and the dependence-tracker maps.
	for i := 0; i < 512; i++ {
		if _, err := r.Submit("warm", 1, func() {}, InOut("k")); err != nil {
			t.Fatal(err)
		}
	}
	r.Wait()
	body := func() {}
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := r.Submit("s", 1, body, InOut("k")); err != nil {
			t.Fatal(err)
		}
	})
	r.Wait()
	// Tolerate the same rare pool-refill noise the seed's test allows.
	if allocs > 0.01 {
		t.Fatalf("submit with recorder allocates %.3f/op", allocs)
	}
}

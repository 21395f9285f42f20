package runtime

import (
	"context"
	"fmt"
	"math/rand"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flightrec"
	"repro/internal/flightrec/verify"
)

// The WorkSteal pool's two-phase idle protocol — search, then the park
// handshake (stealScheduler.search / pop) — pushed on from every side the
// design argues about: shutdown with searchers live, lost wakeups across
// the search→park boundary, yielding at GOMAXPROCS=1, the park bound under
// steady load, and the eligibility rules (only after work, never gated).

// searchWall is roughly what a spent search budget costs in wall time
// (searchRounds Gosched rounds on an otherwise idle P).
const searchWall = 40 * time.Microsecond

// spinFor busy-waits for d, yielding between clock reads so it makes
// progress (and lets others) at any GOMAXPROCS.
func spinFor(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
		stdruntime.Gosched()
	}
}

// idleCounters is the idle-protocol slice of Stats, for before/after diffs.
type idleCounters struct{ executed, parks, wakes, searches, hits uint64 }

func readIdle(r *Runtime) idleCounters {
	var s Stats
	r.StatsInto(&s)
	return idleCounters{s.Executed, s.Parks, s.Wakes, s.Searches, s.SearchHits}
}

func (c idleCounters) since(b idleCounters) idleCounters {
	return idleCounters{c.executed - b.executed, c.parks - b.parks, c.wakes - b.wakes,
		c.searches - b.searches, c.hits - b.hits}
}

// shutdownWithin fails the test if Shutdown does not return in d.
func shutdownWithin(t *testing.T, r *Runtime, d time.Duration, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { r.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: Shutdown did not return within %v (searchers livelocked on the shutdown wake?)", what, d)
	}
}

// (a) Shutdown must return promptly with every worker mid-search. Each
// iteration runs one task per worker, released together by a barrier, so
// the whole pool drops into its search phase at the moment Shutdown's Wait
// returns and the shutdown wake lands on live searchers. A searcher that
// answered woken by going back to find (instead of leaving through the park
// path's shutdown exit) spins there forever: nothing is queued at shutdown.
func TestSearchShutdownPromptMidSearch(t *testing.T) {
	const workers = 4
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(procs))
			for i := 0; i < 200; i++ {
				r := New(WithWorkers(workers))
				var arrived atomic.Int32
				specs := make([]TaskSpec, workers)
				for j := range specs {
					specs[j] = TaskSpec{Name: "barrier", Fn: func() {
						arrived.Add(1)
						for arrived.Load() < workers {
							stdruntime.Gosched()
						}
					}}
				}
				if _, err := r.SubmitBatch(specs); err != nil {
					t.Fatal(err)
				}
				shutdownWithin(t, r, 20*time.Second, fmt.Sprintf("iteration %d", i))
				if got := arrived.Load(); got != workers {
					t.Fatalf("iteration %d: %d of %d barrier tasks ran", i, got, workers)
				}
			}
		})
	}
}

// (b) No lost wakeup across the search→park boundary: producers push
// single tasks with seeded random gaps from nothing to four search budgets,
// so pushes land before, inside and just after a worker's search phase and
// on every step of the park handshake behind it. Half the tasks hand their
// body context to a helper goroutine that submits a hinted child (the
// submit-buffer path); with and without a queue bound. Every task must run
// and Wait must return.
func TestSearchNoLostWakeup(t *testing.T) {
	const (
		workers     = 4
		producers   = 4
		perProducer = 300
	)
	for _, bound := range []int{0, 32} {
		t.Run(fmt.Sprintf("bound=%d", bound), func(t *testing.T) {
			opts := []Option{WithWorkers(workers)}
			if bound > 0 {
				opts = append(opts, WithQueueBound(bound))
			}
			r := New(opts...)
			defer shutdownWithin(t, r, 30*time.Second, "after the run")
			var ran, want atomic.Int64
			var helpers, prods sync.WaitGroup
			child := func(context.Context) error { ran.Add(1); return nil }
			for p := 0; p < producers; p++ {
				prods.Add(1)
				go func(seed int64) {
					defer prods.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < perProducer; i++ {
						spinFor(time.Duration(rng.Int63n(int64(4 * searchWall))))
						body := child
						want.Add(1)
						if rng.Intn(2) == 0 {
							// Hinted: the child is submitted with the body's
							// context, from a helper so a full queue bound
							// blocks the helper, never the worker.
							want.Add(1)
							helpers.Add(1)
							body = func(ctx context.Context) error {
								ran.Add(1)
								go func() {
									defer helpers.Done()
									if _, err := r.SubmitCtx(ctx, "hinted", 1, child); err != nil {
										t.Errorf("hinted submit: %v", err)
									}
								}()
								return nil
							}
						}
						if _, err := r.SubmitCtx(context.Background(), "plain", 1, body); err != nil {
							t.Errorf("submit: %v", err)
							return
						}
					}
				}(int64(p) + 1)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			finished := make(chan struct{})
			go func() { prods.Wait(); helpers.Wait(); close(finished) }()
			select {
			case <-finished:
			case <-ctx.Done():
				t.Fatalf("producers stuck: %d of %d tasks ran (a lost wakeup strands a bounded queue)", ran.Load(), want.Load())
			}
			if err := r.WaitCtx(ctx); err != nil {
				t.Fatalf("Wait hung with %d of %d tasks run: %v", ran.Load(), want.Load(), err)
			}
			if ran.Load() != want.Load() {
				t.Fatalf("ran %d tasks, want %d", ran.Load(), want.Load())
			}
		})
	}
}

// (b') The same handshake with real parallelism and a witness: eight
// workers on eight Ps share the one parking lot, the flight recorder is on
// and the online checker watches. Four producers feed chains and fans in
// bursts with seeded idle beats between them, so pushes land on workers
// that are running, searching, mid-handshake and asleep all at once. Every
// task must run, WaitCtx must return, and the verdict must be spotless.
func TestParkHandshakeEightWayRecorderStress(t *testing.T) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(8))
	const (
		workers   = 8
		producers = 4
		bursts    = 60
	)
	r := New(WithWorkers(workers), WithFlightRecorder(flightrec.Options{PerWorkerEvents: 1 << 14}))
	online := verify.StartOnline(r.FlightRecorder(), verify.Options{
		StarveBound: 30 * time.Second,
		OnViolation: func(v verify.Violation) {
			t.Errorf("invariant violation: %s task=%d worker=%d seq=%d: %s",
				v.Invariant, v.Task, v.Worker, v.Seq, v.Detail)
		},
	}, time.Millisecond)
	var ran, want atomic.Int64
	body := func() { ran.Add(1) }
	var prods sync.WaitGroup
	for p := 0; p < producers; p++ {
		prods.Add(1)
		go func(p int) {
			defer prods.Done()
			rng := rand.New(rand.NewSource(int64(p) + 1))
			chain := fmt.Sprintf("chain%d", p)
			for b := 0; b < bursts; b++ {
				fan := fmt.Sprintf("fan%d-%d", p, b)
				specs := []TaskSpec{{Name: "root", Fn: body, Deps: []Dep{Out(fan)}}}
				for i := 0; i < 6; i++ {
					specs = append(specs,
						TaskSpec{Name: "leaf", Fn: body, Deps: []Dep{In(fan)}},
						TaskSpec{Name: "link", Fn: body, Priority: i % 3, Deps: []Dep{InOut(chain)}})
				}
				want.Add(int64(len(specs)))
				// Alternate the two publish shapes: one batch (a broadcast
				// wake-up) and one task at a time (signals).
				if b%2 == 0 {
					if _, err := r.SubmitBatch(specs); err != nil {
						t.Errorf("batch: %v", err)
						return
					}
				} else {
					for i := range specs {
						if _, err := r.SubmitBatch(specs[i : i+1]); err != nil {
							t.Errorf("submit: %v", err)
							return
						}
					}
				}
				spinFor(time.Duration(rng.Int63n(int64(4 * searchWall))))
			}
		}(p)
	}
	prods.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := r.WaitCtx(ctx); err != nil {
		t.Fatalf("Wait hung with %d of %d tasks run: %v", ran.Load(), want.Load(), err)
	}
	idle := readIdle(r)
	t.Logf("%d tasks: %d parks, %d searches (%d hits)", idle.executed, idle.parks, idle.searches, idle.hits)
	shutdownWithin(t, r, 30*time.Second, "after the run")
	st := online.Stop()
	logWeakened(t, st)
	if ran.Load() != want.Load() {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), want.Load())
	}
	if st.Total != 0 || st.Events == 0 {
		t.Fatalf("verifier verdict on a clean run: %+v", st)
	}
}

// (c) A searcher yields. At GOMAXPROCS=1 the only way a search can end in
// a hit is that the submitting goroutine got the P from inside the worker's
// search phase: a closed loop of one-task round trips from outside the pool
// must therefore turn (nearly) every busy→idle transition into a search
// hit, not a park — with a spinning search the submitter would only run
// once the worker gave up and slept.
func TestSearchYieldsToSubmitter(t *testing.T) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(1))
	r := New(WithWorkers(1))
	defer r.Shutdown()
	done := make(chan struct{}, 1)
	trip := func() {
		if _, err := r.Submit("t", 1, func() { done <- struct{}{} }); err != nil {
			t.Fatal(err)
		}
		<-done
	}
	trip() // the worker has now worked: it searches from here on
	const n = 2000
	before := readIdle(r)
	for i := 0; i < n; i++ {
		trip()
	}
	r.Wait()
	d := readIdle(r).since(before)
	if d.hits < n*9/10 || d.parks > n/10 {
		t.Fatalf("%d round trips at GOMAXPROCS=1: %d search hits, %d parks (%d searches) — the submitter is not getting the P from the search phase",
			n, d.hits, d.parks, d.searches)
	}
}

// braidLoop drives the benchmark's rt-deps shape: a closed loop of 16-task
// graphs — four InOut chains of four layers, odd layers also reading the
// neighbour chain's key — with inflight graphs outstanding and grain of
// busy work per body, submitted as one batch each from this goroutine.
func braidLoop(t *testing.T, r *Runtime, graphs, inflight int, grain time.Duration) {
	t.Helper()
	type slot struct {
		specs     [16]TaskSpec
		deps      [16][2]Dep
		remaining atomic.Int32
	}
	var keys [256]any
	for k := range keys {
		keys[k] = k
	}
	free := make(chan *slot, inflight)
	for i := 0; i < inflight; i++ {
		s := &slot{}
		for j := range s.specs {
			s.specs[j] = TaskSpec{
				Name: "braid",
				Fn: func() {
					for t0 := time.Now(); time.Since(t0) < grain; {
					}
				},
				OnDone: func(error) {
					if s.remaining.Add(-1) == 0 {
						free <- s
					}
				},
			}
		}
		free <- s
	}
	rng := rand.New(rand.NewSource(1))
	for g := 0; g < graphs; g++ {
		s := <-free
		base := rng.Intn(len(keys)/4) * 4
		for layer := 0; layer < 4; layer++ {
			for k := 0; k < 4; k++ {
				j := layer*4 + k
				s.deps[j][0] = InOut(keys[base+k])
				n := 1
				if layer%2 == 1 {
					s.deps[j][1] = In(keys[base+(k+1)%4])
					n = 2
				}
				s.specs[j].Deps = s.deps[j][:n]
			}
		}
		s.remaining.Store(int32(len(s.specs)))
		if _, err := r.SubmitBatch(s.specs[:]); err != nil {
			t.Fatal(err)
		}
	}
	r.Wait()
}

// (f) A class-gated worker never searches: the gate is withdrawal, not
// idleness. The mask narrows while every worker is inside a body, so the
// slow workers come back to pop fresh off a task — search budget in hand —
// and must forfeit it at the gate: no search on the way in, none while the
// fast worker runs a load beside them, and none on their way back into the
// pool once the mask widens.
func TestSearchGatedWorkerNeverSearches(t *testing.T) {
	r := New(heteroAdaptiveClasses()) // worker 0 fast, 1–3 slow
	defer r.Shutdown()
	s := r.sched.(*stealScheduler)
	slow := func(counter func(*workerSig) *uint64) (n uint64) {
		for w := 1; w < r.Workers(); w++ {
			n += atomic.LoadUint64(counter(&r.sig.workers[w]))
		}
		return n
	}
	searches := func(w *workerSig) *uint64 { return &w.searches }
	executed := func(w *workerSig) *uint64 { return &w.executed }

	// One body per worker, all held open while the mask narrows.
	var started atomic.Int32
	release := make(chan struct{})
	for i := 0; i < r.Workers(); i++ {
		if _, err := r.Submit("hold", 1, func() { started.Add(1); <-release }); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return int(started.Load()) == r.Workers() }, "every worker to be inside a body")
	before := slow(searches)
	r.pol.setClassMask(1)
	r.sched.policyChanged()
	close(release)
	r.Wait()

	// The fast worker alone serves a load; the slow class sits at the gate.
	ran := slow(executed)
	for i := 0; i < 400; i++ {
		if _, err := r.Submit("t", 1, func() { spinFor(5 * time.Microsecond) }); err != nil {
			t.Fatal(err)
		}
	}
	r.Wait()
	if got := slow(executed); got != ran {
		t.Fatalf("gated slow workers executed %d tasks", got-ran)
	}
	if got := slow(searches); got != before {
		t.Fatalf("slow workers recorded %d searches on their way to, or at, the gate", got-before)
	}

	// Widen the mask: the slow workers rejoin through find → park, still
	// without a search, and the pool stays live.
	r.pol.setClassMask(r.pol.fullMask)
	r.sched.policyChanged()
	waitFor(t, 5*time.Second, func() bool { return int(s.parked.Load()) == r.Workers() }, "the ungated pool to park")
	if got := slow(searches); got != before {
		t.Fatalf("slow workers searched %d times on their way back from the gate", got-before)
	}
	for i := 0; i < 400; i++ {
		if _, err := r.Submit("t", 1, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	r.Wait()
}

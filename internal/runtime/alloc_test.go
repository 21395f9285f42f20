package runtime

import (
	"fmt"
	"runtime/debug"
	"testing"
)

// The hot-path budgets the tests below enforce. Submit must be
// allocation-free in steady state (the headline zero-alloc claim);
// SubmitBatch is allowed exactly the allocations its API requires — the
// returned ID slice plus one internal scratch — independent of batch size.
const (
	submitAllocBudget = 0.01 // amortized allocs per Submit→execute→complete
	batchAllocBudget  = 3    // allocs per SubmitBatch call, any batch size
)

// withGCOff disables the garbage collector for the duration of fn so
// AllocsPerRun measurements are not perturbed by a GC emptying the task
// freelist mid-run (sync.Pool contents are collectable by design).
func withGCOff(fn func()) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn()
}

// skipUnderRace skips allocation-budget tests in -race builds: the race
// detector's sync.Pool instrumentation drops pooled items on purpose, so
// the freelist cannot reach its allocation-free steady state there.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector (sync.Pool drops items)")
	}
}

// Steady state, retention off, deps ≤ inlineArity: the full
// submit→execute→complete lifecycle must run without heap allocation —
// records come from the freelist, dependences and successors stay in the
// inline arrays, the placement context is the worker's reused wrapper, and
// complete recycles everything it took.
func TestSubmitPathAllocationFree(t *testing.T) {
	skipUnderRace(t)
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		withGCOff(func() {
			r := New(WithWorkers(2), WithScheduler(kind))
			defer r.Shutdown()
			noop := func() {}
			// A chain (worst-case tracker pressure), a read fan, and a
			// 4-dep mixed shape — all within the inline arity.
			chain := []Dep{InOut("chain")}
			read := []Dep{In("chain")}
			// All-writer keys so per-key tracker state stays bounded (a
			// reader set with no writer would grow its tail forever).
			mixed := []Dep{InOut("chain"), InOut("a"), InOut("b"), Out("c")}
			submitAll := func() {
				for i := 0; i < 8; i++ {
					if _, err := r.Submit("t", 1, noop, chain...); err != nil {
						t.Fatal(err)
					}
					if _, err := r.Submit("t", 1, noop, read...); err != nil {
						t.Fatal(err)
					}
					if _, err := r.Submit("t", 1, noop, mixed...); err != nil {
						t.Fatal(err)
					}
				}
				r.Wait()
			}
			// Warm the freelist, the per-key tracker state, and the worker
			// scratch buffers to their steady-state capacities.
			for i := 0; i < 32; i++ {
				submitAll()
			}
			const perRun = 24 // tasks per AllocsPerRun invocation
			avg := testing.AllocsPerRun(100, submitAll)
			if per := avg / perRun; per > submitAllocBudget {
				t.Fatalf("%v: %.3f allocs per submitted task in steady state, budget %v (avg %.1f per run of %d)",
					kind, per, submitAllocBudget, avg, perRun)
			}
		})
	})
}

// SubmitBatch must stay within its fixed per-call budget regardless of the
// batch width: the returned IDs and one task scratch, nothing per task.
func TestSubmitBatchAllocBudget(t *testing.T) {
	skipUnderRace(t)
	withGCOff(func() {
		r := New(WithWorkers(2))
		defer r.Shutdown()
		const width = 32
		specs := make([]TaskSpec, width)
		noop := func() {}
		for i := range specs {
			specs[i] = TaskSpec{Name: "b", Cost: 1, Fn: noop, Deps: []Dep{InOut(i % 4)}}
		}
		run := func() {
			if _, err := r.SubmitBatch(specs); err != nil {
				t.Fatal(err)
			}
			r.Wait()
		}
		for i := 0; i < 32; i++ {
			run() // warm freelist and tracker
		}
		avg := testing.AllocsPerRun(100, run)
		if avg > batchAllocBudget {
			t.Fatalf("%.1f allocs per %d-task SubmitBatch, budget %d", avg, width, batchAllocBudget)
		}
	})
}

// Recycled records must never alias task identities: IDs come from the
// monotone sequence allocator, not the freelist, so however often records
// are reused every submission observes a fresh, unique ID.
func TestRecycledRecordsGetFreshIDs(t *testing.T) {
	r := New(WithWorkers(2))
	defer r.Shutdown()
	seen := make(map[TaskID]bool)
	for round := 0; round < 40; round++ {
		for i := 0; i < 25; i++ {
			id, err := r.Submit("t", 1, func() {}, InOut(i%4))
			if err != nil {
				t.Fatal(err)
			}
			if seen[id] {
				t.Fatalf("round %d: task ID %d reissued after record recycling", round, id)
			}
			seen[id] = true
		}
		r.Wait() // drain so the next round runs on recycled records
	}
}

// With retention on, records are never recycled and Graph must export the
// exact per-key hazard structure across many submit→Wait rounds — the
// pooling changes must not leak into the retained-trace world.
func TestGraphCorrectWithRetentionAcrossRounds(t *testing.T) {
	r := New(WithWorkers(4), WithTraceRetention())
	defer r.Shutdown()
	const rounds, chainLen = 5, 30
	for round := 0; round < rounds; round++ {
		for i := 0; i < chainLen; i++ {
			if _, err := r.Submit(fmt.Sprintf("c%d", i), 1, func() {}, InOut("k")); err != nil {
				t.Fatal(err)
			}
		}
		r.Wait()
	}
	g, err := r.Graph()
	if err != nil {
		t.Fatal(err)
	}
	n := rounds * chainLen
	if g.Len() != n {
		t.Fatalf("graph has %d nodes, want %d", g.Len(), n)
	}
	// A single inout chain: node i depends on exactly node i-1.
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("topo order covers %d nodes, want %d", len(order), n)
	}
	edges := 0
	for _, node := range g.Nodes() {
		edges += len(node.Succs())
	}
	if edges != n-1 {
		t.Fatalf("chain graph has %d edges, want %d", edges, n-1)
	}
}

// diamond8Job is the service layer's job shape: a diamond-8 (a source, six
// middles reading it, a sink joining the six) over seven keys, the
// addresses of the cells it is handed. submit rewrites the keys in place,
// so a job over fresh cells costs the cells, what SubmitBatch costs over
// any keys, and whatever the tracker allocates for seven keys it has never
// seen.
type diamond8Job struct {
	specs []TaskSpec
}

type diamond8Cells [7]struct{ _ byte }

func newDiamond8Job(body func()) *diamond8Job {
	j := &diamond8Job{specs: make([]TaskSpec, 8)}
	for i := range j.specs {
		j.specs[i] = TaskSpec{Fn: body}
	}
	j.specs[0].Deps = make([]Dep, 1)
	for m := 1; m <= 6; m++ {
		j.specs[m].Deps = make([]Dep, 2)
	}
	j.specs[7].Deps = make([]Dep, 6)
	return j
}

func (j *diamond8Job) submit(tb testing.TB, r *Runtime, k *diamond8Cells) {
	j.specs[0].Deps[0] = Out(&k[0])
	for m := 1; m <= 6; m++ {
		j.specs[m].Deps[0], j.specs[m].Deps[1] = In(&k[0]), Out(&k[m])
		j.specs[7].Deps[m-1] = In(&k[m])
	}
	if _, err := r.SubmitBatch(j.specs); err != nil {
		tb.Fatal(err)
	}
}

// Fresh keys must not cost the tracker an allocation each: once the sweep
// has deleted the keys of finished jobs, the reader lists they grew are
// what the next jobs' keys read into. With a list grown per key (and
// regrown as the source's six readers arrive) a job over fresh keys read
// 10 objects more than the same job over keys the tracker knows, besides
// its cells; the budget leaves it one, for a spare list still shorter than
// the fan it is handed to.
func TestTrackerFreshKeysAllocFree(t *testing.T) {
	skipUnderRace(t)
	withGCOff(func() {
		r := New(WithWorkers(2), WithShards(1))
		defer r.Shutdown()
		job := newDiamond8Job(func() {})
		known := new(diamond8Cells)
		reused := func() {
			job.submit(t, r, known)
			r.Wait()
		}
		fresh := func() {
			job.submit(t, r, new(diamond8Cells))
			r.Wait()
		}
		// Seven records per job against a floor of 512: a sweep every ~73
		// jobs, each shelving the lists the one before it handed out.
		for i := 0; i < 20*sweepFloor/7; i++ {
			reused()
			fresh()
		}
		const cells = 1
		base := testing.AllocsPerRun(500, reused)
		if got := testing.AllocsPerRun(500, fresh) - base - cells; got > 1 {
			t.Fatalf("seven fresh keys cost the tracker %.2f objects per job (%.2f for the job over known keys), budget 1", got, base)
		}
	})
}

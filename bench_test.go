// Benchmarks regenerating every figure of the paper's evaluation at
// reduced scale through the raa registry (one harness iteration per b.N
// step), plus micro-benchmarks of the hot substrate paths. Run the
// full-scale figures with cmd/raa-bench; run these with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/flightrec"
	"repro/internal/mesh"
	"repro/internal/runtime"
	"repro/internal/sparse"
	"repro/internal/tdg"
	"repro/internal/vector"
	"repro/internal/vsort"
	"repro/raa"
	_ "repro/raa/experiments"
)

// benchRun drives one registry experiment at quick scale with overrides.
func benchRun(b *testing.B, name, spec string) {
	b.Helper()
	var overrides []byte
	if spec != "" {
		overrides = []byte(spec)
	}
	for i := 0; i < b.N; i++ {
		if _, err := raa.RunQuick(context.Background(), name, overrides); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper artefact ---------------------------------------

// BenchmarkFig1HybridMemory runs the Figure-1 comparison (hybrid vs
// cache-only) for one representative kernel on a 16-core machine.
func BenchmarkFig1HybridMemory(b *testing.B) {
	benchRun(b, "hybridmem", `{"kernels": ["MG"]}`)
}

// BenchmarkFig2CriticalityDVFS runs the §3.1 three-variant study.
func BenchmarkFig2CriticalityDVFS(b *testing.B) {
	benchRun(b, "criticality-dvfs", "")
}

// BenchmarkFig3VectorSort runs the Figure-3 sweep at reduced key count.
func BenchmarkFig3VectorSort(b *testing.B) {
	benchRun(b, "vsort", `{"n": 8192}`)
}

// BenchmarkFig4ResilientCG runs the five-scheme Figure-4 experiment.
func BenchmarkFig4ResilientCG(b *testing.B) {
	benchRun(b, "resilient-cg", `{"grid": 48, "trace_stride": 16}`)
}

// BenchmarkFig5OmpSsVsPthreads runs the Figure-5 scalability sweep.
func BenchmarkFig5OmpSsVsPthreads(b *testing.B) {
	benchRun(b, "parsec-scalability", `{"threads": [1, 4, 16]}`)
}

// --- Substrate micro-benchmarks ----------------------------------------------

// BenchmarkTaskSubmit measures dependence tracking + scheduling throughput
// of the runtime (one inout chain: worst-case tracker pressure).
func BenchmarkTaskSubmit(b *testing.B) {
	rt := runtime.New(runtime.WithWorkers(4), runtime.WithScheduler(runtime.WorkSteal))
	defer rt.Shutdown()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.SubmitCtx(context.Background(), "t", func(context.Context) error { return nil }, runtime.InOut("k"))
	}
	rt.Wait()
}

// BenchmarkSubmitSteadyState measures the pooled task lifecycle in its
// intended regime: a bounded number of tasks in flight (backpressure), so
// completed records recycle into new submissions and the amortized
// allocation count per submit→execute→complete is zero. CI's alloc-budget
// gate watches this benchmark; the strict assertion lives in
// internal/runtime's TestSubmitPathAllocationFree.
func BenchmarkSubmitSteadyState(b *testing.B) {
	submitChain(b, runtime.WithWorkers(4), runtime.WithQueueBound(256))
}

// BenchmarkSubmitSteadyStateFlightRecorder is BenchmarkSubmitSteadyState
// with the flight recorder enabled — its pairing with the recorder-off
// number bounds the recorder's submit-path overhead (one external ring
// event per submission; the gated ratio is benchmark/'s
// flightrec.overhead_ratio arm). Same alloc budget (zero), and within a
// few percent of the recorder-off time.
func BenchmarkSubmitSteadyStateFlightRecorder(b *testing.B) {
	submitChain(b, runtime.WithWorkers(4), runtime.WithQueueBound(256),
		runtime.WithFlightRecorder(flightrec.Options{}))
}

// submitChain is the shared body of the steady-state submit benchmarks.
func submitChain(b *testing.B, opts ...runtime.Option) {
	rt := runtime.New(opts...)
	defer rt.Shutdown()
	deps := []runtime.Dep{runtime.InOut("k")}
	noop := func(context.Context) error { return nil }
	// Warm the freelist to the bound before measuring.
	for i := 0; i < 512; i++ {
		rt.SubmitCtx(context.Background(), "warm", noop, deps...)
	}
	rt.Wait()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.SubmitCtx(context.Background(), "t", noop, deps...)
	}
	rt.Wait()
}

// BenchmarkDispatchStealFan measures the worker-side dispatch path under
// the steal-heavy shape: each root's completion releases a fan of children
// onto the completing worker at once. The group keys cycle through a
// fixed, pre-boxed set and the queue is bounded, so the steady state
// exercises dispatch and steal — not interface boxing of fresh int keys
// (which allocates for values ≥ 256) or unbounded tracker-map growth.
// CI's alloc-budget gate holds this at zero allocs/op alongside the submit
// benchmarks.
func BenchmarkDispatchStealFan(b *testing.B) {
	const fan = 15
	const groups = 512
	rt := runtime.New(runtime.WithWorkers(4), runtime.WithQueueBound(2048))
	defer rt.Shutdown()
	noop := func(context.Context) error { return nil }
	outDeps := make([][]runtime.Dep, groups)
	inDeps := make([][]runtime.Dep, groups)
	for g := 0; g < groups; g++ {
		key := any(g) // boxed once, reused every round
		outDeps[g] = []runtime.Dep{{Key: key, Mode: runtime.ModeOut}}
		inDeps[g] = []runtime.Dep{{Key: key, Mode: runtime.ModeIn}}
	}
	submit := func(i int) {
		g := (i / (fan + 1)) % groups
		if i%(fan+1) == 0 {
			rt.SubmitCtx(context.Background(), "root", noop, outDeps[g]...)
		} else {
			rt.SubmitCtx(context.Background(), "child", noop, inDeps[g]...)
		}
	}
	// Warm the task pool, the tracker's per-key state, and the reader
	// tails to their steady-state footprint before measuring.
	for i := 0; i < 4096; i++ {
		submit(i)
	}
	rt.Wait()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit(i)
	}
	rt.Wait()
}

// BenchmarkStatsInto measures the monitoring read path external pollers
// (the service's /metrics page among them) use: one coherent Stats
// snapshot of a live pool, taken into a caller-owned buffer. The pool has
// two classes, so the per-class grouping is on the path. CI's
// alloc-budget gate holds this at zero allocs/op — an observer that
// allocates on every sample would perturb the zero-alloc steady state it
// is watching.
func BenchmarkStatsInto(b *testing.B) {
	rt := runtime.New(
		runtime.WithWorkerClasses(
			runtime.WorkerClass{Name: "fast", Count: 2, Speed: 1},
			runtime.WorkerClass{Name: "slow", Count: 2, Speed: 0.5},
		),
	)
	defer rt.Shutdown()
	for i := 0; i < 256; i++ {
		rt.SubmitCtx(context.Background(), "t", func(context.Context) error { return nil }, runtime.InOut("k"))
	}
	rt.Wait()
	var st runtime.Stats
	rt.StatsInto(&st) // warm: first call sizes the per-worker slices
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.StatsInto(&st)
	}
}

// BenchmarkLocalityChain measures worker-local successor placement on a
// producer→consumer cache-affinity workload with the locality window on
// (default) vs off (injector baseline). The figure-style sweep is the
// throughput experiment's "locality" scenario.
func BenchmarkLocalityChain(b *testing.B) {
	b.Run("locality-on", localityChain())
	b.Run("locality-off", localityChain(runtime.WithLocalityWindow(-1)))
}

// localityChain is BenchmarkLocalityChain under opts (none for the default
// window): one serialized chain per worker, each link walking its chain's
// 32 KiB payload.
func localityChain(opts ...runtime.Option) func(b *testing.B) {
	return func(b *testing.B) {
		const chains = 4
		const words = 32 * 1024 / 8
		rt := runtime.New(append(opts, runtime.WithWorkers(chains))...)
		defer rt.Shutdown()
		var sink uint64
		bodies := make([]runtime.Body, chains)
		for c := 0; c < chains; c++ {
			buf := make([]uint64, words)
			bodies[c] = func(context.Context) error {
				var acc uint64
				for i := range buf {
					buf[i] = buf[i]*1664525 + 1013904223
					acc += buf[i]
				}
				atomic.AddUint64(&sink, acc)
				return nil
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := i % chains
			if _, err := rt.SubmitCtx(context.Background(), "link", bodies[c], runtime.InOut(c)); err != nil {
				b.Fatal(err)
			}
		}
		rt.Wait()
	}
}

// BenchmarkWorkStealingFanOut measures end-to-end execution of independent
// tasks across the pool.
func BenchmarkWorkStealingFanOut(b *testing.B) {
	rt := runtime.New(runtime.WithWorkers(4), runtime.WithScheduler(runtime.WorkSteal))
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.SubmitCtx(context.Background(), "t", func(context.Context) error { return nil })
	}
	rt.Wait()
}

// BenchmarkSubmitMultiProducer measures the contended submit path:
// producers on distinct keys serialise on the tracker lock. Every
// benchmark goroutine drives its own inout chain.
func BenchmarkSubmitMultiProducer(b *testing.B) {
	rt := runtime.New(runtime.WithWorkers(4))
	defer rt.Shutdown()
	var next int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		key := fmt.Sprintf("chain-%d", atomic.AddInt64(&next, 1))
		for pb.Next() {
			rt.SubmitCtx(context.Background(), "t", func(context.Context) error { return nil }, runtime.InOut(key))
		}
	})
	rt.Wait()
}

// BenchmarkSubmitBatch measures batched vs per-task submission of
// dependence-free tasks (batch size 64).
func BenchmarkSubmitBatch(b *testing.B) {
	const batch = 64
	b.Run("single", func(b *testing.B) {
		rt := runtime.New(runtime.WithWorkers(4))
		defer rt.Shutdown()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.SubmitCtx(context.Background(), "t", func(context.Context) error { return nil })
		}
		rt.Wait()
	})
	b.Run("batch", func(b *testing.B) {
		rt := runtime.New(runtime.WithWorkers(4))
		defer rt.Shutdown()
		specs := make([]runtime.TaskSpec, batch)
		for i := range specs {
			specs[i] = runtime.TaskSpec{Name: "t", Body: func(context.Context) error { return nil }}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i += batch {
			n := batch
			if b.N-i < n {
				n = b.N - i
			}
			if _, err := rt.SubmitBatchCtx(context.Background(), specs[:n]); err != nil {
				b.Fatal(err)
			}
		}
		rt.Wait()
	})
}

// BenchmarkDispatchStealHeavy measures the worker-side dispatch path under
// the steal-heavy shape: each root's completion releases a fan of children
// onto the completing worker's queue at once, so the pool must share them.
// WorkSteal pops its local Chase–Lev deque lock-free and thieves take the
// rest with one CAS each; FIFO funnels every pop through the central lock —
// this is the headline pair for the lock-free dispatch work.
func BenchmarkDispatchStealHeavy(b *testing.B) {
	const fan = 15
	for _, kind := range []runtime.SchedulerKind{runtime.WorkSteal, runtime.FIFO, runtime.CATS} {
		b.Run(kind.String(), func(b *testing.B) {
			rt := runtime.New(runtime.WithWorkers(4), runtime.WithScheduler(kind))
			defer rt.Shutdown()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				group := i / (fan + 1)
				if i%(fan+1) == 0 {
					rt.SubmitCtx(context.Background(), "root", func(context.Context) error { return nil }, runtime.Out(group))
				} else {
					rt.SubmitCtx(context.Background(), "child", func(context.Context) error { return nil }, runtime.In(group))
				}
			}
			rt.Wait()
		})
	}
}

// BenchmarkHeteroCriticalPath measures criticality-aware placement on a
// heterogeneous pool (1 fast + 3 slow workers, slow = 4× the work per
// task): a priority-hinted critical chain with a fan of plain tasks per
// link. CATS keeps the chain on the fast class, so its makespan tracks
// the fast core; class-blind fifo/worksteal let slow workers pick chain
// links up and stretch the critical path. The placement itself is
// asserted in internal/runtime (TestCATSChainRunsOnFastClass) and
// internal/throughput (TestHeteroScenarioPlacement); this benchmark
// reports the resulting end-to-end cost per scheduler.
func BenchmarkHeteroCriticalPath(b *testing.B) {
	const fan = 7
	const grain = 2048
	for _, kind := range []runtime.SchedulerKind{runtime.CATS, runtime.WorkSteal, runtime.FIFO} {
		b.Run(kind.String(), func(b *testing.B) {
			rt := runtime.New(
				runtime.WithScheduler(kind),
				runtime.WithWorkerClasses(
					runtime.WorkerClass{Name: "fast", Count: 1, Speed: 1},
					runtime.WorkerClass{Name: "slow", Count: 3, Speed: 0.25},
				),
			)
			defer rt.Shutdown()
			var sink uint64
			body := func(ctx context.Context) error {
				speed := 1.0
				if pl, ok := runtime.TaskPlacement(ctx); ok {
					speed = pl.Speed
				}
				x := uint64(grain)
				for i := 0; i < int(grain/speed); i++ {
					x = x*1664525 + 1013904223
				}
				atomic.AddUint64(&sink, x)
				return nil
			}
			b.ResetTimer()
			links := 0
			for i := 0; i < b.N; i++ {
				if i%(fan+1) == 0 {
					links++
					if _, err := rt.SubmitPriorityCtx(context.Background(), "chain", 1+b.N-i, body,
						runtime.InOut("chain"), runtime.Out(links)); err != nil {
						b.Fatal(err)
					}
				} else if _, err := rt.SubmitCtx(context.Background(), "fan", body, runtime.In(links)); err != nil {
					b.Fatal(err)
				}
			}
			rt.Wait()
		})
	}
}

// BenchmarkLongLivedSubmitWait measures the steady state of a long-lived
// runtime: repeated submit→Wait rounds on one pool, with the default
// no-trace-retention lifecycle keeping memory bounded across rounds.
func BenchmarkLongLivedSubmitWait(b *testing.B) {
	const round = 256
	rt := runtime.New(runtime.WithWorkers(4))
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i += round {
		n := round
		if b.N-i < n {
			n = b.N - i
		}
		for j := 0; j < n; j++ {
			rt.SubmitCtx(context.Background(), "t", func(context.Context) error { return nil })
		}
		rt.Wait()
	}
}

// BenchmarkCacheAccess measures the L1 model's hit path.
func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.L1Default())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(uint64(i%512) * 64)
	}
}

// BenchmarkMeshSend measures NoC message accounting.
func BenchmarkMeshSend(b *testing.B) {
	m := mesh.New(mesh.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(i%64, (i*17)%64, 72)
	}
}

// BenchmarkSpMV measures the sparse matrix-vector kernel.
func BenchmarkSpMV(b *testing.B) {
	a := sparse.Laplacian2D(128, 128)
	x := sparse.Ones(a.N)
	y := make([]float64, a.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(y, x)
	}
}

// BenchmarkVSRSortPass measures VSR sort end to end on the vector machine.
func BenchmarkVSRSortPass(b *testing.B) {
	keys := vsort.RandomKeys(1<<13, 1)
	m := vector.New(vector.DefaultConfig())
	buf := make([]uint32, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, keys)
		vsort.VSRSort{}.Sort(m, buf)
	}
}

// BenchmarkCriticalPath measures TDG bottom-level analysis on a Cholesky
// graph (the scheduler's preprocessing step).
func BenchmarkCriticalPath(b *testing.B) {
	g := tdg.Cholesky(16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.CriticalPath(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkListScheduler measures the simulated executor on a mid-size
// graph through the registry path.
func BenchmarkListScheduler(b *testing.B) {
	benchRun(b, "criticality-dvfs", `{"cores": 16, "blocks": 8}`)
}

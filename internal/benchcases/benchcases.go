// Package benchcases holds the runtime hot-path benchmark bodies run by
// the `go test -bench` suite at the module root — the benchmarks CI's
// alloc-budget and multicore jobs gate on.
package benchcases

import (
	"sync/atomic"
	"testing"

	"repro/internal/flightrec"
	"repro/internal/runtime"
)

// SubmitChainSteady measures the pooled task lifecycle in its intended
// regime: a bounded number of tasks in flight (backpressure), so
// completed records recycle into new submissions and the amortized
// allocation count per submit→execute→complete is zero. CI's alloc
// budget gate watches this benchmark; the strict assertion lives in
// internal/runtime's TestSubmitPathAllocationFree.
func SubmitChainSteady(b *testing.B) {
	submitChain(b, runtime.WithWorkers(4), runtime.WithQueueBound(256))
}

// SubmitChainSteadyFlight is SubmitChainSteady with the flight recorder
// enabled — its pairing with the recorder-off number bounds the recorder's
// submit-path overhead (one external ring event per submission; the gated
// ratio is benchmark/'s flightrec.overhead_ratio arm). It must stay
// allocation-free and within a few percent of the recorder-off time.
func SubmitChainSteadyFlight(b *testing.B) {
	submitChain(b, runtime.WithWorkers(4), runtime.WithQueueBound(256),
		runtime.WithFlightRecorder(flightrec.Options{}))
}

// submitChain is the shared body of the steady-state submit benchmarks.
func submitChain(b *testing.B, opts ...runtime.Option) {
	rt := runtime.New(opts...)
	defer rt.Shutdown()
	deps := []runtime.Dep{runtime.InOut("k")}
	noop := func() {}
	// Warm the freelist to the bound before measuring.
	for i := 0; i < 512; i++ {
		rt.Submit("warm", 1, noop, deps...)
	}
	rt.Wait()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Submit("t", 1, noop, deps...)
	}
	rt.Wait()
}

// DispatchStealFan measures the worker-side dispatch path under the
// steal-heavy shape: each root's completion releases a fan of children
// onto the completing worker at once. The group keys cycle through a
// fixed, pre-boxed set and the queue is bounded, so the steady state
// exercises dispatch and steal — not interface boxing of fresh int keys
// (which allocates for values ≥ 256) or unbounded tracker-map growth,
// which is what the old fresh-key-per-group version was really measuring
// with its 1 alloc/op.
func DispatchStealFan(b *testing.B) {
	const fan = 15
	const groups = 512
	rt := runtime.New(runtime.WithWorkers(4), runtime.WithQueueBound(2048))
	defer rt.Shutdown()
	noop := func() {}
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
			rt.Submit("root", 1, noop, outDeps[g]...)
		} else {
			rt.Submit("child", 1, noop, inDeps[g]...)
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

// LocalityChain returns the producer→consumer cache-affinity benchmark at
// the given locality window (<= 0 disables the worker-local path): one
// serialized chain per worker, each link walking its chain's 32 KiB
// payload. The figure-style sweep is the throughput experiment's
// "locality" scenario; this is its microbenchmark counterpart.
func LocalityChain(window int) func(b *testing.B) {
	return func(b *testing.B) {
		const chains = 4
		const words = 32 * 1024 / 8
		rt := runtime.New(runtime.WithWorkers(chains), runtime.WithLocalityWindow(window))
		defer rt.Shutdown()
		var sink uint64
		bodies := make([]func(), chains)
		for c := 0; c < chains; c++ {
			buf := make([]uint64, words)
			bodies[c] = func() {
				var acc uint64
				for i := range buf {
					buf[i] = buf[i]*1664525 + 1013904223
					acc += buf[i]
				}
				atomic.AddUint64(&sink, acc)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := i % chains
			if _, err := rt.Submit("link", 1, bodies[c], runtime.InOut(c)); err != nil {
				b.Fatal(err)
			}
		}
		rt.Wait()
	}
}

// pipeline-video expresses a bodytrack-like video pipeline with the task
// API — serial frame decode, parallel particle evaluation, serial update —
// and runs it for real on the work-stealing runtime (bounded by a
// backpressure queue, as a production ingest pipeline would be), then runs
// the paper's Figure-5 scalability study for the same structure through the
// raa registry.
//
//	go run ./examples/pipeline-video
package main

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/runtime"
	"repro/raa"
	_ "repro/raa/experiments"
)

func main() {
	// Part 1: the pipeline for real on goroutines. Dependences express the
	// structure: decode(f) chains on decode(f-1); chunks read the frame;
	// update(f) reads the chunks' output and chains on update(f-1). The
	// queue bound keeps a fast producer from building an unbounded graph.
	const frames, chunks = 12, 16
	rt := runtime.New(
		runtime.WithWorkers(8),
		runtime.WithScheduler(runtime.WorkSteal),
		runtime.WithQueueBound(4*chunks))
	defer rt.Shutdown()
	ctx := context.Background()

	var decoded, processed, updated int64
	for f := 0; f < frames; f++ {
		f := f
		rt.SubmitCtx(ctx, fmt.Sprintf("decode(%d)", f), func(context.Context) error {
			atomic.AddInt64(&decoded, 1)
			return nil
		}, runtime.InOut("input-stream"), runtime.Out(fmt.Sprintf("frame%d", f)))
		for c := 0; c < chunks; c++ {
			rt.SubmitCtx(ctx, fmt.Sprintf("track(%d,%d)", f, c), func(context.Context) error {
				atomic.AddInt64(&processed, 1)
				return nil
			}, runtime.In(fmt.Sprintf("frame%d", f)), runtime.Out(fmt.Sprintf("w%d.%d", f, c%4)))
		}
		rt.SubmitCtx(ctx, fmt.Sprintf("update(%d)", f), func(context.Context) error {
			atomic.AddInt64(&updated, 1)
			return nil
		}, runtime.In(fmt.Sprintf("w%d.0", f)), runtime.In(fmt.Sprintf("w%d.1", f)),
			runtime.In(fmt.Sprintf("w%d.2", f)), runtime.In(fmt.Sprintf("w%d.3", f)),
			runtime.InOut("model"))
	}
	if err := rt.WaitCtx(ctx); err != nil {
		panic(err)
	}
	fmt.Printf("pipeline ran: %d frames decoded, %d chunks tracked, %d model updates\n",
		decoded, processed, updated)
	st := rt.Stats()
	fmt.Printf("runtime: %d tasks over %d workers, %d steals\n",
		st.Executed, rt.Workers(), st.Steals)

	// Part 2: the Figure-5 scalability comparison through the registry.
	fmt.Println("\nmodelled scalability (speedup over serial):")
	res, err := raa.Run(ctx, "parsec-scalability", []byte(`{"threads": [1, 2, 4, 8, 16]}`))
	if err != nil {
		panic(err)
	}
	for _, p := range []int{1, 2, 4, 8, 16} {
		fmt.Printf("  %2d threads: pthreads %.2f  ompss %.2f\n", p,
			res.Metrics[fmt.Sprintf("bodytrack_pthreads_speedup_%dt", p)],
			res.Metrics[fmt.Sprintf("bodytrack_ompss_speedup_%dt", p)])
	}
	fmt.Println("the task version overlaps frame decode with the previous frame's compute")
}

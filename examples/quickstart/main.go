// Quickstart: the OmpSs-like task runtime in ~60 lines.
//
// A blocked vector update runs as dataflow tasks: each block's scale task
// writes the block, each sum task reads it — the runtime derives the
// dependences, runs independent blocks in parallel, and a final taskwait
// collects the result. Task bodies are context-aware and may fail; the
// runtime captures the first error and reports it at the taskwait. Run
// with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/runtime"
)

func main() {
	const (
		blocks    = 8
		blockSize = 1 << 16
	)
	data := make([][]float64, blocks)
	for b := range data {
		data[b] = make([]float64, blockSize)
		for i := range data[b] {
			data[b][i] = 1
		}
	}

	// WithTraceRetention keeps the task trace so the graph can be exported
	// at the end; long-lived services leave it off so memory stays bounded.
	rt := runtime.New(runtime.WithWorkers(4), runtime.WithScheduler(runtime.WorkSteal),
		runtime.WithTraceRetention())
	defer rt.Shutdown()
	ctx := context.Background()

	var totalBits uint64 // accumulated through dataflow-serialised tasks

	for b := 0; b < blocks; b++ {
		b := b
		// Writer: scale the block (out dependence on the block).
		rt.SubmitCtx(ctx, fmt.Sprintf("scale(%d)", b), func(context.Context) error {
			for i := range data[b] {
				data[b][i] *= 2
			}
			return nil
		}, runtime.Out(b))
		// Reader: reduce the block (in on the block, inout on the total).
		rt.SubmitCtx(ctx, fmt.Sprintf("sum(%d)", b), func(context.Context) error {
			var s float64
			for _, v := range data[b] {
				s += v
			}
			// The inout("total") chain serialises these adds, so a plain
			// load-add-store would also be safe; atomic keeps vet happy.
			for {
				old := atomic.LoadUint64(&totalBits)
				if atomic.CompareAndSwapUint64(&totalBits, old, old+uint64(s)) {
					break
				}
			}
			return nil
		}, runtime.In(b), runtime.InOut("total"))
	}
	if err := rt.WaitCtx(ctx); err != nil {
		panic(err)
	}

	want := uint64(blocks * blockSize * 2)
	fmt.Printf("sum = %d (want %d)\n", totalBits, want)
	st := rt.Stats()
	fmt.Printf("tasks: %d submitted, %d executed, %d steals across %d workers\n",
		st.Submitted, st.Executed, st.Steals, rt.Workers())
	g, err := rt.Graph()
	if err != nil {
		panic(err)
	}
	cp, _, _ := g.CriticalPath()
	fmt.Printf("task graph: %d nodes, critical path %d tasks\n", g.Len(), len(cp))
}

// resilient-cg injects a DUE into a conjugate-gradient solve and compares
// the recovery schemes through the raa registry — the paper's Figure 4 at a
// reduced grid. The AFEIR recovery structure also runs for real as
// out-of-critical-path tasks on the task runtime.
//
//	go run ./examples/resilient-cg
package main

import (
	"context"
	"fmt"

	"repro/internal/runtime"
	"repro/raa"
	_ "repro/raa/experiments"
)

func main() {
	ctx := context.Background()

	// The Figure-4 study through the single front door: one registry call,
	// a spec override for the smaller demo grid, uniform metrics out.
	res, err := raa.Run(ctx, "resilient-cg", []byte(`{"grid": 96, "trace_stride": 8}`))
	if err != nil {
		panic(err)
	}
	fmt.Printf("ideal: %.2f simulated s to convergence\n", res.Metrics["ideal_time_s"])
	for _, scheme := range []string{"lossy_restart", "feir", "afeir"} {
		fmt.Printf("%-13s: %4.0f iterations, %.2f s (+%.2f vs ideal, recovery %.3f s)\n",
			scheme,
			res.Metrics[scheme+"_iters"],
			res.Metrics[scheme+"_time_s"],
			res.Metrics[scheme+"_overhead_s"],
			res.Metrics[scheme+"_recovery_s"])
	}

	// The AFEIR idea live: the interpolation runs as tasks the runtime
	// schedules beside the main work, off the critical path.
	rt := runtime.New(runtime.WithWorkers(4), runtime.WithScheduler(runtime.CATS))
	defer rt.Shutdown()
	recovered := make(chan int, 1)
	rt.SubmitPriorityCtx(ctx, "recovery", 0, func(context.Context) error {
		// Low priority: the solver's own tasks (high priority) go first.
		recovered <- 1
		return nil
	}, runtime.Out("lost-block"))
	for i := 0; i < 8; i++ {
		rt.SubmitPriorityCtx(ctx, fmt.Sprintf("solver-work(%d)", i), 10, nil)
	}
	if err := rt.WaitCtx(ctx); err != nil {
		panic(err)
	}
	<-recovered
	fmt.Println("AFEIR demo: recovery task completed off the critical path")
}

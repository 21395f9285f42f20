// criticality-dvfs demonstrates the paper's §3.1 criticality story at both
// of the reproduction's levels:
//
//  1. the simulated 32-core machine: a blocked Cholesky task graph under
//     static frequency, criticality-aware DVFS through the software path,
//     and through the RSU — a miniature of the paper's Figure 2 study,
//     driven through the raa registry; and
//
//  2. the real task runtime: the same Cholesky graph executed on a
//     heterogeneous big.LITTLE worker pool (runtime.WithWorkerClasses),
//     where the CATS scheduler places critical tasks on the big class and
//     a class-blind FIFO baseline does not — bottom levels from the TDG
//     become the tasks' priority hints, and each body reads its placement
//     back (runtime.TaskPlacement) to scale its simulated work to the
//     class it landed on.
//
//     go run ./examples/criticality-dvfs
package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/runtime"
	"repro/internal/tdg"
	"repro/raa"
	_ "repro/raa/experiments"
)

func main() {
	// The graph both halves schedule, inspected up front: the paper's
	// runtime exposes exactly this criticality information to the RSU.
	g := tdg.Cholesky(12, 2e6)
	crit, _ := g.MarkCritical(0.12)
	nCrit := 0
	for _, c := range crit {
		if c {
			nCrit++
		}
	}
	mp, _ := g.MaxParallelism()
	fmt.Printf("cholesky(12): %d tasks, %d near-critical, average parallelism %.1f\n",
		g.Len(), nCrit, mp)

	// The three-variant study through the single front door, at the same
	// reduced size (no sweep for the demo).
	fmt.Println("running on 32 simulated cores:")
	res, err := raa.Run(context.Background(), "criticality-dvfs",
		[]byte(`{"blocks": 12, "sweep": false}`))
	if err != nil {
		panic(err)
	}
	fmt.Printf("  static: makespan %.4fs  energy %.3fJ\n",
		res.Metrics["static_makespan_s"], res.Metrics["static_energy_j"])
	fmt.Printf("speedup vs static: software %.3f, rsu %.3f\n",
		res.Metrics["software_speedup"], res.Metrics["rsu_speedup"])
	fmt.Printf("EDP improvement vs static: software %.3f, rsu %.3f\n",
		res.Metrics["software_edp_improvement"], res.Metrics["rsu_edp_improvement"])
	fmt.Printf("RSU reconfiguration overhead: %.6fs\n", res.Metrics["rsu_recon_overhead_s"])

	// The same graph on the real runtime's heterogeneous pool: 2 big
	// workers plus 6 little ones at a quarter of the speed.
	fmt.Println("\nrunning on the task runtime (2 big + 6 little workers):")
	for _, kind := range []runtime.SchedulerKind{runtime.CATS, runtime.FIFO} {
		elapsed, critOnBig := runOnPool(g, crit, kind)
		fmt.Printf("  %-9s %7.1fms  %3.0f%% of near-critical tasks on the big class\n",
			kind, float64(elapsed.Microseconds())/1e3, critOnBig*100)
	}
}

// runOnPool executes the graph on a big.LITTLE pool under the given
// scheduler, returning the makespan and the fraction of near-critical
// tasks the big class executed.
func runOnPool(g *tdg.Graph, crit []bool, kind runtime.SchedulerKind) (time.Duration, float64) {
	rt := runtime.New(
		runtime.WithScheduler(kind),
		runtime.WithWorkerClasses(
			runtime.WorkerClass{Name: "big", Count: 2, Speed: 1},
			runtime.WorkerClass{Name: "little", Count: 6, Speed: 0.25},
		),
	)
	defer rt.Shutdown()

	levels, err := g.BottomLevels()
	if err != nil {
		panic(err)
	}
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	var critTotal, critOnBig, sink int64
	start := time.Now()
	for _, id := range order {
		n := g.Node(id)
		deps := []runtime.Dep{runtime.Out(int(id))}
		for _, p := range n.Preds() {
			deps = append(deps, runtime.In(int(p)))
		}
		isCrit := crit[id]
		// The bottom level — work remaining to the sink — goes in as the
		// CATS priority hint, scaled down to keep the hints in int range.
		prio := int(levels[id] / 1e5)
		_, err := rt.SubmitPriorityCtx(context.Background(), n.Name, prio,
			func(ctx context.Context) error {
				speed := 1.0
				if pl, ok := runtime.TaskPlacement(ctx); ok {
					speed = pl.Speed
					if isCrit && pl.ClassName == "big" {
						atomic.AddInt64(&critOnBig, 1)
					}
				}
				if isCrit {
					atomic.AddInt64(&critTotal, 1)
				}
				// Simulate the class's speed: a little worker spins 4× as
				// long over the same nominal work.
				x := int64(1)
				for i := 0; i < int(100/speed); i++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
				atomic.AddInt64(&sink, x)
				return nil
			}, deps...)
		if err != nil {
			panic(err)
		}
	}
	rt.Wait()
	elapsed := time.Since(start)
	frac := 0.0
	if critTotal > 0 {
		frac = float64(critOnBig) / float64(critTotal)
	}
	return elapsed, frac
}

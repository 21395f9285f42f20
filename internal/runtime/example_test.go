package runtime_test

import (
	"context"
	"fmt"

	"repro/internal/runtime"
)

// ExampleRuntime_SubmitBatchCtx registers a producer/consumer pipeline in
// one batched submission: the whole slice registers under a single
// acquisition of the dependence-tracker lock, and intra-batch
// dependences work in slice order exactly as one-task SubmitCtx calls would.
func ExampleRuntime_SubmitBatchCtx() {
	rt := runtime.New(runtime.WithWorkers(4))
	defer rt.Shutdown()

	var acc int
	specs := []runtime.TaskSpec{
		{Name: "produce", Body: func(context.Context) error { acc = 20; return nil }, Deps: []runtime.Dep{runtime.Out("k")}},
		{Name: "double", Body: func(context.Context) error { acc *= 2; return nil }, Deps: []runtime.Dep{runtime.InOut("k")}},
		{Name: "add", Body: func(context.Context) error { acc += 2; return nil }, Deps: []runtime.Dep{runtime.InOut("k")}},
	}
	ids, err := rt.SubmitBatchCtx(context.Background(), specs)
	if err != nil {
		panic(err)
	}
	rt.Wait()
	fmt.Println(len(ids), acc)
	// Output: 3 42
}

// ExampleWithWorkerClasses builds a heterogeneous big.LITTLE pool. Classes
// are resolved fastest first and worker IDs are assigned in that order, so
// the CATS scheduler can place critical tasks on the big class; task
// bodies read their placement back through their context.
func ExampleWithWorkerClasses() {
	rt := runtime.New(
		runtime.WithScheduler(runtime.CATS),
		runtime.WithWorkerClasses(
			runtime.WorkerClass{Name: "little", Count: 4, Speed: 0.5},
			runtime.WorkerClass{Name: "big", Count: 2, Speed: 2},
		),
	)
	defer rt.Shutdown()

	fmt.Println("workers:", rt.Workers())
	for _, c := range rt.WorkerClasses() {
		fmt.Printf("%s: %d workers at %.1fx speed\n", c.Name, c.Count, c.Speed)
	}
	// Output:
	// workers: 6
	// big: 2 workers at 2.0x speed
	// little: 4 workers at 0.5x speed
}

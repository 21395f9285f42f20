package serve_test

import (
	"context"
	"sync"

	"repro/internal/serve"
)

// gates is the test battery's controllable op: a task running op "gate"
// blocks until the test opens the gate named by the task's Amount (and
// reports when it has entered), so tests hold jobs in-flight at exact
// points without a single sleep.
type gates struct {
	mu      sync.Mutex
	open    map[int64]chan struct{}
	entered map[int64]chan struct{}
}

func newGates() *gates {
	return &gates{open: map[int64]chan struct{}{}, entered: map[int64]chan struct{}{}}
}

// chans returns (creating on demand) the open/entered channels of one gate.
func (g *gates) chans(id int64) (open, entered chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.open[id] == nil {
		g.open[id] = make(chan struct{})
		g.entered[id] = make(chan struct{}, 64) // capacity: several tasks may share a gate
	}
	return g.open[id], g.entered[id]
}

// op is the Op implementation to register under Config.Ops["gate"].
func (g *gates) op(ctx context.Context, amount int64) error {
	open, entered := g.chans(amount)
	select {
	case entered <- struct{}{}:
	default:
	}
	select {
	case <-open:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Open releases everyone blocked (and anyone arriving later) on a gate.
func (g *gates) Open(id int64) {
	open, _ := g.chans(id)
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-open:
	default:
		close(open)
	}
}

// Entered blocks until a task has entered the gate.
func (g *gates) Entered(id int64) <-chan struct{} {
	_, entered := g.chans(id)
	return entered
}

// gateTask builds a single-task graph blocked on the given gate.
func gateGraph(gate int64, lane string) serve.GraphRequest {
	return serve.GraphRequest{
		Lane:  lane,
		Tasks: []serve.TaskRequest{{Name: "gate", Op: "gate", Amount: gate}},
	}
}

// allGateGraph builds an n-task graph whose every task blocks on gate 1,
// which the rung test never opens: an admitted job holds its tokens, its
// running slot and its share of the pool backlog until the server closes.
func allGateGraph(n int, lane string) serve.GraphRequest {
	g := serve.GraphRequest{Lane: lane}
	for i := 0; i < n; i++ {
		g.Tasks = append(g.Tasks, serve.TaskRequest{Op: "gate", Amount: 1})
	}
	return g
}

// noopGraph builds an n-task independent noop graph.
func noopGraph(n int, lane string) serve.GraphRequest {
	g := serve.GraphRequest{Lane: lane}
	for i := 0; i < n; i++ {
		g.Tasks = append(g.Tasks, serve.TaskRequest{Op: "noop"})
	}
	return g
}

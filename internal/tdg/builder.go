package tdg

import "sync"

// Builder accumulates a graph safely from concurrent goroutines and hands
// the finished Graph off once construction is complete. Graph itself is
// deliberately unsynchronised (analysis passes want lock-free reads), so
// concurrent producers go through a Builder and call Graph exactly once
// when every producer is done.
type Builder struct {
	mu sync.Mutex
	g  *Graph
	// bad records the first AddEdge error, surfaced by Err: builders are
	// used from goroutines where returning an error per edge is awkward.
	bad error
}

// NewBuilder creates an empty builder.
func NewBuilder() *Builder { return &Builder{g: New()} }

// AddNode appends a task and returns its ID. Safe for concurrent use.
func (b *Builder) AddNode(name string, cost float64) NodeID {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.g.AddNode(name, cost)
}

// AddEdge records a dependence from → to. Safe for concurrent use; both
// ends must already have been added. The first failure is kept for Err.
func (b *Builder) AddEdge(from, to NodeID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.g.AddEdge(from, to); err != nil && b.bad == nil {
		b.bad = err
	}
}

// Len returns the number of nodes added so far.
func (b *Builder) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.g.Len()
}

// Err returns the first edge-registration error, nil if none.
func (b *Builder) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bad
}

// Graph hands the built graph off. The builder must not be used after —
// the returned Graph is the builder's own, not a copy.
func (b *Builder) Graph() *Graph {
	b.mu.Lock()
	defer b.mu.Unlock()
	g := b.g
	b.g = New()
	return g
}

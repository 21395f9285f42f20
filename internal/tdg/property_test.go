package tdg

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// depOp is one entry of a random dependence stream: task i declares mode
// access to key.
type depOp struct {
	key  int
	mode int // 0 in, 1 out, 2 inout
}

// buildFromStream constructs the graph a correct RAW/WAR/WAW renamer must
// produce for a stream of single-dependence tasks — the reference
// semantics the runtime's tracker implements.
func buildFromStream(costs []float64, stream []depOp) *Graph {
	g := New()
	lastWriter := map[int]NodeID{}
	readers := map[int][]NodeID{}
	for i, op := range stream {
		id := g.AddNode(fmt.Sprintf("t%d", i), costs[i])
		switch op.mode {
		case 0: // in: RAW from last writer
			if w, ok := lastWriter[op.key]; ok {
				g.AddEdge(w, id)
			}
			readers[op.key] = append(readers[op.key], id)
		default: // out/inout: WAR from readers, WAW from last writer
			if w, ok := lastWriter[op.key]; ok {
				g.AddEdge(w, id)
			}
			for _, r := range readers[op.key] {
				g.AddEdge(r, id)
			}
			lastWriter[op.key] = id
			readers[op.key] = nil
		}
	}
	return g
}

// randomStream generates a reproducible dependence stream.
func randomStream(rng *rand.Rand, n, keys int) ([]float64, []depOp) {
	costs := make([]float64, n)
	stream := make([]depOp, n)
	for i := range stream {
		costs[i] = 1 + rng.Float64()*9 // strictly positive
		stream[i] = depOp{key: rng.Intn(keys), mode: rng.Intn(3)}
	}
	return costs, stream
}

// checkGraphProperties asserts the three invariants every dependence graph
// must satisfy: acyclicity, topological order consistent with all edges,
// and bottom levels strictly decreasing along edges (for positive costs).
func checkGraphProperties(t *testing.T, g *Graph) {
	t.Helper()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatalf("graph has a cycle: %v", err)
	}
	if len(order) != g.Len() {
		t.Fatalf("topo order covers %d of %d nodes", len(order), g.Len())
	}
	pos := make([]int, g.Len())
	for i, id := range order {
		pos[id] = i
	}
	bl, err := g.BottomLevels()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes() {
		for _, s := range n.Succs() {
			if pos[n.ID] >= pos[s] {
				t.Fatalf("topo order violates edge %d->%d (pos %d >= %d)", n.ID, s, pos[n.ID], pos[s])
			}
			// bl[u] = cost(u) + max over succ bl — so along every edge the
			// bottom level must drop by at least cost(u) > 0.
			if bl[n.ID] < n.Cost+bl[s]-1e-9 {
				t.Fatalf("bottom level not monotone along %d->%d: bl[u]=%g < cost %g + bl[v]=%g",
					n.ID, s, bl[n.ID], n.Cost, bl[s])
			}
			if bl[n.ID] <= bl[s] {
				t.Fatalf("bottom level not strictly decreasing along %d->%d: %g <= %g", n.ID, s, bl[n.ID], bl[s])
			}
		}
		// Edge symmetry: every succ edge has a matching pred entry.
		for _, s := range n.Succs() {
			found := false
			for _, p := range g.Node(s).Preds() {
				if p == n.ID {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d missing from %d's preds", n.ID, s, s)
			}
		}
	}
}

// Property: for random RAW/WAR/WAW dependence streams the built graph is
// acyclic, topologically consistent, and bottom-level monotone.
func TestPropertyRandomDepStreams(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(190)
		keys := 1 + rng.Intn(12)
		costs, stream := randomStream(rng, n, keys)
		g := buildFromStream(costs, stream)
		checkGraphProperties(t, g)
	}
}

// Property: dependence-stream construction is deterministic — the same
// stream always yields an identical graph (edge sets included).
func TestPropertyDepStreamDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	costs, stream := randomStream(rng, 150, 6)
	a := buildFromStream(costs, stream)
	b := buildFromStream(costs, stream)
	if a.Len() != b.Len() {
		t.Fatalf("sizes differ: %d vs %d", a.Len(), b.Len())
	}
	for _, n := range a.Nodes() {
		sa, sb := n.Succs(), b.Node(n.ID).Succs()
		if len(sa) != len(sb) {
			t.Fatalf("node %d: succ counts differ (%v vs %v)", n.ID, sa, sb)
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("node %d: succ order differs (%v vs %v)", n.ID, sa, sb)
			}
		}
	}
}

// Property: within a key, a reader is ordered after the last writer and
// before the next writer (the renaming contract the stream construction
// must encode).
func TestPropertyReaderWindowOrdering(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		costs, stream := randomStream(rng, 120, 4)
		g := buildFromStream(costs, stream)
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		pos := make([]int, g.Len())
		for i, id := range order {
			pos[id] = i
		}
		lastWriter := map[int]int{} // key -> node index
		readers := map[int][]int{}
		for i, op := range stream {
			switch op.mode {
			case 0:
				if w, ok := lastWriter[op.key]; ok && pos[w] >= pos[i] {
					t.Fatalf("seed %d: reader %d not after writer %d on key %d", seed, i, w, op.key)
				}
				readers[op.key] = append(readers[op.key], i)
			default:
				for _, r := range readers[op.key] {
					if pos[r] >= pos[i] {
						t.Fatalf("seed %d: writer %d not after reader %d on key %d", seed, i, r, op.key)
					}
				}
				if w, ok := lastWriter[op.key]; ok && pos[w] >= pos[i] {
					t.Fatalf("seed %d: writer %d not after writer %d on key %d", seed, i, w, op.key)
				}
				lastWriter[op.key] = i
				readers[op.key] = nil
			}
		}
	}
}

// The named generators must all satisfy the same invariants.
func TestPropertyGenerators(t *testing.T) {
	checkGraphProperties(t, Cholesky(6, 1))
	checkGraphProperties(t, Chain(64, 2))
	checkGraphProperties(t, Embarrassing(64, 1))
	for seed := int64(0); seed < 10; seed++ {
		checkGraphProperties(t, RandomDAG(6, 8, seed))
	}
}

// Builder: concurrent node/edge registration must be safe and the handed-
// off graph must satisfy every structural invariant. Run with -race.
func TestBuilderConcurrent(t *testing.T) {
	b := NewBuilder()
	const producers = 8
	const perProducer = 50
	ids := make([][]NodeID, producers)
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			ids[p] = make([]NodeID, perProducer)
			for i := 0; i < perProducer; i++ {
				ids[p][i] = b.AddNode(fmt.Sprintf("p%d.%d", p, i), float64(1+i%7))
			}
			// Chain each producer's own nodes: edges only ever go from an
			// earlier to a later AddNode, so the result stays acyclic.
			for i := 1; i < perProducer; i++ {
				b.AddEdge(ids[p][i-1], ids[p][i])
			}
		}(p)
	}
	wg.Wait()
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != producers*perProducer {
		t.Fatalf("builder has %d nodes, want %d", b.Len(), producers*perProducer)
	}
	g := b.Graph()
	checkGraphProperties(t, g)
	if g.Len() != producers*perProducer {
		t.Fatalf("graph has %d nodes, want %d", g.Len(), producers*perProducer)
	}
}

func TestBuilderBadEdgeSurfaces(t *testing.T) {
	b := NewBuilder()
	n := b.AddNode("only", 1)
	b.AddEdge(n, NodeID(99))
	if b.Err() == nil {
		t.Fatal("edge to unknown node must surface through Err")
	}
}

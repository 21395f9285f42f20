package tdg

import (
	"strings"
	"testing"
	"testing/quick"
)

// diamond builds a -> {b, c} -> d with the given costs.
func diamond(ca, cb, cc, cd float64) *Graph {
	g := New()
	a := g.AddNode("a", ca)
	b := g.AddNode("b", cb)
	c := g.AddNode("c", cc)
	d := g.AddNode("d", cd)
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := New()
	a := g.AddNode("a", 1)
	if err := g.AddEdge(a, a); err == nil {
		t.Fatalf("self edge must fail")
	}
	if err := g.AddEdge(a, 99); err == nil {
		t.Fatalf("unknown node must fail")
	}
	b := g.AddNode("b", 1)
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	// Duplicate edges are idempotent.
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if len(g.Node(a).Succs()) != 1 || len(g.Node(b).Preds()) != 1 {
		t.Fatalf("duplicate edge must not double-count")
	}
}

func TestRootsAndTopo(t *testing.T) {
	g := diamond(1, 2, 3, 4)
	roots := g.Roots()
	if len(roots) != 1 || roots[0] != 0 {
		t.Fatalf("roots = %v", roots)
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, n := range g.Nodes() {
		for _, s := range n.Succs() {
			if pos[n.ID] >= pos[s] {
				t.Fatalf("topo violated: %d before %d", s, n.ID)
			}
		}
	}
}

func TestCycleDetected(t *testing.T) {
	g := New()
	a := g.AddNode("a", 1)
	b := g.AddNode("b", 1)
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	if _, err := g.TopoOrder(); err == nil {
		t.Fatalf("cycle must be detected")
	}
	if _, err := g.BottomLevels(); err == nil {
		t.Fatalf("bottom levels on cyclic graph must fail")
	}
}

func TestBottomLevelsDiamond(t *testing.T) {
	g := diamond(1, 2, 3, 4)
	bl, err := g.BottomLevels()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{8, 6, 7, 4} // a: 1+max(6,7)=8, b: 2+4, c: 3+4, d: 4
	for i, w := range want {
		if bl[i] != w {
			t.Fatalf("bl[%d] = %v, want %v", i, bl[i], w)
		}
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	g := diamond(1, 2, 3, 4)
	path, cost, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if cost != 8 {
		t.Fatalf("critical path cost = %v, want 8", cost)
	}
	want := []NodeID{0, 2, 3} // a -> c -> d
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestMarkCritical(t *testing.T) {
	g := diamond(1, 2, 3, 4)
	crit, err := g.MarkCritical(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, true}
	for i := range want {
		if crit[i] != want[i] {
			t.Fatalf("crit = %v, want %v", crit, want)
		}
	}
	// With enough slack, everything is critical (b's through-path is 7 >= 8*(1-0.2)).
	crit, _ = g.MarkCritical(0.2)
	for i, c := range crit {
		if !c {
			t.Fatalf("node %d should be near-critical with slack", i)
		}
	}
}

func TestParallelismMetrics(t *testing.T) {
	g := Embarrassing(10, 5)
	mp, err := g.MaxParallelism()
	if err != nil {
		t.Fatal(err)
	}
	if mp != 10 {
		t.Fatalf("embarrassing parallelism = %v, want 10", mp)
	}
	c := Chain(10, 5)
	mp, _ = c.MaxParallelism()
	if mp != 1 {
		t.Fatalf("chain parallelism = %v, want 1", mp)
	}
}

func TestCholeskyStructure(t *testing.T) {
	g := Cholesky(4, 100)
	// Node count for n=4: sum over k of 1 + (n-k-1) + T(n-k-1) where T is
	// the triangular count: k=0: 1+3+6, k=1: 1+2+3, k=2: 1+1+1, k=3: 1.
	if g.Len() != 10+6+3+1 {
		t.Fatalf("cholesky(4) nodes = %d, want 20", g.Len())
	}
	if _, err := g.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	// The first potrf must start the graph; the last potrf must end it.
	roots := g.Roots()
	if len(roots) != 1 || g.Node(roots[0]).Name != "potrf(0)" {
		t.Fatalf("cholesky must start at potrf(0), roots=%v", roots)
	}
	_, cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if cp <= 0 || cp >= g.TotalCost() {
		t.Fatalf("critical path %v out of range (total %v)", cp, g.TotalCost())
	}
}

func TestDOT(t *testing.T) {
	g := diamond(1, 2, 3, 4)
	dot := g.DOT("d")
	for _, want := range []string{"digraph", "n0 -> n1", "n2 -> n3", "lightcoral"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

// Property: for random DAGs, the critical path cost is at least the maximum
// node cost and at most the total cost, and bottom levels are monotone along
// edges (bl[pred] > bl[succ]).
func TestQuickCriticalPathBounds(t *testing.T) {
	f := func(seed int64, l, w uint8) bool {
		layers := int(l%5) + 1
		width := int(w%5) + 1
		g := RandomDAG(layers, width, seed)
		bl, err := g.BottomLevels()
		if err != nil {
			return false
		}
		for _, n := range g.Nodes() {
			for _, s := range n.Succs() {
				if bl[n.ID] <= bl[s] {
					return false
				}
			}
		}
		_, cp, err := g.CriticalPath()
		if err != nil {
			return false
		}
		var maxCost float64
		for _, n := range g.Nodes() {
			if n.Cost > maxCost {
				maxCost = n.Cost
			}
		}
		return cp >= maxCost-1e-9 && cp <= g.TotalCost()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: critical-path nodes with zero slack always include the ends of
// the reported critical path.
func TestQuickCriticalMarkIncludesPath(t *testing.T) {
	f := func(seed int64) bool {
		g := RandomDAG(4, 4, seed)
		path, _, err := g.CriticalPath()
		if err != nil {
			return false
		}
		crit, err := g.MarkCritical(0)
		if err != nil {
			return false
		}
		for _, id := range path {
			if !crit[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

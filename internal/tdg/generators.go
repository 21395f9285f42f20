package tdg

import (
	"fmt"
	"math/rand"
)

// Cholesky builds the TDG of a blocked (tiled) Cholesky factorisation over
// an n×n matrix of blocks — the canonical heterogeneous task graph of the
// OmpSs literature and the workload class behind the paper's Section 3.1
// evaluation. Task kinds and their relative costs:
//
//	potrf  diagonal factorisation   (cost 1×)
//	trsm   triangular solve         (cost 2×)
//	syrk   symmetric rank-k update  (cost 2×)
//	gemm   matrix multiply          (cost 3×)
//
// unitCost scales all of them.
func Cholesky(n int, unitCost float64) *Graph {
	g := New()
	// writer[i][j] is the last task that wrote block (i,j).
	writer := make([][]NodeID, n)
	for i := range writer {
		writer[i] = make([]NodeID, n)
		for j := range writer[i] {
			writer[i][j] = -1
		}
	}
	dep := func(task NodeID, i, j int) {
		if w := writer[i][j]; w >= 0 && w != task {
			g.AddEdge(w, task)
		}
	}
	for k := 0; k < n; k++ {
		potrf := g.AddNode(fmt.Sprintf("potrf(%d)", k), 1*unitCost)
		dep(potrf, k, k)
		writer[k][k] = potrf
		for i := k + 1; i < n; i++ {
			trsm := g.AddNode(fmt.Sprintf("trsm(%d,%d)", i, k), 2*unitCost)
			dep(trsm, k, k)
			dep(trsm, i, k)
			writer[i][k] = trsm
		}
		for i := k + 1; i < n; i++ {
			for j := k + 1; j <= i; j++ {
				if i == j {
					syrk := g.AddNode(fmt.Sprintf("syrk(%d,%d)", i, k), 2*unitCost)
					dep(syrk, i, k)
					dep(syrk, i, i)
					writer[i][i] = syrk
				} else {
					gemm := g.AddNode(fmt.Sprintf("gemm(%d,%d,%d)", i, j, k), 3*unitCost)
					dep(gemm, i, k)
					dep(gemm, j, k)
					dep(gemm, i, j)
					writer[i][j] = gemm
				}
			}
		}
	}
	return g
}

// Chain builds a linear dependence chain of n tasks (worst-case graph: no
// parallelism, everything critical).
func Chain(n int, cost float64) *Graph {
	g := New()
	var prev NodeID = -1
	for i := 0; i < n; i++ {
		id := g.AddNode(fmt.Sprintf("t%d", i), cost)
		if prev >= 0 {
			g.AddEdge(prev, id)
		}
		prev = id
	}
	return g
}

// Embarrassing builds n independent tasks (best-case graph).
func Embarrassing(n int, cost float64) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("t%d", i), cost)
	}
	return g
}

// RandomDAG builds a random layered DAG for property tests: nodes in later
// layers depend on random subsets of earlier layers. Deterministic per seed.
func RandomDAG(layers, width int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	var prev []NodeID
	for l := 0; l < layers; l++ {
		var cur []NodeID
		for w := 0; w < width; w++ {
			id := g.AddNode(fmt.Sprintf("n%d.%d", l, w), 1+rng.Float64()*9)
			for _, p := range prev {
				if rng.Intn(3) == 0 {
					g.AddEdge(p, id)
				}
			}
			cur = append(cur, id)
		}
		prev = cur
	}
	return g
}

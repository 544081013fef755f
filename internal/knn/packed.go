package knn

import (
	"math"

	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// Batched kernels: a leaf's scan is one staged kernel call on its block,
// which stops the page's distances at the search's bound
// (slab.Slab.DistsWithin), and a directory's scan is one staged MINDIST
// call on its child rectangle slab. The distances the kernels finish are
// the scalar arithmetic's bit for bit (see the slab package), and the
// ones they stop are provably above the bound, where they could neither
// enter the k-best nor be pushed — so every candidate, every push
// decision and every tie-break is the scalar loop's; only the constant
// factor changes.

// scratch holds the per-search batch buffers, grown to the largest page
// seen, so the batched kernels allocate once per search instead of once
// per page.
type scratch struct {
	dists []float64
	keep  []int32
}

func (sc *scratch) grow(n int) []float64 {
	if cap(sc.dists) < n {
		sc.dists = make([]float64, n)
	}
	return sc.dists[:n]
}

// scanLeaf offers the leaf's entries to best and, when local is not nil,
// their rank distances to local (the leaf's tree's own k best). The
// kernel stops at the larger of the two bounds at the page's start, and
// only the entries it finishes are offered: an entry beyond that bound
// improves neither.
func scanLeaf(n *xtree.Node, q vec.Point, m vec.Metric, best *kBest, local *kRanks, sc *scratch) {
	bound := best.bound()
	if local != nil {
		bound = max(bound, local.bound())
	}
	out := sc.grow(n.Len())
	sc.keep = n.Block().DistsWithin(q, m, bound, out, sc.keep)
	for _, i := range sc.keep {
		best.offer(n, int(i), out[i])
		if local != nil {
			local.offer(out[i])
		}
	}
}

// pushChildren pushes every child with rank MINDIST <= bound onto the
// queue as a node of tree number tree, staging the MINDIST computation at
// bound, and returns the smallest MINDIST of the children it pruned (+inf
// if none). A child the staged kernel dropped contributes its partial
// MINDIST: smaller than its MINDIST, so still a lower bound on it, and
// above bound.
func pushChildren(pq *pqueue[nodeItem], n *xtree.Node, tree int, q vec.Point, m vec.Metric, bound float64, sc *scratch) (pruned float64) {
	pruned = math.Inf(1)
	rs := n.ChildRects()
	out := sc.grow(rs.Len())
	sc.keep = rs.MinDistsWithin(q, m, bound, out, sc.keep)
	for i, c := range n.Children() {
		if out[i] <= bound {
			pq.push(nodeItem{node: c, sqMinDist: out[i], tree: tree})
		} else {
			pruned = min(pruned, out[i])
		}
	}
	return pruned
}

package knn

import (
	"math"

	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// Packed-mode fast paths: when the tree maintains slab caches
// (xtree.Config.Packed), the leaf and directory scans below replace the
// per-entry scalar kernels with one batched kernel call per page. The
// batched kernels reproduce the scalar arithmetic bit for bit (see the
// slab package), so every candidate distance, every push decision and
// every tie-break is identical to the unpacked path — only the constant
// factor changes.

// scratch holds the per-search batch buffer, grown to the largest page
// seen, so the batched kernels allocate once per search instead of once
// per page.
type scratch struct {
	dists []float64
}

func (sc *scratch) grow(n int) []float64 {
	if cap(sc.dists) < n {
		sc.dists = make([]float64, n)
	}
	return sc.dists[:n]
}

// scanLeaf offers every entry of the leaf to best and, when local is
// not nil, its rank distance to local (the leaf's tree's own k best).
func scanLeaf(n *xtree.Node, q vec.Point, m vec.Metric, best *kBest, local *kRanks, sc *scratch) {
	entries := n.Entries()
	var out []float64
	if s := n.PageSlab(); s != nil {
		out = sc.grow(s.Len())
		s.DistsToPage(q, m, out)
	} else {
		out = sc.grow(len(entries))
		for i, e := range entries {
			out[i] = m.RankDist(q, e.Point)
		}
	}
	for i, e := range entries {
		best.offer(e, out[i])
	}
	if local != nil {
		for _, d := range out {
			local.offer(d)
		}
	}
}

// pushChildren pushes every child with rank MINDIST <= bound onto the
// queue as a node of tree number tree, batching the MINDIST computation
// on packed trees, and returns the smallest MINDIST of the children it
// pruned (+inf if none).
func pushChildren(pq *pqueue[nodeItem], n *xtree.Node, tree int, q vec.Point, m vec.Metric, bound float64, sc *scratch) (pruned float64) {
	pruned = math.Inf(1)
	children := n.Children()
	if rs := n.ChildRects(); rs != nil {
		out := sc.grow(rs.Len())
		rs.MinDistsToPage(q, m, out)
		for i, c := range children {
			if out[i] <= bound {
				pq.push(nodeItem{node: c, sqMinDist: out[i], tree: tree})
			} else {
				pruned = min(pruned, out[i])
			}
		}
		return pruned
	}
	for _, c := range children {
		if d := m.RankMinDist(c.Rect(), q); d <= bound {
			pq.push(nodeItem{node: c, sqMinDist: d, tree: tree})
		} else {
			pruned = min(pruned, d)
		}
	}
	return pruned
}

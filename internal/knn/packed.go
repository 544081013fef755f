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

// scanLeaf offers every entry of the leaf to best.
func scanLeaf(n *xtree.Node, q vec.Point, m vec.Metric, best *kBest, sc *scratch) {
	entries := n.Entries()
	s := n.PageSlab()
	if s == nil {
		for _, e := range entries {
			best.offer(e, m.RankDist(q, e.Point))
		}
		return
	}
	out := sc.grow(s.Len())
	s.DistsToPage(q, m, out)
	for i, e := range entries {
		best.offer(e, out[i])
	}
}

// pushChildren pushes every child with rank MINDIST <= bound onto the
// queue, batching the MINDIST computation on packed trees, and returns
// the smallest MINDIST of the children it pruned (+inf if none).
func pushChildren(pq *pqueue[nodeItem], n *xtree.Node, q vec.Point, m vec.Metric, bound float64, sc *scratch) (pruned float64) {
	pruned = math.Inf(1)
	children := n.Children()
	if rs := n.ChildRects(); rs != nil {
		out := sc.grow(rs.Len())
		rs.MinDistsToPage(q, m, out)
		for i, c := range children {
			if out[i] <= bound {
				pq.push(nodeItem{node: c, sqMinDist: out[i]})
			} else {
				pruned = min(pruned, out[i])
			}
		}
		return pruned
	}
	for _, c := range children {
		if d := m.RankMinDist(c.Rect(), q); d <= bound {
			pq.push(nodeItem{node: c, sqMinDist: d})
		} else {
			pruned = min(pruned, d)
		}
	}
	return pruned
}

package knn

import (
	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// Packed-mode fast paths: when the tree maintains slab caches
// (xtree.Config.Packed), the leaf and directory scans below replace the
// per-entry scalar kernels with one batched kernel call per page. The
// batched kernels reproduce the scalar arithmetic bit for bit (see the
// slab package), so every candidate distance, every push decision and
// every tie-break is identical to the unpacked path — only the constant
// factor changes. On quantized slabs the leaf scan additionally skips
// the exact distance of points whose SQ8 lower bound already exceeds
// the current k-th-best distance; such points could never enter the
// k-set (kBest.offer replaces on strictly smaller distances only), so
// the results stay identical while the skips are counted as
// Accounting.DistCompsSkipped.

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

// scanLeaf offers every entry of the leaf to best and returns how many
// exact distance computations the SQ8 pre-filter skipped (0 without
// quantization or on unpacked trees).
func scanLeaf(n *xtree.Node, q vec.Point, m vec.Metric, best *kBest, sc *scratch) int {
	entries := n.Entries()
	s := n.PageSlab()
	if s == nil {
		for _, e := range entries {
			best.offer(e, m.RankDist(q, e.Point))
		}
		return 0
	}
	out := sc.grow(s.Len())
	if s.Quantized() {
		s.LowerBounds(q, m, out)
		skipped := 0
		for i, e := range entries {
			// bound() is live: each offer may tighten it, widening the
			// skip window for the rest of the page. A skipped point has
			// exact distance >= lower bound > bound, and offer only
			// replaces on strictly smaller distances, so skipping it
			// cannot change the k-set or any tie-break.
			if out[i] > best.bound() {
				skipped++
				continue
			}
			best.offer(e, s.DistTo(i, q, m))
		}
		return skipped
	}
	s.DistsToPage(q, m, out)
	for i, e := range entries {
		best.offer(e, out[i])
	}
	return 0
}

// pushChildren pushes every child with rank MINDIST <= bound onto the
// queue, batching the MINDIST computation on packed trees.
func pushChildren(pq *pqueue[nodeItem], n *xtree.Node, q vec.Point, m vec.Metric, bound float64, sc *scratch) {
	children := n.Children()
	if rs := n.ChildRects(); rs != nil {
		out := sc.grow(rs.Len())
		rs.MinDistsToPage(q, m, out)
		for i, c := range children {
			if out[i] <= bound {
				pq.push(nodeItem{node: c, sqMinDist: out[i]})
			}
		}
		return
	}
	for _, c := range children {
		if d := m.RankMinDist(c.Rect(), q); d <= bound {
			pq.push(nodeItem{node: c, sqMinDist: d})
		}
	}
}

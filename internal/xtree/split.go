package xtree

import (
	"math"
	"sort"

	"parsearch/internal/vec"
)

// splitLeaf splits an overfull leaf, whose entries (in the tree's
// scratch) are given, with the R*-tree topological split and returns the
// new sibling. Point data always admits a balanced split, so leaves never
// become supernodes.
func (t *Tree) splitLeaf(n *Node, entries []Entry) *Node {
	t.stats.Splits++
	axis, k := t.chooseLeafSplit(entries)
	sortEntriesByAxis(entries, axis)

	sibling := &Node{leaf: true, super: 1, pack: packRebuild, gen: t.gen}
	t.setLeaf(n, entries[:k])
	t.setLeaf(sibling, entries[k:])
	n.history |= 1 << uint(axis)
	sibling.history = n.history
	n.recomputeRect()
	sibling.recomputeRect()
	return sibling
}

// chooseLeafSplit is the R* topological split for point entries.
func (t *Tree) chooseLeafSplit(entries []Entry) (axis, k int) {
	return t.chooseSplit(len(entries), func(a int) { sortEntriesByAxis(entries, a) },
		func(i int) (lo, hi vec.Point) { return entries[i].Point, entries[i].Point })
}

// splitDir splits an overfull directory node. It first tries the R*
// topological split; if the resulting MBRs overlap more than the X-tree
// threshold, it tries the overlap-minimal split based on the children's
// split history; if that split would be unbalanced, the node becomes a
// supernode instead and no split happens (nil is returned).
func (t *Tree) splitDir(n *Node) *Node {
	n.flag(packRebuild) // the split choosers reorder the children
	children := n.children

	// 1. Topological (R*) split.
	axis, k := t.chooseDirSplit(children)
	sortNodesByAxis(children, axis)
	r1 := mbrOfNodes(children[:k])
	r2 := mbrOfNodes(children[k:])

	if overlapRatio(r1, r2) <= t.cfg.MaxOverlap {
		t.stats.Splits++
		return t.finishDirSplit(n, k, axis)
	}

	// 2. Overlap-minimal split: a dimension along which every child's
	// region has been split admits a cut position where no child MBR
	// straddles the cut, i.e. an overlap-free split. The original
	// algorithm replays the split history tree; equivalently, we scan
	// the dimensions in the intersection of the children's history
	// bitmasks for the overlap-free cut closest to the middle. If the
	// best such cut is unbalanced (one side below MinFanout), the
	// X-tree refuses to split and extends the node into a supernode.
	common := ^uint64(0)
	for _, c := range children {
		common &= c.history
	}
	if dim, cut, ok := bestOverlapFreeCut(children, common, t.cfg.Dim); ok {
		minSide := int(math.Ceil(t.cfg.MinFanout * float64(len(children))))
		if cut >= minSide && len(children)-cut >= minSide {
			t.stats.Splits++
			t.stats.OverlapMinimalSplits++
			return t.finishDirSplit(n, cut, dim)
		}
	}

	// 3. No good split: extend the node into a (larger) supernode.
	t.stats.Supernodes++
	n.super++
	return nil
}

// bestOverlapFreeCut searches the dimensions set in the history mask for
// the overlap-free cut closest to the middle of the children list. A cut
// at index k along dim is overlap-free when every child MBR lies entirely
// on one side: max over children[:k] of Max[dim] <= min over children[k:]
// of Min[dim] after sorting along dim.
// On success the children are left sorted along the returned dimension,
// so the caller can cut the slice directly.
func bestOverlapFreeCut(children []*Node, history uint64, d int) (dim, cut int, ok bool) {
	n := len(children)
	bestDist := n + 1
	for a := 0; a < d; a++ {
		if history&(1<<uint(a)) == 0 {
			continue
		}
		sortNodesByAxis(children, a)
		prefixMax := children[0].rect.Max[a]
		for k := 1; k < n; k++ {
			if prefixMax <= children[k].rect.Min[a] {
				dist := k - n/2
				if dist < 0 {
					dist = -dist
				}
				if dist < bestDist {
					dim, cut, ok, bestDist = a, k, true, dist
				}
			}
			if children[k].rect.Max[a] > prefixMax {
				prefixMax = children[k].rect.Max[a]
			}
		}
	}
	if !ok {
		return 0, 0, false
	}
	// Restore the sort order of the winning dimension (the loop may have
	// finished on another one) and re-verify the cut: sort.Slice is not
	// stable, so tied keys could reorder; reject the cut in that case
	// rather than produce an overlapping "overlap-free" split.
	sortNodesByAxis(children, dim)
	prefixMax := children[0].rect.Max[dim]
	for k := 1; k <= cut; k++ {
		if k == cut {
			if prefixMax > children[k].rect.Min[dim] {
				return 0, 0, false
			}
			break
		}
		if children[k].rect.Max[dim] > prefixMax {
			prefixMax = children[k].rect.Max[dim]
		}
	}
	return dim, cut, true
}

// finishDirSplit moves children[k:] into a new sibling and records the
// split dimension in both histories. Splitting a supernode can leave
// either side larger than one block, so each side's supernode multiplier
// is recomputed from its actual size (supernodes shrink back to normal
// nodes when a split makes that possible).
func (t *Tree) finishDirSplit(n *Node, k, axis int) *Node {
	right := make([]*Node, len(n.children)-k)
	copy(right, n.children[k:])
	n.children = n.children[:k]

	sibling := &Node{leaf: false, children: right, super: superFor(len(right), t.cfg.DirCapacity), pack: packRebuild, gen: t.gen}
	n.super = superFor(len(n.children), t.cfg.DirCapacity)
	n.history |= 1 << uint(axis)
	sibling.history = n.history
	n.recomputeRect()
	sibling.recomputeRect()
	return sibling
}

// superFor returns the smallest supernode multiplier that fits count
// children with the given base capacity, at least 1.
func superFor(count, capacity int) int32 {
	s := (count + capacity - 1) / capacity
	if s < 1 {
		s = 1
	}
	return int32(s)
}

// chooseDirSplit is the R* topological split for directory children.
func (t *Tree) chooseDirSplit(children []*Node) (axis, k int) {
	return t.chooseSplit(len(children), func(a int) { sortNodesByAxis(children, a) },
		func(i int) (lo, hi vec.Point) { return children[i].rect.Min, children[i].rect.Max })
}

// chooseSplit implements the R* split over n boxes (a point is a
// degenerate box) that sortBy orders along an axis: the split axis
// minimizes the total margin over all distributions; the split index
// minimizes overlap (ties: total area). Both sides of every cut come
// from one prefix and suffix sweep per axis (see mbrSweep), so each
// axis costs O(n·d) instead of O(n²·d).
func (t *Tree) chooseSplit(n int, sortBy func(axis int), box func(i int) (lo, hi vec.Point)) (axis, k int) {
	m := t.minFillOf(n)
	w := newMBRSweep(n, t.cfg.Dim)

	bestAxis, bestMargin := 0, math.Inf(1)
	for a := 0; a < t.cfg.Dim; a++ {
		sortBy(a)
		w.fill(box)
		margin := 0.0
		for s := m; s <= n-m; s++ {
			r1, r2 := w.cut(s)
			margin += r1.Margin() + r2.Margin()
		}
		if margin < bestMargin {
			bestAxis, bestMargin = a, margin
		}
	}

	sortBy(bestAxis)
	w.fill(box)
	bestK, bestOverlap, bestArea := m, math.Inf(1), math.Inf(1)
	for s := m; s <= n-m; s++ {
		r1, r2 := w.cut(s)
		ov := r1.OverlapArea(r2)
		area := r1.Area() + r2.Area()
		if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestK, bestOverlap, bestArea = s, ov, area
		}
	}
	return bestAxis, bestK
}

// mbrSweep holds the MBR of every prefix and every suffix of n boxes in
// their current order, each rectangle 2·d floats (Min, then Max).
//
// A prefix extends boxes 0, 1, … in leafMBR's and mbrOfNodes' order
// with their comparisons, so it is bit for bit their MBR. A suffix
// extends from the last box down: its min and max per dimension are the
// same values, differing at most in the sign of a zero, which compares
// equal — so every margin, overlap and area comparison decides as on the
// forward MBR (coordinates are never NaN: the index refuses them). The
// rectangles are scratch; a split's nodes get their MBRs from
// recomputeRect.
type mbrSweep struct {
	n, d     int
	pre, suf []float64
}

func newMBRSweep(n, d int) *mbrSweep {
	return &mbrSweep{n: n, d: d, pre: make([]float64, 2*d*n), suf: make([]float64, 2*d*n)}
}

// rect returns rectangle i of a sweep array.
func (w *mbrSweep) rect(rs []float64, i int) vec.Rect {
	o := 2 * w.d * i
	return vec.Rect{Min: rs[o : o+w.d : o+w.d], Max: rs[o+w.d : o+2*w.d : o+2*w.d]}
}

// fill sweeps the boxes in their current order.
func (w *mbrSweep) fill(box func(i int) (lo, hi vec.Point)) {
	w.sweep(w.pre, 0, 1, box)
	w.sweep(w.suf, w.n-1, -1, box)
}

// sweep fills rs[i] with the MBR of boxes first … i, for i stepping
// from first by step.
func (w *mbrSweep) sweep(rs []float64, first, step int, box func(i int) (lo, hi vec.Point)) {
	lo, hi := box(first)
	r := w.rect(rs, first)
	copy(r.Min, lo)
	copy(r.Max, hi)
	for i := first + step; i >= 0 && i < w.n; i += step {
		prev := r
		r = w.rect(rs, i)
		copy(r.Min, prev.Min)
		copy(r.Max, prev.Max)
		lo, hi := box(i)
		r.ExtendRect(vec.Rect{Min: lo, Max: hi})
	}
}

// cut returns the MBRs of boxes [0, s) and [s, n).
func (w *mbrSweep) cut(s int) (left, right vec.Rect) {
	return w.rect(w.pre, s-1), w.rect(w.suf, s)
}

// minFillOf returns the minimum number of items per side when splitting a
// node that currently holds count items. Deriving it from the actual count
// rather than the base capacity keeps supernode splits balanced too.
func (t *Tree) minFillOf(count int) int {
	m := int(t.cfg.MinFill * float64(count))
	if m < 1 {
		m = 1
	}
	return m
}

// overlapRatio is the X-tree split quality measure: the volume of the
// intersection relative to the volume of the union of the two MBRs, in
// [0, 1]. Zero-volume unions (possible with point-degenerate MBRs in some
// dimensions) count as fully overlapping when the intersection is
// non-empty in every dimension.
func overlapRatio(a, b vec.Rect) float64 {
	union := a.Union(b).Area()
	if union == 0 {
		if a.Intersects(b) {
			return 1
		}
		return 0
	}
	return a.OverlapArea(b) / union
}

// recomputeRect rebuilds the node's MBR from its payload.
func (n *Node) recomputeRect() {
	if n.leaf {
		n.rect = leafMBR(n)
		return
	}
	n.rect = mbrOfNodes(n.children)
}

// mbrOfNodes returns the MBR of the given nodes' rectangles.
func mbrOfNodes(nodes []*Node) vec.Rect {
	r := nodes[0].rect.Clone()
	for _, n := range nodes[1:] {
		r.ExtendRect(n.rect)
	}
	return r
}

// sortEntriesByAxis sorts entries by their coordinate along the axis.
func sortEntriesByAxis(entries []Entry, axis int) {
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].Point[axis] < entries[j].Point[axis]
	})
}

// sortNodesByAxis sorts nodes by rectangle center along the axis (R* sorts
// by lower then upper boundary; for the splits here the center is an
// equivalent single key).
func sortNodesByAxis(nodes []*Node, axis int) {
	sort.Slice(nodes, func(i, j int) bool {
		ci := nodes[i].rect.Min[axis] + nodes[i].rect.Max[axis]
		cj := nodes[j].rect.Min[axis] + nodes[j].rect.Max[axis]
		return ci < cj
	})
}

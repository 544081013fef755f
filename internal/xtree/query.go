package xtree

import (
	"fmt"
	"math/bits"

	"parsearch/internal/vec"
)

// Visited counts the nodes a RangeSearch visited.
type Visited struct {
	// Nodes is every node visited: the page access count of the query.
	Nodes int
	// Leaves is the leaves among them. RangeSearch enters exactly the
	// children whose MBR intersects the box, as HitLeaves does for
	// Region{Box: &box}, so these are the leaves that region hits.
	Leaves int
}

// RangeSearch returns all entries whose points lie inside r (boundary
// inclusive), their points copied into one new array, and the nodes it
// visited.
func (t *Tree) RangeSearch(r vec.Rect) ([]Entry, Visited) {
	type hit struct {
		leaf *Node
		i    int
	}
	var hits []hit
	v := t.RangeVisit(r, func(leaf *Node, i int) { hits = append(hits, hit{leaf, i}) })
	if len(hits) == 0 {
		return nil, v
	}
	d := t.cfg.Dim
	out := make([]Entry, len(hits))
	coords := make([]float64, len(hits)*d)
	for k, h := range hits {
		p := coords[k*d : (k+1)*d : (k+1)*d]
		h.leaf.PointAt(h.i, p)
		out[k] = Entry{Point: p, ID: h.leaf.ID(h.i)}
	}
	return out, v
}

// RangeVisit calls visit with every leaf entry whose point lies inside r
// (boundary inclusive), leaf by leaf in Leaves order and in slot order
// within a leaf, and returns the nodes it visited. A leaf is tested with
// one staged containment pass over its block (slab.Slab.Inside).
func (t *Tree) RangeVisit(r vec.Rect, visit func(leaf *Node, i int)) Visited {
	w := rangeWalk{r: r, visit: visit}
	if t.root != nil && t.root.rect.Intersects(r) {
		if t.cfg.LeafCapacity > len(w.buf) {
			w.keep = make([]int32, t.cfg.LeafCapacity)
		} else {
			w.keep = w.buf[:]
		}
		w.walk(t.root)
	}
	return w.v
}

// rangeWalk is one RangeVisit: the box, the visitor, the containment
// kernel's keep list and the count. The keep list has room for a leaf
// and for a directory of 64 children (Node.meets). It lives in this
// frame when leaves hold at most 64 entries (LeafCapacity at d >= 8 on
// 4 KB pages): its 256 bytes are what the per-disk goroutines' stacks
// already held, and a larger frame costs them stack growth.
type rangeWalk struct {
	r     vec.Rect
	visit func(leaf *Node, i int)
	v     Visited
	keep  []int32
	buf   [64]int32
}

func (w *rangeWalk) walk(n *Node) {
	w.v.Nodes++
	if n.leaf {
		w.v.Leaves++
		for _, i := range n.block.Inside(w.r.Min, w.r.Max, w.keep) {
			w.visit(n, int(i))
		}
		return
	}
	if hit, ok := n.meets(w.r, w.keep); ok {
		for ; hit != 0; hit &= hit - 1 {
			w.walk(n.children[bits.TrailingZeros64(hit)])
		}
		return
	}
	for _, c := range n.children {
		if c.rect.Intersects(w.r) {
			w.walk(c)
		}
	}
}

// meets returns, as a mask over child positions, the children of the
// directory node n whose MBR shares a point with box: one staged pass of
// the containment kernel over the node's rectangle slab
// (slab.RectSlab.Meets), with keep, room for 64 entries, as its scratch.
// The slab holds the children's MBRs exactly, so the set is that of
// vec.Rect.Intersects. A mask carries the hits through the descent
// below in 8 bytes of the caller's frame, where a keep list would need
// its own buffer in every frame. It returns false for a node of more
// than 64 children (a supernode, or a directory page at d <= 3), whose
// children the caller tests one by one with vec.Rect.Intersects.
func (n *Node) meets(box vec.Rect, keep []int32) (hit uint64, ok bool) {
	if len(n.children) > 64 {
		return 0, false
	}
	for _, i := range n.crects.Meets(box.Min, box.Max, keep) {
		hit |= 1 << i
	}
	return hit, true
}

// PointSearch returns the entries stored exactly at p.
func (t *Tree) PointSearch(p vec.Point) []Entry {
	out, _ := t.RangeSearch(vec.PointRect(p))
	return out
}

// Leaves returns all leaf nodes in depth-first order. It allocates the
// whole list and touches every leaf; no query calls it, only integrity
// checks. It is the tests' reference enumeration — what HitLeaves, with
// which a query enumerates the leaves it must read, and EachLeaf are
// checked against.
func (t *Tree) Leaves() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.leaf {
			out = append(out, n)
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	return out
}

// EachLeaf calls visit for every leaf in the order Leaves yields them,
// and allocates nothing. A loaded tree's leaves hold its points, a
// leaf's in one array, so a pass over every point of the tree reads
// memory in order when it walks them.
func (t *Tree) EachLeaf(visit func(leaf *Node)) {
	if t.root != nil {
		eachLeaf(t.root, visit)
	}
}

func eachLeaf(n *Node, visit func(leaf *Node)) {
	if n.leaf {
		visit(n)
		return
	}
	for _, c := range n.children {
		eachLeaf(c, visit)
	}
}

// Region is the part of the data space a query must read: the box of a
// range query, or (Box nil) the NN-sphere of a k-NN query — the ball
// around Q under M whose radius is Rank in the metric's rank space.
type Region struct {
	Box  *vec.Rect
	Q    vec.Point
	M    vec.Metric
	Rank float64
}

// Hits reports whether the rectangle of a storage unit intersects g.
func (g *Region) Hits(page vec.Rect) bool {
	if g.Box != nil {
		return page.Intersects(*g.Box)
	}
	return g.M.RankMinDist(page, g.Q) <= g.Rank
}

// HitLeaves calls visit for every leaf whose MBR g hits, in the order
// Leaves yields them, and allocates nothing. It descends only into
// children whose own MBR g hits, so its cost follows the hit leaves and
// their ancestors, not the size of the tree.
//
// The pruning loses no leaf: a node's MBR contains the MBRs of its
// children (CheckInvariants), and both tests are monotone under
// containment in floating point, bit for bit, not only over the reals.
// For the box, widening a rectangle can only turn one of Intersects'
// per-dimension comparisons from false to true. For the sphere, widening
// shrinks or keeps each per-dimension gap of RankMinDist (q - Max and
// Min - q are rounded monotonically, and a gap that vanishes becomes 0),
// squaring preserves the order of non-negative gaps, and the
// left-to-right sum (the maximum, for L∞) of termwise smaller addends is
// no larger, because rounded addition is monotone in both arguments. So
// a parent's RankMinDist is at most its child's, and a hit leaf implies
// every ancestor is hit. The child MINDISTs of a directory page come
// from its rectangle slab in one batched pass; the slab holds the same
// coordinates and sums in the same order, so the values are those of
// RankMinDist.
func (t *Tree) HitLeaves(g *Region, visit func(leaf *Node)) {
	if t.root != nil && g.Hits(t.root.rect) {
		g.descend(t.root, visit)
	}
}

// descend visits the hit leaves under n, whose own MBR g hits.
func (g *Region) descend(n *Node, visit func(leaf *Node)) {
	switch {
	case n.leaf:
		visit(n)
	case g.Box != nil:
		g.descendBox(n, visit)
	case len(n.children) <= maxBatchedFanout:
		g.descendPacked(n, visit)
	default:
		for _, c := range n.children {
			if g.M.RankMinDist(c.rect, g.Q) <= g.Rank {
				g.descend(c, visit)
			}
		}
	}
}

// maxBatchedFanout is the widest directory page whose child MINDISTs a
// descent frame keeps on its stack; a wider supernode takes the scalar
// loop, which computes the same values.
const maxBatchedFanout = 128

// descendPacked is the sphere case of descend on a directory page: one
// batched MINDIST pass over the child rectangle slab, into a
// buffer that lives in this frame while the hit children are descended.
func (g *Region) descendPacked(n *Node, visit func(leaf *Node)) {
	var buf [maxBatchedFanout]float64
	dists := buf[:len(n.children)]
	n.crects.MinDistsToPage(g.Q, g.M, dists)
	for i, c := range n.children {
		if dists[i] <= g.Rank {
			g.descend(c, visit)
		}
	}
}

// descendBox is the box case of descend on a directory page: the
// range walk's test (Node.meets), with its scratch in this frame.
func (g *Region) descendBox(n *Node, visit func(leaf *Node)) {
	var keep [64]int32
	if hit, ok := n.meets(*g.Box, keep[:]); ok {
		for ; hit != 0; hit &= hit - 1 {
			g.descend(n.children[bits.TrailingZeros64(hit)], visit)
		}
		return
	}
	for _, c := range n.children {
		if c.rect.Intersects(*g.Box) {
			g.descend(c, visit)
		}
	}
}

// NodeCount returns the number of directory nodes and leaf nodes.
func (t *Tree) NodeCount() (dirs, leaves int) {
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.leaf {
			leaves++
			return
		}
		dirs++
		for _, c := range n.children {
			walk(c)
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	return dirs, leaves
}

// CheckInvariants verifies the structural invariants of the tree and
// returns the first violation found, or nil. It is used by the tests
// after randomized workloads:
//
//   - every child MBR is contained in its parent's MBR,
//   - every node's MBR is the exact MBR of its payload,
//   - every leaf entry lies inside its leaf's MBR,
//   - node payloads respect the (supernode-adjusted) capacity,
//   - every leaf is a single block (only directory nodes become
//     supernodes; a query's page reads are one block per leaf),
//   - all leaves are at the same depth,
//   - no node is newer than its parent, so every node a version shares
//     has only shared descendants (see Tree.own),
//   - the entry count matches Len().
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		if t.size != 0 {
			return fmt.Errorf("xtree: empty tree with size %d", t.size)
		}
		return nil
	}
	leafDepth := -1
	count := 0
	var walk func(n *Node, depth int) error
	walk = func(n *Node, depth int) error {
		if n.super < 1 {
			return fmt.Errorf("xtree: node with super %d", n.super)
		}
		if n.leaf {
			if len(n.ids) == 0 {
				return fmt.Errorf("xtree: empty leaf")
			}
			if err := t.checkLeaf(n); err != nil {
				return err
			}
			if n.super != 1 {
				return fmt.Errorf("xtree: leaf with super %d, leaves are single-block", n.super)
			}
			if len(n.ids) > t.leafCap(n) {
				return fmt.Errorf("xtree: leaf with %d entries exceeds capacity %d", len(n.ids), t.leafCap(n))
			}
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("xtree: leaf at depth %d, expected %d", depth, leafDepth)
			}
			exact := leafMBR(n)
			if !rectsEqual(exact, n.rect) {
				return fmt.Errorf("xtree: leaf MBR %v is not tight (exact %v)", n.rect, exact)
			}
			count += len(n.ids)
			return nil
		}
		if len(n.children) == 0 {
			return fmt.Errorf("xtree: empty directory node")
		}
		if len(n.children) > t.dirCap(n) {
			return fmt.Errorf("xtree: directory with %d children exceeds capacity %d", len(n.children), t.dirCap(n))
		}
		exact := mbrOfNodes(n.children)
		if !rectsEqual(exact, n.rect) {
			return fmt.Errorf("xtree: directory MBR %v is not tight (exact %v)", n.rect, exact)
		}
		for _, c := range n.children {
			if !n.rect.ContainsRect(c.rect) {
				return fmt.Errorf("xtree: child MBR %v escapes parent %v", c.rect, n.rect)
			}
			if c.gen > n.gen {
				return fmt.Errorf("xtree: child of generation %d under a parent of generation %d", c.gen, n.gen)
			}
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("xtree: %d entries found, size says %d", count, t.size)
	}
	return t.checkPacked(t.root)
}

// rectsEqual compares rectangles exactly; MBRs are computed from the same
// float values, so no tolerance is needed.
func rectsEqual(a, b vec.Rect) bool {
	return vec.Equal(a.Min, b.Min) && vec.Equal(a.Max, b.Max)
}

package xtree

import (
	"fmt"

	"parsearch/internal/slab"
	"parsearch/internal/vec"
)

// Packed storage: with Config.Packed a leaf's block holds float32
// coordinates (see leaf.go), and every directory node carries a cache of
// its child MBRs in the slab package's contiguous float32 layout, so the
// search algorithms can use the batched MINDIST kernel instead of walking
// []*Node. The caches are maintained eagerly by the mutating operations:
// every node a mutation touches is flagged dirty, and the public entry
// points (Insert, Delete, the bulk loaders) finish by re-packing exactly
// the dirty spine before returning. A version (Tree.Freeze) therefore
// only ever holds complete caches, and its readers never rebuild one.
//
// Correctness relies on one structural fact: mutations proceed along
// root-to-leaf paths, so every ancestor of a dirty node is itself dirty
// and the refresh walk can prune clean subtrees without missing anything
// (split siblings and new roots are flagged explicitly where they are
// created). A leaf has no cache: its block is its storage.

// ChildRects returns the packed child-MBR cache of a directory node
// (nil for leaves or unpacked trees).
func (n *Node) ChildRects() *slab.RectSlab { return n.crects }

// packNode rebuilds a directory node's packed cache from its children.
func (t *Tree) packNode(n *Node) {
	if n.leaf {
		return
	}
	crs := make([]vec.Rect, len(n.children))
	for i, c := range n.children {
		crs[i] = c.rect
	}
	n.crects = slab.BuildRects(t.cfg.Dim, crs)
}

// refreshPacked re-packs the dirty spine under n: it recurses into dirty
// children first, then rebuilds n's own cache and clears the flag. Clean
// subtrees are skipped entirely.
func (t *Tree) refreshPacked(n *Node) {
	if n == nil || !n.packDirty {
		return
	}
	if !n.leaf {
		for _, c := range n.children {
			t.refreshPacked(c)
		}
	}
	t.packNode(n)
	n.packDirty = false
}

// packSubtree rebuilds the packed caches of every node under n,
// ignoring dirty flags (bulk loading builds whole levels at once).
func (t *Tree) packSubtree(n *Node) {
	if n == nil {
		return
	}
	if !n.leaf {
		for _, c := range n.children {
			t.packSubtree(c)
		}
	}
	t.packNode(n)
	n.packDirty = false
}

// checkPacked verifies that every node's packed cache is present, clean,
// and consistent with its payload; CheckInvariants calls it on packed
// trees after randomized workloads.
func (t *Tree) checkPacked(n *Node) error {
	if n.packDirty {
		return fmt.Errorf("xtree: packed node left dirty")
	}
	if n.leaf {
		return nil
	}
	if n.crects == nil || n.crects.Len() != len(n.children) {
		return fmt.Errorf("xtree: directory rect slab out of sync (%d children)", len(n.children))
	}
	min := make([]float64, t.cfg.Dim)
	max := make([]float64, t.cfg.Dim)
	for i, c := range n.children {
		n.crects.RectAt(i, min, max)
		for j := 0; j < t.cfg.Dim; j++ {
			if min[j] != c.rect.Min[j] || max[j] != c.rect.Max[j] {
				return fmt.Errorf("xtree: directory rect slab child %d differs from payload in dimension %d", i, j)
			}
		}
	}
	for _, c := range n.children {
		if err := t.checkPacked(c); err != nil {
			return err
		}
	}
	return nil
}

package xtree

import (
	"fmt"

	"parsearch/internal/slab"
	"parsearch/internal/vec"
)

// Directory caches: every directory node carries a cache of its child
// MBRs in the slab package's contiguous float32 layout, as a leaf's block
// holds its points (see leaf.go), so the search algorithms can use the
// batched MINDIST kernel instead of walking []*Node. The caches are
// maintained eagerly by the mutating operations: every node a mutation
// touches is flagged (pack), and the public entry points (Insert,
// Delete, the bulk loaders) finish by re-packing exactly the flagged
// spine before returning. A version (Tree.Freeze) therefore only ever
// holds complete caches, and its readers never rebuild one.
//
// Correctness relies on one structural fact: mutations proceed along
// root-to-leaf paths, so every ancestor of a flagged node is itself
// flagged and the refresh walk can prune clean subtrees without missing
// anything (split siblings and new roots are flagged explicitly where
// they are created). A child's MBR changes only while it is flagged, so
// a node whose children kept their places (packPatch) keeps its clean
// children's rectangles: the walk copies its cache and writes only the
// flagged children's. A leaf has no cache: its block is its storage.

// packState is what a mutation left of a node's cache.
type packState uint8

const (
	// packClean: the cache holds the children's MBRs.
	packClean packState = iota
	// packPatch: flagged children's MBRs changed in place, and children
	// may have been appended.
	packPatch
	// packRebuild: the children were reordered or removed, or the node
	// is new.
	packRebuild
)

// flag marks n for the refresh walk with state s, keeping a stronger one.
func (n *Node) flag(s packState) { n.pack = max(n.pack, s) }

// ChildRects returns the packed child-MBR cache of a directory node
// (nil for leaves).
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

// refreshPacked re-packs the flagged spine under n: it refreshes the
// flagged children, then n's own cache — patched, a copy with their
// rectangles written, or rebuilt — and clears the flag. Clean subtrees
// are skipped entirely.
func (t *Tree) refreshPacked(n *Node) {
	if n == nil || n.pack == packClean {
		return
	}
	if old := n.crects; !n.leaf && n.pack == packPatch {
		rs := old.Grown(len(n.children))
		for i, c := range n.children {
			if c.pack != packClean || i >= old.Len() {
				t.refreshPacked(c)
				rs.Set(i, c.rect)
			}
		}
		n.crects = rs
	} else {
		for _, c := range n.children {
			t.refreshPacked(c)
		}
		t.packNode(n)
	}
	n.pack = packClean
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
	n.pack = packClean
}

// checkPacked verifies that every node's packed cache is present, clean,
// and consistent with its payload; CheckInvariants calls it after
// randomized workloads.
func (t *Tree) checkPacked(n *Node) error {
	if n.pack != packClean {
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

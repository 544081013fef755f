package xtree

import (
	"fmt"
	"math"

	"parsearch/internal/vec"
)

// Delete removes one entry with the given point and id. It returns false
// when no such entry exists. Underfull nodes along the path are dissolved
// and their content reinserted (the classic R-tree condense step), so the
// tree stays balanced.
func (t *Tree) Delete(p vec.Point, id int) bool {
	if t.root == nil {
		return false
	}
	if len(p) != t.cfg.Dim {
		panic(fmt.Sprintf("xtree: deleting %d-dimensional point from %d-dimensional tree", len(p), t.cfg.Dim))
	}

	if id < 0 || id > math.MaxInt32 {
		return false
	}
	t.mutable()
	p = stored(p)
	var orphans []Entry
	root := t.remove(t.root, p, id, &orphans)
	if root == nil {
		return false
	}
	t.root = root
	t.size--

	// Shrink the root: an empty root leaf disappears; a directory root
	// with a single child is replaced by that child.
	if t.root.leaf {
		if len(t.root.ids) == 0 {
			t.root = nil
		}
	} else if len(t.root.children) == 0 {
		t.root = nil
	} else {
		for !t.root.leaf && len(t.root.children) == 1 {
			t.root = t.root.children[0]
		}
	}
	t.refreshPacked(t.root)

	// Reinsert entries orphaned by dissolved nodes.
	for _, e := range orphans {
		t.size--
		t.Insert(e.Point, e.ID)
	}
	return true
}

// remove deletes the entry from the subtree under n and returns the node
// it rewrote in n's place — n itself or its copy (see own) — or nil when
// the subtree does not hold the entry. Nodes that underflow are emptied
// into orphans and dropped from their parent.
func (t *Tree) remove(n *Node, p vec.Point, id int, orphans *[]Entry) *Node {
	if n.leaf {
		for i, e := range n.ids {
			if int(e) == id && n.block.Equal(i, p) {
				n = t.own(n)
				n.flag(packRebuild)
				entries := t.gather(n, 0)
				t.setLeaf(n, append(entries[:i], entries[i+1:]...))
				if len(n.ids) > 0 {
					n.recomputeRect()
				}
				return n
			}
		}
		return nil
	}
	for i, c := range n.children {
		if !c.rect.Contains(p) {
			continue
		}
		c = t.remove(c, p, id, orphans)
		if c == nil {
			continue
		}
		n = t.own(n)
		n.flag(packPatch)
		if t.underfull(c) {
			// Dissolve the child: collect its entries for
			// reinsertion and drop it.
			n.flag(packRebuild)
			collectEntries(c, orphans)
			n.children = append(n.children[:i], n.children[i+1:]...)
		} else {
			n.children[i] = c
		}
		if len(n.children) > 0 {
			n.recomputeRect()
		}
		return n
	}
	return nil
}

// underfull reports whether a node has fallen below the minimum fill and
// should be dissolved. Leaves below half the R* minimum and directory
// nodes with fewer than two children qualify.
func (t *Tree) underfull(n *Node) bool {
	if n.leaf {
		return len(n.ids) < t.minFillOf(t.cfg.LeafCapacity)/2+1
	}
	return len(n.children) < 2
}

// collectEntries gathers every entry in the subtree under n.
func collectEntries(n *Node, out *[]Entry) {
	if n.leaf {
		*out = append(*out, n.Entries()...)
		return
	}
	for _, c := range n.children {
		collectEntries(c, out)
	}
}

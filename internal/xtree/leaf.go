package xtree

import (
	"fmt"
	"math"
	"slices"

	"parsearch/internal/slab"
	"parsearch/internal/vec"
)

// Leaves: a leaf stores its entries as IDs (ids[i]) beside one
// dimension-major float32 coordinate block (slot i, a slab.Slab). The
// block is the only copy of the leaf's points; nothing else in the tree
// holds a point.
//
// A leaf's IDs and block are never written once the leaf holds them: a
// mutation gathers the leaf's entries into the tree's scratch, changes
// them there — append, remove, the split choosers' sorts — and gives the
// leaf a new IDs array and a new block (setLeaf). A copy of a leaf
// (Tree.own) may therefore share both with the version it was copied
// from.

// Len returns the number of entries of a leaf (0 for a directory node).
func (n *Node) Len() int { return len(n.ids) }

// ID returns the ID of a leaf's entry i.
func (n *Node) ID(i int) int { return int(n.ids[i]) }

// PointAt writes the point of a leaf's entry i into p, which must have
// the tree's dimension.
func (n *Node) PointAt(i int, p []float64) { n.block.PointAt(i, p) }

// Block returns a leaf's coordinate block (nil for a directory node),
// which the batched kernels search. Callers must not write it.
func (n *Node) Block() *slab.Slab { return n.block }

// Entries returns a copy of a leaf's entries, their points in one new
// array (nil for a directory node). It allocates; a search reads the
// block instead.
func (n *Node) Entries() []Entry {
	if !n.leaf {
		return nil
	}
	out, _ := n.appendEntries(nil, nil)
	return out
}

// appendEntries appends the leaf's entries to out, their points carved
// from coords, which it grows to hold them, and returns both.
func (n *Node) appendEntries(out []Entry, coords []float64) ([]Entry, []float64) {
	if len(n.ids) == 0 {
		return out, coords
	}
	d := n.block.Dim()
	at := len(coords)
	coords = slices.Grow(coords, len(n.ids)*d)[:at+len(n.ids)*d]
	for i, id := range n.ids {
		p := coords[at+i*d : at+(i+1)*d : at+(i+1)*d]
		n.block.PointAt(i, p)
		out = append(out, Entry{Point: p, ID: int(id)})
	}
	return out, coords
}

// checkID panics on an ID a leaf cannot hold.
func checkID(id int) {
	if id < 0 || id > math.MaxInt32 {
		panic(fmt.Sprintf("xtree: ID %d outside [0, %d]", id, math.MaxInt32))
	}
}

// stored returns the copy of p the tree stores: rounded to float32, the
// values a block holds.
func stored(p vec.Point) vec.Point {
	c := vec.Clone(p)
	for j, x := range c {
		c[j] = float64(float32(x))
	}
	return c
}

// gather returns the leaf's entries in slot order in the tree's
// scratch, with room for extra more: what a mutation changes before
// setLeaf writes the leaf anew. The next gather reuses the scratch.
func (t *Tree) gather(n *Node, extra int) []Entry {
	need := len(n.ids) + extra
	if cap(t.scratch) < need {
		t.scratch = make([]Entry, 0, need)
	}
	if cap(t.coords) < need*t.cfg.Dim {
		t.coords = make([]float64, 0, need*t.cfg.Dim)
	}
	var out []Entry
	out, t.coords = n.appendEntries(t.scratch[:0], t.coords[:0])
	return out
}

// setLeaf gives the leaf a new IDs array and a new block holding the
// entries in order. The entries' points are copied.
func (t *Tree) setLeaf(n *Node, entries []Entry) { t.cfg.setLeaf(n, entries) }

func (c Config) setLeaf(n *Node, entries []Entry) {
	if len(entries) == 0 {
		n.ids, n.block = nil, nil
		return
	}
	n.ids = make([]int32, len(entries))
	n.block = slab.New(c.Dim, len(entries))
	for i, e := range entries {
		n.ids[i] = int32(e.ID)
		n.block.Set(i, e.Point)
	}
}

// leafMBR returns the MBR of the leaf's points: vec.PointRect of the
// first, extended by the others in slot order (see slab.Slab.Bounds). It
// panics on an empty leaf (empty nodes are removed, never kept).
func leafMBR(n *Node) vec.Rect {
	d := n.block.Dim()
	mm := make([]float64, 2*d)
	r := vec.Rect{Min: mm[:d:d], Max: mm[d:]}
	n.block.Bounds(r.Min, r.Max)
	return r
}

// checkLeaf verifies a leaf's payload: one ID a slot of a block of the
// tree's dimension.
func (t *Tree) checkLeaf(n *Node) error {
	if b := n.block; b == nil || b.Len() != len(n.ids) || b.Dim() != t.cfg.Dim {
		return fmt.Errorf("xtree: leaf block does not hold its %d entries", len(n.ids))
	}
	return nil
}

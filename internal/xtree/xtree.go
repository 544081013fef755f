// Package xtree implements the X-tree of Berchtold, Keim and Kriegel
// (VLDB 1996), the high-dimensional index structure the paper's parallel
// nearest-neighbor engine is built on.
//
// The X-tree is an R*-tree variant that avoids the directory degeneration
// of high-dimensional R-trees with two mechanisms: an overlap-minimal
// split that uses the split history of a node's children to find a
// dimension along which the children can be separated without overlap, and
// supernodes — directory nodes enlarged to a multiple of the block size —
// created whenever no good (balanced, low-overlap) split exists.
//
// The implementation stores d-dimensional points (the feature vectors of
// the paper), supports insertion, deletion, bulk loading, range and point
// queries, and exposes its nodes read-only so the knn package can run the
// HS and RKV nearest-neighbor algorithms over it while counting page
// accesses.
package xtree

import (
	"fmt"

	"parsearch/internal/slab"
	"parsearch/internal/vec"
)

// Entry is a data object: a feature vector and the caller's identifier.
// It is what BulkLoad and Insert take and what RangeSearch and
// Node.Entries return; a leaf stores its entries as IDs beside one
// coordinate block, never as Entries.
type Entry struct {
	Point vec.Point
	ID    int
}

// Config controls the shape of the tree. The zero value is not valid; use
// DefaultConfig or fill every field.
type Config struct {
	// Dim is the dimensionality of the indexed points.
	Dim int
	// LeafCapacity is the maximum number of entries per (non-super)
	// leaf node.
	LeafCapacity int
	// DirCapacity is the maximum number of children per (non-super)
	// directory node.
	DirCapacity int
	// MinFill is the minimum fill grade of a node after a split, as a
	// fraction of capacity (R*-tree uses 0.4).
	MinFill float64
	// MaxOverlap is the X-tree threshold: if a topological split of a
	// directory node produces more than this overlap ratio, the
	// overlap-minimal split is tried and, failing that, a supernode is
	// created. The X-tree paper derives 0.2 as a good value.
	MaxOverlap float64
	// MinFanout is the minimum fraction of children on each side of an
	// overlap-minimal split for the split to count as balanced
	// (X-tree paper: 0.35).
	MinFanout float64
	// Packed is ignored: every tree stores its leaves' coordinates as
	// float32, rounding each point as it enters the tree, and keeps a
	// rectangle slab of the child MBRs per directory node (see pack.go
	// and the slab package). The field stays so that callers which set
	// it keep compiling.
	Packed bool
}

// PageSize is the block size used by the paper's experiments (4 KBytes).
const PageSize = 4096

// bytesPerCoord is the storage cost of one float64 coordinate.
const bytesPerCoord = 8

// LeafCapacityForPage returns how many d-dimensional entries fit in a page
// of the given size (one point plus a 4-byte id each), at least 2.
func LeafCapacityForPage(d, pageBytes int) int {
	c := pageBytes / (d*bytesPerCoord + 4)
	if c < 2 {
		c = 2
	}
	return c
}

// DirCapacityForPage returns how many directory entries (an MBR — two
// points — plus an 8-byte child pointer) fit in a page, at least 2.
func DirCapacityForPage(d, pageBytes int) int {
	c := pageBytes / (2*d*bytesPerCoord + 8)
	if c < 2 {
		c = 2
	}
	return c
}

// DefaultConfig returns the configuration the experiments use: 4-KByte
// pages, R* minimum fill 0.4, X-tree overlap threshold 0.2 and minimum
// fanout 0.35.
func DefaultConfig(dim int) Config {
	return Config{
		Dim:          dim,
		LeafCapacity: LeafCapacityForPage(dim, PageSize),
		DirCapacity:  DirCapacityForPage(dim, PageSize),
		MinFill:      0.4,
		MaxOverlap:   0.2,
		MinFanout:    0.35,
	}
}

// validate panics on an unusable configuration.
func (c Config) validate() {
	switch {
	case c.Dim < 1:
		panic(fmt.Sprintf("xtree: dimension %d < 1", c.Dim))
	case c.LeafCapacity < 2:
		panic(fmt.Sprintf("xtree: leaf capacity %d < 2", c.LeafCapacity))
	case c.DirCapacity < 2:
		panic(fmt.Sprintf("xtree: directory capacity %d < 2", c.DirCapacity))
	case c.MinFill <= 0 || c.MinFill > 0.5:
		panic(fmt.Sprintf("xtree: min fill %v outside (0, 0.5]", c.MinFill))
	case c.MaxOverlap < 0 || c.MaxOverlap > 1:
		panic(fmt.Sprintf("xtree: max overlap %v outside [0, 1]", c.MaxOverlap))
	case c.MinFanout <= 0 || c.MinFanout > 0.5:
		panic(fmt.Sprintf("xtree: min fanout %v outside (0, 0.5]", c.MinFanout))
	}
}

// Tree is an X-tree over d-dimensional points.
//
// Versions: Freeze returns a read-only version of the tree in O(1), and
// the tree's mutations copy the nodes they would write that a version
// shares — the root-to-leaf path an insert or delete changes — so a
// version never changes and readers of it need no lock (see own).
type Tree struct {
	cfg   Config
	root  *Node
	size  int
	stats Stats
	// gen is the generation of the nodes a mutation may write in place;
	// every older node is shared with a version. view is the version
	// Freeze last returned, nil once a mutation followed it; frozen
	// marks a version.
	gen    uint64
	view   *Tree
	frozen bool
	// scratch and coords hold the entries of the leaf a mutation is
	// changing (see gather).
	scratch []Entry
	coords  []float64
}

// Stats counts structural events since the tree was created.
type Stats struct {
	// Splits counts all node splits (topological or overlap-minimal).
	Splits int
	// OverlapMinimalSplits counts directory splits that fell back to
	// the split-history-based algorithm.
	OverlapMinimalSplits int
	// Supernodes counts supernode extensions (each extension grows one
	// node by one block).
	Supernodes int
}

// Node is a tree node. Fields are unexported; read-only accessors expose
// the structure to search algorithms.
type Node struct {
	leaf bool
	// pack is the flag the mutation paths set so the refresh walk
	// re-packs exactly the touched spine (see pack.go).
	pack  packState
	super int32 // capacity multiplier; 1 = normal node

	rect     vec.Rect
	ids      []int32 // leaf payload: entry i's ID
	children []*Node // directory payload
	history  uint64  // bitmask of dimensions this node's region was split along
	gen      uint64  // the tree generation that created or copied the node

	// block is a leaf's coordinates, entry i's at slot i: the only copy
	// of its points (see leaf.go). crects is a directory node's cache of
	// its child MBRs (see pack.go).
	block  *slab.Slab
	crects *slab.RectSlab
}

// IsLeaf reports whether the node stores data entries.
func (n *Node) IsLeaf() bool { return n.leaf }

// Rect returns the node's minimum bounding rectangle. Callers must not
// modify it.
func (n *Node) Rect() vec.Rect { return n.rect }

// Children returns the children of a directory node (nil for leaves).
// Callers must not modify the slice.
func (n *Node) Children() []*Node { return n.children }

// Super returns the node's supernode multiplier (1 for a normal node; a
// supernode of multiplier s occupies s disk blocks).
func (n *Node) Super() int { return int(n.super) }

// New returns an empty X-tree with the given configuration.
func New(cfg Config) *Tree {
	cfg.validate()
	return &Tree{cfg: cfg}
}

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.size }

// Root returns the root node, or nil for an empty tree.
func (t *Tree) Root() *Node { return t.root }

// Stats returns the structural event counters.
func (t *Tree) Stats() Stats { return t.stats }

// Freeze returns a read-only version of the tree as it is now, in O(1):
// the version shares every node with the tree, and the tree's later
// mutations copy a shared node before they write it, so the version
// never changes. It may be read concurrently with those mutations and
// must not be mutated itself. Freezing an unchanged tree again returns
// the same version.
func (t *Tree) Freeze() *Tree {
	if t.view == nil {
		v := *t
		v.frozen = true
		t.view = &v
		t.gen++
	}
	return t.view
}

// mutable readies the tree for a mutation: the version Freeze returned
// stays as it is, and the next Freeze returns a new one.
func (t *Tree) mutable() {
	if t.frozen {
		panic("xtree: mutating a frozen version")
	}
	t.view = nil
}

// own returns n ready to be written: n itself when the tree created or
// copied it since the last Freeze, else a copy of its header, MBR and
// directory payload array that the caller must link in n's place. A
// node a version can reach is therefore never written. A leaf's IDs and
// block are never written in place (see leaf.go), so its copy shares
// them.
func (t *Tree) own(n *Node) *Node {
	if n.gen == t.gen {
		return n
	}
	c := *n
	c.gen = t.gen
	c.rect = n.rect.Clone()
	if !n.leaf {
		// Room for the split sibling an insert appends next.
		c.children = append(make([]*Node, 0, len(n.children)+1), n.children...)
	}
	return &c
}

// Height returns the number of levels (0 for an empty tree, 1 for a
// root-only leaf).
func (t *Tree) Height() int {
	h := 0
	for n := t.root; n != nil; {
		h++
		if n.leaf {
			break
		}
		n = n.children[0]
	}
	return h
}

// Insert adds an entry to the tree. The tree keeps a copy of p, rounded
// to float32.
func (t *Tree) Insert(p vec.Point, id int) {
	if len(p) != t.cfg.Dim {
		panic(fmt.Sprintf("xtree: inserting %d-dimensional point into %d-dimensional tree", len(p), t.cfg.Dim))
	}
	checkID(id)
	t.mutable()
	e := Entry{Point: stored(p), ID: id}
	if t.root == nil {
		t.root = &Node{leaf: true, rect: vec.PointRect(e.Point), gen: t.gen, super: 1}
		t.setLeaf(t.root, []Entry{e})
		t.size = 1
		return
	}
	t.root = t.own(t.root)
	if sibling := t.insert(t.root, e); sibling != nil {
		// Root split: grow the tree by one level.
		old := t.root
		t.root = &Node{
			leaf:     false,
			rect:     old.rect.Union(sibling.rect),
			children: []*Node{old, sibling},
			super:    1,
			pack:     packRebuild,
			gen:      t.gen,
		}
	}
	t.size++
	t.refreshPacked(t.root)
}

// insert descends to a leaf, adds the entry, and propagates splits upward.
// n is owned (see own); it returns the new sibling if n was split.
func (t *Tree) insert(n *Node, e Entry) *Node {
	n.flag(packPatch)
	n.rect.Extend(e.Point)
	if n.leaf {
		entries := append(t.gather(n, 1), e)
		if len(entries) > t.leafCap(n) {
			return t.splitLeaf(n, entries)
		}
		t.setLeaf(n, entries)
		return nil
	}
	i := t.chooseSubtree(n, e.Point)
	child := t.own(n.children[i])
	n.children[i] = child
	if s := t.insert(child, e); s != nil {
		n.children = append(n.children, s)
		if len(n.children) > t.dirCap(n) {
			return t.splitDir(n)
		}
	}
	return nil
}

// leafCap returns the effective capacity of a leaf node including its
// supernode multiplier.
func (t *Tree) leafCap(n *Node) int { return t.cfg.LeafCapacity * int(n.super) }

// dirCap returns the effective capacity of a directory node including its
// supernode multiplier.
func (t *Tree) dirCap(n *Node) int { return t.cfg.DirCapacity * int(n.super) }

// chooseSubtree implements the R*-tree descent criterion: among the
// children of n, pick the one whose MBR needs the least overlap
// enlargement when the child level is a leaf level, and the least area
// enlargement otherwise (ties: smaller area). It returns the child's
// index, so the caller can replace the child with its copy.
//
// Every value is bit for bit the textbook one, and so is every choice;
// two things make the leaf level linear in practice. An overlap
// enlargement is never negative (or it is NaN): each sibling's overlap
// with the enlarged MBR is at least its overlap with the MBR, and both
// sums add them in the same order. So once the best overlap enlargement
// is 0, a child can win only with an overlap enlargement of 0 and a
// smaller area enlargement, or an equal one and a smaller area — and a
// child that fails that test needs no overlap enlargement at all. The
// children are visited in their order: with a NaN key the comparison is
// not transitive, and another order could change the winner.
func (t *Tree) chooseSubtree(n *Node, p vec.Point) int {
	var buf [2 * stackDims]float64
	scratch := buf[:]
	if 2*len(p) > len(buf) {
		scratch = make([]float64, 2*len(p))
	}
	enlarged := vec.Rect{Min: scratch[:len(p)], Max: scratch[len(p) : 2*len(p)]}
	childrenAreLeaves := n.children[0].leaf

	bi := 0
	bestAreaInc, bestArea := enlarge(enlarged, n.children[0].rect, p)
	bestOverlapInc := 0.0
	if childrenAreLeaves {
		bestOverlapInc = overlapEnlargement(n.children, 0, enlarged)
	}
	for i := 1; i < len(n.children); i++ {
		ai, area := enlarge(enlarged, n.children[i].rect, p)
		areaWins := ai < bestAreaInc || (ai == bestAreaInc && area < bestArea)
		if !childrenAreLeaves {
			if areaWins {
				bi, bestAreaInc, bestArea = i, ai, area
			}
			continue
		}
		if bestOverlapInc == 0 && !areaWins {
			continue
		}
		oi := overlapEnlargement(n.children, i, enlarged)
		if oi < bestOverlapInc || (oi == bestOverlapInc && areaWins) {
			bi, bestOverlapInc, bestAreaInc, bestArea = i, oi, ai, area
		}
	}
	return bi
}

// stackDims is the dimensionality up to which chooseSubtree's scratch
// rectangle lives on the stack.
const stackDims = 32

// enlarge sets e to r extended to cover p, with vec.Rect.Extend's
// comparisons, and returns the area enlargement and r's area, each
// product taken in vec.Rect.Area's order: the enlargement is bit for bit
// r.Union(vec.PointRect(p)).Area() - r.Area().
func enlarge(e, r vec.Rect, p vec.Point) (inc, area float64) {
	ea, area := 1.0, 1.0
	for i := range e.Min {
		lo, hi := r.Min[i], r.Max[i]
		area *= hi - lo
		if p[i] < lo {
			lo = p[i]
		}
		if p[i] > hi {
			hi = p[i]
		}
		e.Min[i], e.Max[i] = lo, hi
		ea *= hi - lo
	}
	return ea - area, area
}

// overlapEnlargement computes how much the overlap of children[i] with its
// siblings grows when children[i] is extended to enlarged. A sibling that
// enlarged does not overlap adds 0 to both sums — children[i], inside
// enlarged, does not overlap it either — so it is skipped.
func overlapEnlargement(children []*Node, i int, enlarged vec.Rect) float64 {
	var before, after float64
	for j, c := range children {
		if j == i {
			continue
		}
		o := enlarged.OverlapArea(c.rect)
		if o == 0 {
			continue
		}
		before += children[i].rect.OverlapArea(c.rect)
		after += o
	}
	return after - before
}

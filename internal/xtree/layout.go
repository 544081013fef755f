package xtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"parsearch/internal/slab"
)

// Layout: a tree written as a preorder walk of its nodes, so that it can
// be read back as the same tree without sorting or cutting anything.
// Each node is a header
//
//	kind byte (0 directory, 1 leaf) · count uint32 · history uint64 · super uint32
//
// followed, on a leaf, by its count entries: a uint32 ID and, when the
// layout carries points, the coordinates as the leaf's block holds them,
// float32. (Trees that stored float64 wrote 8-byte coordinates;
// ReadLayout reads those too.) A directory's children follow it in
// order. MBRs are not written: the reader recomputes them bottom-up, leaf
// entries and children in the order the bulk loader computed them, so
// they come back bit for bit.
// An empty tree is an empty layout. All integers are little-endian.

// layoutHeader is the size of a node header.
const layoutHeader = 1 + 4 + 8 + 4

// maxLayoutDepth bounds the height of a tree ReadLayout accepts. A tree
// of 2^32 entries under fan-outs of 2 is 33 levels deep.
const maxLayoutDepth = 64

// AppendLayout appends the tree's layout to b and returns the extended
// slice. With points, each leaf entry carries its coordinates; without,
// only its ID, and the reader must be given the points another way. Every
// ID must fit in a uint32. The tree is only read, so a frozen version may
// be written while its tree is mutated.
func (t *Tree) AppendLayout(b []byte, points bool) []byte {
	if t.root == nil {
		return b
	}
	return t.appendNode(b, t.root, points, make([]float32, t.cfg.Dim))
}

// appendNode appends n's subtree; p is scratch for a point.
func (t *Tree) appendNode(b []byte, n *Node, points bool, p []float32) []byte {
	kind, count := byte(0), len(n.children)
	if n.leaf {
		kind, count = 1, len(n.ids)
	}
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint32(b, uint32(count))
	b = binary.LittleEndian.AppendUint64(b, n.history)
	b = binary.LittleEndian.AppendUint32(b, uint32(n.super))
	if !n.leaf {
		for _, c := range n.children {
			b = t.appendNode(b, c, points, p)
		}
		return b
	}
	for i, id := range n.ids {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
		if !points {
			continue
		}
		n.block.RowAt(i, p)
		for _, x := range p {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		}
	}
	return b
}

// Resolver checks one leaf entry while ReadLayout reads it, and decides
// its point when the layout carries none. With points, p holds the
// entry's decoded float32 coordinates, finite; without, the resolver
// writes the entry's coordinates into p. The reader stores p as it is in
// the leaf's block. An error refuses the layout.
type Resolver func(id int, p []float32) error

// ReadLayout assembles the tree that AppendLayout wrote into b, whose
// leaf entries carry coordinates of coord bytes each: 0 for a layout
// without points, 4 for one with, or 8 for the float64 coordinates of a
// tree that stored them, which it rounds to float32. It checks
// everything as it reads: it refuses a node kind other than 0 or 1, an
// empty node, a node over its capacity, a leaf whose super is not 1,
// leaves at different depths, a tree deeper than 64 levels, a history
// bit at or above the dimension, a non-finite coordinate, an ID above
// math.MaxInt32, a count that the remaining bytes cannot hold (before
// allocating for it), and bytes after the walk. resolve sees every entry
// in layout order, and each decoded leaf is written straight into its
// block. The tree it returns passes CheckInvariants, its caches built.
func ReadLayout(cfg Config, b []byte, coord int, resolve Resolver) (*Tree, error) {
	if coord != 0 && coord != 4 && coord != 8 {
		return nil, fmt.Errorf("xtree: layout coordinates of %d bytes", coord)
	}
	t := New(cfg)
	r := &layoutReader{cfg: cfg, b: b, coord: coord, resolve: resolve, p: make([]float32, cfg.Dim)}
	if err := r.read(); err != nil {
		return nil, err
	}
	t.root, t.size = r.root, r.size
	t.packSubtree(t.root)
	return t, nil
}

// layoutReader is one read's position in its bytes.
type layoutReader struct {
	cfg     Config
	b       []byte // what is left to read
	coord   int    // bytes a coordinate, 0 without points
	resolve Resolver
	p       []float32 // the entry being read

	entryBytes int
	leafDepth  int
	root       *Node
	size       int
}

// read walks the whole layout.
func (r *layoutReader) read() error {
	if len(r.b) == 0 {
		return nil
	}
	r.entryBytes, r.leafDepth = 4+r.coord*r.cfg.Dim, -1
	root, err := r.node(0)
	if err != nil {
		return err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("xtree: %d bytes after the tree's layout", len(r.b))
	}
	r.root = root
	return nil
}

var errLayoutShort = errors.New("xtree: layout truncated")

func (r *layoutReader) node(depth int) (*Node, error) {
	if depth >= maxLayoutDepth {
		return nil, fmt.Errorf("xtree: layout deeper than %d levels", maxLayoutDepth)
	}
	if len(r.b) < layoutHeader {
		return nil, errLayoutShort
	}
	kind := r.b[0]
	count := int64(binary.LittleEndian.Uint32(r.b[1:]))
	history := binary.LittleEndian.Uint64(r.b[5:])
	super := int64(binary.LittleEndian.Uint32(r.b[13:]))
	r.b = r.b[layoutHeader:]
	switch {
	case kind > 1:
		return nil, fmt.Errorf("xtree: layout node kind %d", kind)
	case count == 0:
		return nil, fmt.Errorf("xtree: empty node in layout")
	case super < 1 || super > math.MaxInt32:
		return nil, fmt.Errorf("xtree: layout node with super %d", super)
	case r.cfg.Dim < 64 && history>>uint(r.cfg.Dim) != 0:
		return nil, fmt.Errorf("xtree: split history %#x names a dimension beyond %d", history, r.cfg.Dim)
	}
	n := &Node{leaf: kind == 1, history: history, super: int32(super)}
	if !n.leaf {
		if count > int64(r.cfg.DirCapacity)*super {
			return nil, fmt.Errorf("xtree: directory with %d children exceeds capacity %d", count, int64(r.cfg.DirCapacity)*super)
		}
		if count*layoutHeader > int64(len(r.b)) {
			return nil, fmt.Errorf("xtree: layout claims %d children in %d bytes", count, len(r.b))
		}
		n.children = make([]*Node, 0, count)
		for i := int64(0); i < count; i++ {
			c, err := r.node(depth + 1)
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, c)
		}
		n.recomputeRect()
		return n, nil
	}
	if super != 1 {
		return nil, fmt.Errorf("xtree: leaf with super %d, leaves are single-block", super)
	}
	if count > int64(r.cfg.LeafCapacity) {
		return nil, fmt.Errorf("xtree: leaf with %d entries exceeds capacity %d", count, r.cfg.LeafCapacity)
	}
	if r.leafDepth == -1 {
		r.leafDepth = depth
	} else if depth != r.leafDepth {
		return nil, fmt.Errorf("xtree: leaf at depth %d, expected %d", depth, r.leafDepth)
	}
	if count*int64(r.entryBytes) > int64(len(r.b)) {
		return nil, fmt.Errorf("xtree: layout claims %d entries in %d bytes", count, len(r.b))
	}
	n.ids = make([]int32, count)
	n.block = slab.New(r.cfg.Dim, int(count))
	p := r.p
	for i := range n.ids {
		id := binary.LittleEndian.Uint32(r.b)
		r.b = r.b[4:]
		if id > math.MaxInt32 {
			return nil, fmt.Errorf("xtree: entry ID %d above %d", id, math.MaxInt32)
		}
		if r.coord != 0 {
			if r.coord == 4 {
				for j := range p {
					p[j] = math.Float32frombits(binary.LittleEndian.Uint32(r.b[4*j:]))
				}
			} else {
				// Rounded before the check: a finite float64 beyond
				// float32's range is stored as an infinity, and refused.
				for j := range p {
					p[j] = float32(math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*j:])))
				}
			}
			r.b = r.b[r.entryBytes-4:]
			for j, x := range p {
				if f := float64(x); math.IsNaN(f) || math.IsInf(f, 0) {
					return nil, fmt.Errorf("xtree: entry %d component %d is %v, not finite", id, j, x)
				}
			}
		}
		if err := r.resolve(int(id), p); err != nil {
			return nil, err
		}
		n.ids[i] = int32(id)
		n.block.SetRow(i, p)
	}
	r.size += int(count)
	n.recomputeRect()
	return n, nil
}

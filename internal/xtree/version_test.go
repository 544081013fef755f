package xtree

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"parsearch/internal/vec"
)

// dumpTree hashes everything a reader of t can see: per node its kind,
// supernode multiplier, split history, MBR, payload in order and the
// identity of its packed caches, depth first.
func dumpTree(t *Tree) string {
	h := sha256.New()
	put := func(v uint64) { binary.Write(h, binary.LittleEndian, v) }
	put(uint64(t.Len()))
	var walk func(n *Node)
	walk = func(n *Node) {
		put(uint64(n.Len()))
		put(uint64(len(n.children)))
		put(uint64(n.super))
		put(n.history)
		putPoint(h, n.rect.Min)
		putPoint(h, n.rect.Max)
		if n.block != nil {
			put(uint64(reflect.ValueOf(n.block).Pointer()))
		}
		put(uint64(uintptr(unsafe.Pointer(n.crects))))
		for _, e := range n.Entries() {
			put(uint64(e.ID))
			putPoint(h, e.Point)
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func putPoint(h hash.Hash, p vec.Point) {
	for _, v := range p {
		binary.Write(h, binary.LittleEndian, math.Float64bits(v))
	}
}

// TestFrozenVersionsNeverChange freezes a version every few operations
// of an insert-then-delete run that splits leaves, grows and shrinks the
// root, dissolves leaves and — at d = 16 — creates supernodes. The
// subtest's packed= says whether the inserted points are float32 values
// already; when not, the tree rounds them, and the deletes find them by
// their unrounded coordinates. Every version must keep exactly what it
// showed when it was frozen, and pass the invariant check, after the
// run: the mutations copied every shared node they changed.
func TestFrozenVersionsNeverChange(t *testing.T) {
	for _, d := range []int{4, 16} {
		for _, rounded := range []bool{false, true} {
			t.Run(fmt.Sprintf("d=%d/packed=%v", d, rounded), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(d)))
				pts := rawPoints(r, 800, d)
				if rounded {
					pts = uniformPoints(r, 800, d)
				}
				tr := New(smallConfig(d))
				type frozen struct {
					v    *Tree
					dump string
				}
				var versions []frozen
				ops, maxHeight, maxLeaves := 0, 0, 0
				step := func() {
					if ops++; ops%11 == 0 {
						v := tr.Freeze()
						versions = append(versions, frozen{v, dumpTree(v)})
					}
					maxHeight = max(maxHeight, tr.Height())
				}
				for i, p := range pts {
					tr.Insert(p, i)
					step()
				}
				maxLeaves = len(tr.Leaves())
				for _, i := range r.Perm(len(pts))[:795] {
					if !tr.Delete(pts[i], i) {
						t.Fatalf("entry %d not found", i)
					}
					step()
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				st := tr.Stats()
				switch {
				case st.Splits == 0 || maxHeight < 3 || tr.Height() >= maxHeight:
					t.Fatalf("run did not grow and shrink the root: %d splits, height %d then %d", st.Splits, maxHeight, tr.Height())
				case len(tr.Leaves()) >= maxLeaves/2:
					t.Fatalf("run dissolved too few leaves: %d of %d left", len(tr.Leaves()), maxLeaves)
				case d >= 16 && st.Supernodes == 0:
					t.Fatal("run created no supernode")
				}
				for i, f := range versions {
					if got := dumpTree(f.v); got != f.dump {
						t.Fatalf("version %d of %d (%d entries) changed after it was frozen", i, len(versions), f.v.Len())
					}
					if err := f.v.CheckInvariants(); err != nil {
						t.Fatalf("version %d: %v", i, err)
					}
				}
			})
		}
	}
}

// TestFreezeIsIdempotent: freezing an unchanged tree returns the same
// version, a mutation makes the next Freeze return a new one, and a
// version refuses mutations.
func TestFreezeIsIdempotent(t *testing.T) {
	tr := New(smallConfig(2))
	tr.Insert(vec.Point{0.1, 0.1}, 0)
	v := tr.Freeze()
	if tr.Freeze() != v {
		t.Fatal("a second Freeze of an unchanged tree returned a new version")
	}
	tr.Insert(vec.Point{0.2, 0.2}, 1)
	if w := tr.Freeze(); w == v || w.Len() != 2 || v.Len() != 1 {
		t.Fatalf("versions after an insert: %d and %d entries", v.Len(), w.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("inserting into a version did not panic")
		}
	}()
	v.Insert(vec.Point{0.3, 0.3}, 2)
}

// TestNodeSizeClass: a node stays within the allocator's 144-byte size
// class, which the generation field must not push it out of.
func TestNodeSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size > 144 {
		t.Fatalf("Node is %d bytes, over the 144-byte size class", size)
	}
}

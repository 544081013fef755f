package xtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"parsearch/internal/vec"
)

func entriesOf(pts []vec.Point) []Entry {
	es := make([]Entry, len(pts))
	for i, p := range pts {
		es[i] = Entry{Point: p, ID: i}
	}
	return es
}

// wideSupernodeTree hand-builds a root directory supernode with more
// children than maxBatchedFanout, so a sphere descent takes the scalar
// loop on it.
func wideSupernodeTree(t *testing.T, r *rand.Rand, cfg Config) *Tree {
	t.Helper()
	const fanout = maxBatchedFanout + 7
	tr := New(cfg)
	root := &Node{super: int32((fanout + cfg.DirCapacity - 1) / cfg.DirCapacity)}
	id := 0
	for i := 0; i < fanout; i++ {
		leaf := &Node{leaf: true, super: 1}
		var entries []Entry
		for _, p := range uniformPoints(r, 3, cfg.Dim) {
			entries = append(entries, Entry{Point: p, ID: id})
			id++
		}
		tr.setLeaf(leaf, entries)
		leaf.recomputeRect()
		root.children = append(root.children, leaf)
	}
	root.recomputeRect()
	tr.root, tr.size = root, id
	tr.packSubtree(root)
	return tr
}

type namedTree struct {
	name string
	tree *Tree
}

// hitLeafTrees builds the tree shapes the descent must agree with the
// leaf scan on.
func hitLeafTrees(t *testing.T) []namedTree {
	t.Helper()
	r := rand.New(rand.NewSource(41))
	small := smallConfig(3)
	high := DefaultConfig(16)

	trees := []namedTree{
		{"empty", New(small)},
		{"root-only leaf", buildTree(t, uniformPoints(r, 5, 3), small)},
	}

	bulk := New(small)
	bulk.BulkLoad(entriesOf(uniformPoints(r, 3000, 3)))
	trees = append(trees, namedTree{"bulk-loaded", bulk})

	// Inserts interleaved with deletes, which dissolve and reinsert.
	pts := uniformPoints(r, 2500, 3)
	mixed := New(small)
	for i, p := range pts {
		mixed.Insert(p, i)
		if i%3 == 2 {
			if victim := r.Intn(i + 1); pts[victim] != nil {
				if !mixed.Delete(pts[victim], victim) {
					t.Fatalf("delete of live entry %d failed", victim)
				}
				pts[victim] = nil
			}
		}
	}
	trees = append(trees, namedTree{"insert-built with deletes", mixed})

	super := buildTree(t, uniformPoints(r, 2500, 16), high)
	if super.Stats().Supernodes == 0 {
		t.Fatal("the 16-dimensional tree has no supernode")
	}
	trees = append(trees,
		namedTree{"insert-built with supernodes", super},
		namedTree{"wide supernode", wideSupernodeTree(t, r, small)})

	for _, nt := range trees {
		if err := nt.tree.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", nt.name, err)
		}
	}
	return trees
}

type namedRegion struct {
	name string
	g    *Region
}

// hitLeafRegions returns the regions to check on tr: spheres of rank 0,
// of ranks that sit exactly on a leaf's MINDIST and on a stored point's
// distance, and of infinite rank, around queries inside and far outside
// the root MBR, under every metric; and boxes from a sliver to all of
// space, with the ±Inf sides a partial match produces.
func hitLeafRegions(r *rand.Rand, tr *Tree) []namedRegion {
	d := tr.cfg.Dim
	leaves := tr.Leaves()
	inside, far, huge := uniformPoints(r, 1, d)[0], make(vec.Point, d), make(vec.Point, d)
	for j := 0; j < d; j++ {
		far[j] = 40 + r.Float64()
		huge[j] = -1e300
	}
	var out []namedRegion
	for qi, q := range []vec.Point{inside, far, huge} {
		for _, m := range []vec.Metric{vec.L2, vec.L1, vec.LInf} {
			ranks := []float64{0, math.Inf(1)}
			if len(leaves) > 0 {
				leaf := leaves[r.Intn(len(leaves))]
				ranks = append(ranks, m.RankMinDist(leaf.rect, q), m.RankDist(q, leaf.Entries()[0].Point))
			}
			for _, rank := range ranks {
				out = append(out, namedRegion{
					fmt.Sprintf("sphere query %d %v rank %g", qi, m, rank),
					&Region{Q: q, M: m, Rank: rank}})
			}
		}
	}
	box := func(name string, min, max vec.Point) {
		out = append(out, namedRegion{"box " + name, &Region{Box: &vec.Rect{Min: min, Max: max}}})
	}
	lo, hi := make(vec.Point, d), make(vec.Point, d)
	for j := range lo {
		lo[j], hi[j] = 0.3, 0.45
	}
	box("small", lo, hi)
	box("unit cube", vec.UnitCube(d).Min, vec.UnitCube(d).Max)
	box("far", far, far)
	// A partial match: one dimension pinned, the others unbounded.
	pmLo, pmHi := make(vec.Point, d), make(vec.Point, d)
	for j := range pmLo {
		pmLo[j], pmHi[j] = math.Inf(-1), math.Inf(1)
	}
	box("all of space", vec.Clone(pmLo), vec.Clone(pmHi))
	pmLo[d-1], pmHi[d-1] = 0.5, 0.52
	box("partial match", pmLo, pmHi)
	if len(leaves) > 0 {
		// A box that only touches a leaf's MBR at its corner.
		leaf := leaves[r.Intn(len(leaves))]
		box("touching a leaf corner", vec.Clone(leaf.rect.Max), vec.Clone(pmHi))
	}
	return out
}

// TestHitLeavesMatchesLeafScan is the property the engine's page
// accounting rests on: the pruned descent yields exactly the leaves a
// scan of every leaf would keep — the same set in the same order — and
// a box's are the leaves RangeSearch scans.
func TestHitLeavesMatchesLeafScan(t *testing.T) {
	for _, nt := range hitLeafTrees(t) {
		tr := nt.tree
		// A page read is one block per leaf: the engine charges a
		// search log's leaves as single blocks.
		for _, leaf := range tr.Leaves() {
			if leaf.Super() != 1 {
				t.Fatalf("%s: a leaf has super %d", nt.name, leaf.Super())
			}
		}
		for _, ng := range hitLeafRegions(rand.New(rand.NewSource(42)), tr) {
			g := ng.g
			var want []*Node
			for _, leaf := range tr.Leaves() {
				if g.Hits(leaf.rect) {
					want = append(want, leaf)
				}
			}
			var got []*Node
			tr.HitLeaves(g, func(leaf *Node) { got = append(got, leaf) })
			name := fmt.Sprintf("%s/%s", nt.name, ng.name)
			if g.Box != nil {
				checkRangeVisit(t, name, tr, *g.Box, len(want))
			}
			if len(got) != len(want) {
				t.Errorf("%s: descent visits %d leaves, the scan keeps %d", name, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s: leaf %d of %d differs from the scan's", name, i, len(got))
					break
				}
			}
		}
	}
}

// checkRangeVisit fails unless RangeVisit visits exactly the entries
// box contains, leaf by leaf in Leaves order and in slot order within a
// leaf, and counts the hit leaves (hit of them) as scanned.
func checkRangeVisit(t *testing.T, name string, tr *Tree, box vec.Rect, hit int) {
	t.Helper()
	type slot struct {
		leaf *Node
		i    int
	}
	var want, got []slot
	p := make(vec.Point, tr.cfg.Dim)
	for _, leaf := range tr.Leaves() {
		for i := range leaf.Len() {
			if leaf.PointAt(i, p); box.Contains(p) {
				want = append(want, slot{leaf, i})
			}
		}
	}
	v := tr.RangeVisit(box, func(leaf *Node, i int) { got = append(got, slot{leaf, i}) })
	if v.Leaves != hit {
		t.Errorf("%s: RangeVisit scans %d leaves, the box hits %d", name, v.Leaves, hit)
	}
	if len(got) != len(want) {
		t.Errorf("%s: RangeVisit visits %d entries, the box holds %d", name, len(got), len(want))
		return
	}
	for k := range got {
		if got[k] != want[k] {
			t.Errorf("%s: visit %d of %d is slot %d of a leaf, want slot %d", name, k, len(got), got[k].i, want[k].i)
			return
		}
	}
}

// rangeHits counts TestRangeVisitAllocatesNothing's visits: a visitor
// that captures nothing.
var rangeHits int

func countRangeHit(*Node, int) { rangeHits++ }

// TestRangeVisitAllocatesNothing pins a range walk at zero allocations
// on the lib-scale shape (d = 10, 4-KByte pages), whose leaves of 48
// entries take the walk's keep list from its own frame: a box, and a
// partial match's box with every dimension but one unbounded.
func TestRangeVisitAllocatesNothing(t *testing.T) {
	const d = 10
	tr := New(DefaultConfig(d))
	tr.BulkLoad(entriesOf(uniformPoints(rand.New(rand.NewSource(44)), 20000, d)))
	box, partial := vec.Rect{Min: make(vec.Point, d), Max: make(vec.Point, d)}, vec.Rect{Min: make(vec.Point, d), Max: make(vec.Point, d)}
	for j := range box.Min {
		box.Min[j], box.Max[j] = 0.2, 0.8
		partial.Min[j], partial.Max[j] = math.Inf(-1), math.Inf(1)
	}
	partial.Min[3], partial.Max[3] = 0.5, 0.51
	for _, c := range []struct {
		name string
		box  vec.Rect
	}{{"box", box}, {"partial match", partial}} {
		rangeHits = 0
		tr.RangeVisit(c.box, countRangeHit)
		if rangeHits == 0 {
			t.Fatalf("%s: no entry inside", c.name)
		}
		if allocs := testing.AllocsPerRun(20, func() { tr.RangeVisit(c.box, countRangeHit) }); allocs != 0 {
			t.Errorf("%s: %v allocations per walk", c.name, allocs)
		}
	}
}

// The descent must also be what makes it worth having: it allocates
// nothing, and on a small region it touches a fraction of the tree.
func TestHitLeavesAllocatesNothing(t *testing.T) {
	tr := New(smallConfig(3))
	tr.BulkLoad(entriesOf(uniformPoints(rand.New(rand.NewSource(43)), 3000, 3)))
	q := vec.Point{0.5, 0.5, 0.5}
	box := vec.Rect{Min: vec.Point{0.4, 0.4, 0.4}, Max: vec.Point{0.5, 0.5, 0.5}}
	for _, ng := range []namedRegion{
		{"sphere", &Region{Q: q, M: vec.L2, Rank: 0.01}},
		{"box", &Region{Box: &box}},
	} {
		name, g := ng.name, ng.g
		hits := 0
		allocs := testing.AllocsPerRun(20, func() {
			hits = 0
			tr.HitLeaves(g, func(*Node) { hits++ })
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per walk", name, allocs)
		}
		if _, leaves := tr.NodeCount(); hits == 0 || hits*4 > leaves {
			t.Errorf("%s: %d of %d leaves hit, want a small non-empty share", name, hits, leaves)
		}
	}
}

// TestEachLeafMatchesLeaves: the walk the load path reads its points
// with visits exactly Leaves' list, in its order, on every tree shape,
// and allocates nothing.
func TestEachLeafMatchesLeaves(t *testing.T) {
	for _, nt := range hitLeafTrees(t) {
		want := nt.tree.Leaves()
		var got []*Node
		nt.tree.EachLeaf(func(leaf *Node) { got = append(got, leaf) })
		name := nt.name
		if len(got) != len(want) {
			t.Errorf("%s: EachLeaf visits %d leaves, Leaves lists %d", name, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: leaf %d of %d differs from Leaves'", name, i, len(got))
				break
			}
		}
		entries := 0
		allocs := testing.AllocsPerRun(20, func() {
			entries = 0
			nt.tree.EachLeaf(func(leaf *Node) { entries += leaf.Len() })
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per walk", name, allocs)
		}
		if entries != nt.tree.Len() {
			t.Errorf("%s: the walk met %d entries of %d", name, entries, nt.tree.Len())
		}
	}
}

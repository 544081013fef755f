package knn

import (
	"math"
	"math/rand"
	"testing"

	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// uniformEntries draws n entries uniform in [0, 1)^d, rounded to float32
// as a tree stores them, so that scan reads what the tree holds.
func uniformEntries(r *rand.Rand, n, d int) []xtree.Entry {
	entries := make([]xtree.Entry, n)
	for i := range entries {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = float64(float32(r.Float64()))
		}
		entries[i] = xtree.Entry{Point: p, ID: i}
	}
	return entries
}

func buildTree(entries []xtree.Entry, d int) *xtree.Tree {
	t := xtree.New(xtree.DefaultConfig(d))
	for _, e := range entries {
		t.Insert(e.Point, e.ID)
	}
	return t
}

func sameResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Distances must agree; IDs may differ only on exact ties.
		if math.Abs(a[i].Dist-b[i].Dist) > 1e-9 {
			return false
		}
	}
	return true
}

func TestHSMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, d := range []int{2, 4, 8, 16} {
		entries := uniformEntries(r, 1500, d)
		tree := buildTree(entries, d)
		for trial := 0; trial < 20; trial++ {
			q := make(vec.Point, d)
			for j := range q {
				q[j] = r.Float64()
			}
			for _, k := range []int{1, 5, 10} {
				want := scan(entries, q, k, vec.L2)
				got, ts := search(tree, q, k, vec.L2, 0)
				if !sameResults(got, want) {
					t.Fatalf("d=%d k=%d: HS disagrees with linear scan\n got %v\nwant %v", d, k, got, want)
				}
				if ts.Acc.PageAccesses == 0 {
					t.Fatal("HS reported zero page accesses")
				}
			}
		}
	}
}

func TestRKVMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, d := range []int{2, 8} {
		entries := uniformEntries(r, 1200, d)
		tree := buildTree(entries, d)
		for trial := 0; trial < 20; trial++ {
			q := make(vec.Point, d)
			for j := range q {
				q[j] = r.Float64()
			}
			for _, k := range []int{1, 7} {
				want := scan(entries, q, k, vec.L2)
				got, _ := RKV(tree, q, k)
				if !sameResults(got, want) {
					t.Fatalf("d=%d k=%d: RKV disagrees with linear scan", d, k)
				}
			}
		}
	}
}

func TestResultsSortedAscending(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	entries := uniformEntries(r, 500, 4)
	tree := buildTree(entries, 4)
	q := vec.Point{0.5, 0.5, 0.5, 0.5}
	res, _ := search(tree, q, 10, vec.L2, 0)
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatalf("results not sorted: %v", res)
		}
	}
}

func TestKLargerThanDataset(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	entries := uniformEntries(r, 7, 3)
	tree := buildTree(entries, 3)
	q := vec.Point{0.5, 0.5, 0.5}
	res, _ := search(tree, q, 50, vec.L2, 0)
	if len(res) != 7 {
		t.Errorf("HS returned %d results, want all 7", len(res))
	}
	res, _ = RKV(tree, q, 50)
	if len(res) != 7 {
		t.Errorf("RKV returned %d results, want all 7", len(res))
	}
}

func TestEmptyTree(t *testing.T) {
	tree := xtree.New(xtree.DefaultConfig(2))
	res, ts := search(tree, vec.Point{0.5, 0.5}, 3, vec.L2, 0)
	if res != nil || ts.Acc.PageAccesses != 0 {
		t.Error("HS on empty tree should return nothing")
	}
	res, _ = RKV(tree, vec.Point{0.5, 0.5}, 3)
	if res != nil {
		t.Error("RKV on empty tree should return nothing")
	}
}

func TestQueryValidation(t *testing.T) {
	tree := buildTree(uniformEntries(rand.New(rand.NewSource(5)), 10, 2), 2)
	for _, f := range []func(){
		func() { search(tree, vec.Point{0.5, 0.5}, 0, vec.L2, 0) },
		func() { search(tree, vec.Point{0.5}, 1, vec.L2, 0) },
		func() { RKV(tree, vec.Point{0.5, 0.5}, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestExactQueryPointFound(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	entries := uniformEntries(r, 300, 5)
	tree := buildTree(entries, 5)
	// Query exactly at a stored point: distance 0, that point first.
	res, _ := search(tree, entries[42].Point, 1, vec.L2, 0)
	if len(res) != 1 || res[0].Dist != 0 || res[0].Entry.ID != 42 {
		t.Errorf("exact query: %+v", res)
	}
}

// HS is I/O optimal: it must never read more leaf pages than those
// intersecting the NN-sphere (plus it must read all of them).
func TestHSReadsExactlySphereLeaves(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const d, k = 8, 3
	entries := uniformEntries(r, 2000, d)
	tree := buildTree(entries, d)
	for trial := 0; trial < 10; trial++ {
		q := make(vec.Point, d)
		for j := range q {
			q[j] = r.Float64()
		}
		res, ts := search(tree, q, k, vec.L2, 0)
		acc := ts.Acc
		leaves := 0
		tree.HitLeaves(&xtree.Region{Q: q, M: vec.L2, Rank: vec.L2.RankDist(q, res[k-1].Entry.Point)}, func(*xtree.Node) { leaves++ })
		if acc.LeafAccesses > leaves {
			t.Errorf("HS read %d leaves, sphere intersects only %d", acc.LeafAccesses, leaves)
		}
		// HS may read slightly fewer than the sphere count when the
		// bound tightens mid-leaf, but not more, and never less than
		// half (sanity that HitLeaves measures the same thing).
		if acc.LeafAccesses*2 < leaves {
			t.Errorf("HS read %d leaves but sphere intersects %d", acc.LeafAccesses, leaves)
		}
	}
}

// RKV visits at least as many pages as HS (HS is optimal).
func TestRKVNeverBeatsHS(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	const d = 8
	entries := uniformEntries(r, 2000, d)
	tree := buildTree(entries, d)
	hsTotal, rkvTotal := 0, 0
	for trial := 0; trial < 20; trial++ {
		q := make(vec.Point, d)
		for j := range q {
			q[j] = r.Float64()
		}
		_, hs := search(tree, q, 1, vec.L2, 0)
		_, rkv := RKV(tree, q, 1)
		hsTotal += hs.Acc.PageAccesses
		rkvTotal += rkv.PageAccesses
	}
	if rkvTotal < hsTotal {
		t.Errorf("RKV total pages %d < HS %d; HS should be optimal", rkvTotal, hsTotal)
	}
}

func TestAccountingSeparatesNodeKinds(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	entries := uniformEntries(r, 3000, 4)
	tree := buildTree(entries, 4)
	q := vec.Point{0.5, 0.5, 0.5, 0.5}
	_, ts := search(tree, q, 5, vec.L2, 0)
	acc := ts.Acc
	if acc.DirAccesses == 0 || acc.LeafAccesses == 0 {
		t.Errorf("accounting missing accesses: %+v", acc)
	}
	if acc.PageAccesses < acc.DirAccesses+acc.LeafAccesses {
		t.Errorf("page accesses %d below node accesses %d", acc.PageAccesses, acc.DirAccesses+acc.LeafAccesses)
	}
}

func TestLinearTieBreaking(t *testing.T) {
	entries := []xtree.Entry{
		{Point: vec.Point{0.4}, ID: 3},
		{Point: vec.Point{0.6}, ID: 1},
		{Point: vec.Point{0.4}, ID: 2},
	}
	res := scan(entries, vec.Point{0.5}, 3, vec.L2)
	// Distances: 0.1, 0.1, 0.1 — all ties; order by ID.
	if res[0].Entry.ID != 1 || res[1].Entry.ID != 2 || res[2].Entry.ID != 3 {
		t.Errorf("tie-break order wrong: %v", res)
	}
}

// The Figure-1 effect: page accesses of a 1-NN query grow rapidly with
// dimension at constant data size.
func TestDegenerationWithDimension(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	const n = 4000
	prev := 0.0
	for _, d := range []int{2, 8, 16} {
		entries := uniformEntries(r, n, d)
		tree := buildTree(entries, d)
		total := 0
		for trial := 0; trial < 10; trial++ {
			q := make(vec.Point, d)
			for j := range q {
				q[j] = r.Float64()
			}
			_, ts := search(tree, q, 1, vec.L2, 0)
			total += ts.Acc.PageAccesses
		}
		avg := float64(total) / 10
		if avg < prev {
			t.Errorf("page accesses fell from %.1f to %.1f when dimension grew to %d", prev, avg, d)
		}
		prev = avg
	}
}

func TestSphereLeafPagesZeroRadius(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	entries := uniformEntries(r, 500, 3)
	tree := buildTree(entries, 3)
	// Radius 0 at a data point: at least the leaf holding it.
	pages, leaves := 0, 0
	tree.HitLeaves(&xtree.Region{Q: entries[0].Point, M: vec.L2}, func(l *xtree.Node) {
		pages += l.Super()
		leaves++
	})
	if leaves < 1 || pages < leaves {
		t.Errorf("zero-radius sphere: pages=%d leaves=%d", pages, leaves)
	}
}

func BenchmarkHS16D(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	entries := uniformEntries(r, 10000, 16)
	tree := buildTree(entries, 16)
	q := make(vec.Point, 16)
	for j := range q {
		q[j] = r.Float64()
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		search(tree, q, 10, vec.L2, 0)
	}
}

func BenchmarkRKV16D(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	entries := uniformEntries(r, 10000, 16)
	tree := buildTree(entries, 16)
	q := make(vec.Point, 16)
	for j := range q {
		q[j] = r.Float64()
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RKV(tree, q, 10)
	}
}

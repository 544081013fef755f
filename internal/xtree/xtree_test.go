package xtree

import (
	"math/rand"
	"sort"
	"testing"

	"parsearch/internal/vec"
)

// uniformPoints draws n points uniform in [0, 1)^d, rounded to float32 as
// a tree stores them, so that a test may look them up by their values.
func uniformPoints(r *rand.Rand, n, d int) []vec.Point {
	pts := rawPoints(r, n, d)
	for _, p := range pts {
		for j := range p {
			p[j] = float64(float32(p[j]))
		}
	}
	return pts
}

// rawPoints draws uniformPoints' points without rounding them.
func rawPoints(r *rand.Rand, n, d int) []vec.Point {
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = r.Float64()
		}
		pts[i] = p
	}
	return pts
}

func buildTree(t *testing.T, pts []vec.Point, cfg Config) *Tree {
	t.Helper()
	tr := New(cfg)
	for i, p := range pts {
		tr.Insert(p, i)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after build: %v", err)
	}
	return tr
}

func smallConfig(d int) Config {
	return Config{
		Dim: d, LeafCapacity: 8, DirCapacity: 6,
		MinFill: 0.4, MaxOverlap: 0.2, MinFanout: 0.35,
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Dim: 0, LeafCapacity: 8, DirCapacity: 6, MinFill: 0.4, MaxOverlap: 0.2, MinFanout: 0.35},
		{Dim: 2, LeafCapacity: 1, DirCapacity: 6, MinFill: 0.4, MaxOverlap: 0.2, MinFanout: 0.35},
		{Dim: 2, LeafCapacity: 8, DirCapacity: 1, MinFill: 0.4, MaxOverlap: 0.2, MinFanout: 0.35},
		{Dim: 2, LeafCapacity: 8, DirCapacity: 6, MinFill: 0, MaxOverlap: 0.2, MinFanout: 0.35},
		{Dim: 2, LeafCapacity: 8, DirCapacity: 6, MinFill: 0.6, MaxOverlap: 0.2, MinFanout: 0.35},
		{Dim: 2, LeafCapacity: 8, DirCapacity: 6, MinFill: 0.4, MaxOverlap: 1.2, MinFanout: 0.35},
		{Dim: 2, LeafCapacity: 8, DirCapacity: 6, MinFill: 0.4, MaxOverlap: 0.2, MinFanout: 0},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d: expected panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestDefaultConfigCapacities(t *testing.T) {
	cfg := DefaultConfig(16)
	// 4096 / (16*8+4) = 31 entries, 4096 / (16*16+8) = 15 children.
	if cfg.LeafCapacity != 31 {
		t.Errorf("leaf capacity %d, want 31", cfg.LeafCapacity)
	}
	if cfg.DirCapacity != 15 {
		t.Errorf("dir capacity %d, want 15", cfg.DirCapacity)
	}
	New(cfg) // must validate
	if LeafCapacityForPage(1000, 64) != 2 || DirCapacityForPage(1000, 64) != 2 {
		t.Error("tiny pages must clamp capacities to 2")
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(smallConfig(3))
	if tr.Len() != 0 || tr.Root() != nil || tr.Height() != 0 {
		t.Error("empty tree not empty")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Errorf("empty tree invariants: %v", err)
	}
	if got, v := tr.RangeSearch(vec.UnitCube(3)); got != nil || v != (Visited{}) {
		t.Error("range search on empty tree should return nothing")
	}
	if tr.Leaves() != nil {
		t.Error("leaves of empty tree")
	}
	if tr.Delete(vec.Point{0, 0, 0}, 1) {
		t.Error("delete from empty tree succeeded")
	}
}

func TestInsertDimensionMismatchPanics(t *testing.T) {
	tr := New(smallConfig(3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Insert(vec.Point{0.5}, 1)
}

func TestInsertAndExactSearch(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := uniformPoints(r, 500, 4)
	tr := buildTree(t, pts, smallConfig(4))
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i, p := range pts {
		found := tr.PointSearch(p)
		ok := false
		for _, e := range found {
			if e.ID == i {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("point %d not found by exact search", i)
		}
	}
}

func TestInsertClonesPoint(t *testing.T) {
	tr := New(smallConfig(2))
	p := vec.Point{0.5, 0.5}
	tr.Insert(p, 0)
	p[0] = 0.9 // mutate the caller's slice
	if got := tr.PointSearch(vec.Point{0.5, 0.5}); len(got) != 1 {
		t.Error("tree shares memory with caller's point")
	}
}

func TestRangeSearchMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	const d = 3
	pts := uniformPoints(r, 1000, d)
	tr := buildTree(t, pts, smallConfig(d))
	for trial := 0; trial < 50; trial++ {
		lo := make(vec.Point, d)
		hi := make(vec.Point, d)
		for j := 0; j < d; j++ {
			a, b := r.Float64(), r.Float64()
			if a > b {
				a, b = b, a
			}
			lo[j], hi[j] = a, b
		}
		q := vec.NewRect(lo, hi)
		got, _ := tr.RangeSearch(q)
		var want []int
		for i, p := range pts {
			if q.Contains(p) {
				want = append(want, i)
			}
		}
		gotIDs := make([]int, len(got))
		for i, e := range got {
			gotIDs[i] = e.ID
		}
		sort.Ints(gotIDs)
		if len(gotIDs) != len(want) {
			t.Fatalf("trial %d: got %d entries, want %d", trial, len(gotIDs), len(want))
		}
		for i := range want {
			if gotIDs[i] != want[i] {
				t.Fatalf("trial %d: id mismatch", trial)
			}
		}
	}
}

func TestRangeSearchCountsAccesses(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := uniformPoints(r, 2000, 2)
	tr := buildTree(t, pts, smallConfig(2))
	_, all := tr.RangeSearch(vec.UnitCube(2))
	dirs, leaves := tr.NodeCount()
	if all != (Visited{Nodes: dirs + leaves, Leaves: leaves}) {
		t.Errorf("full-space query visited %+v, tree has %d nodes (%d leaves)", all, dirs+leaves, leaves)
	}
	// A tiny query must access far fewer nodes.
	_, tiny := tr.RangeSearch(vec.NewRect(vec.Point{0.5, 0.5}, vec.Point{0.501, 0.501}))
	if tiny.Nodes >= all.Nodes/4 {
		t.Errorf("tiny query accessed %d of %d nodes", tiny.Nodes, all.Nodes)
	}
}

func TestTreeGrowsInHeight(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	tr := New(smallConfig(2))
	heights := map[int]bool{}
	for i, p := range uniformPoints(r, 3000, 2) {
		tr.Insert(p, i)
		heights[tr.Height()] = true
	}
	if tr.Height() < 3 {
		t.Errorf("height %d after 3000 inserts with capacity 8", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !heights[1] || !heights[2] {
		t.Error("tree should have passed through heights 1 and 2")
	}
}

func TestDuplicatePoints(t *testing.T) {
	tr := New(smallConfig(2))
	p := vec.Point{0.5, 0.5}
	for i := 0; i < 100; i++ {
		tr.Insert(p, i)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants with duplicates: %v", err)
	}
	if got := tr.PointSearch(p); len(got) != 100 {
		t.Errorf("found %d duplicates, want 100", len(got))
	}
}

func TestDelete(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const d = 3
	pts := uniformPoints(r, 800, d)
	tr := buildTree(t, pts, smallConfig(d))

	// Delete with wrong id fails; right id succeeds exactly once.
	if tr.Delete(pts[0], 999999) {
		t.Error("delete with wrong id succeeded")
	}
	if !tr.Delete(pts[0], 0) {
		t.Error("delete failed")
	}
	if tr.Delete(pts[0], 0) {
		t.Error("double delete succeeded")
	}
	if tr.Len() != 799 {
		t.Errorf("Len = %d after delete", tr.Len())
	}
	if len(tr.PointSearch(pts[0])) != 0 {
		t.Error("deleted point still found")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAll(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	const d = 2
	pts := uniformPoints(r, 500, d)
	tr := buildTree(t, pts, smallConfig(d))
	perm := r.Perm(len(pts))
	for k, i := range perm {
		if !tr.Delete(pts[i], i) {
			t.Fatalf("delete %d failed", i)
		}
		if k%50 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("invariants after %d deletes: %v", k+1, err)
			}
		}
	}
	if tr.Len() != 0 || tr.Root() != nil {
		t.Errorf("tree not empty after deleting everything: len=%d", tr.Len())
	}
}

func TestMixedWorkloadInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const d = 4
	tr := New(smallConfig(d))
	live := map[int]vec.Point{}
	nextID := 0
	for round := 0; round < 3000; round++ {
		if len(live) == 0 || r.Float64() < 0.6 {
			p := uniformPoints(r, 1, d)[0]
			tr.Insert(p, nextID)
			live[nextID] = p
			nextID++
		} else {
			// Delete a random live entry.
			var id int
			for id = range live {
				break
			}
			if !tr.Delete(live[id], id) {
				t.Fatalf("delete of live entry %d failed", id)
			}
			delete(live, id)
		}
	}
	if tr.Len() != len(live) {
		t.Fatalf("Len = %d, live = %d", tr.Len(), len(live))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for id, p := range live {
		found := false
		for _, e := range tr.PointSearch(p) {
			if e.ID == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("live entry %d lost", id)
		}
	}
}

func TestDeleteDimensionMismatchPanics(t *testing.T) {
	tr := New(smallConfig(2))
	tr.Insert(vec.Point{0.1, 0.1}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Delete(vec.Point{0.1}, 0)
}

// High-dimensional data must create supernodes instead of degenerate
// overlapping directory splits — the defining X-tree behaviour.
func TestSupernodesAppearInHighDimensions(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	const d = 16
	cfg := DefaultConfig(d)
	tr := New(cfg)
	for i, p := range uniformPoints(r, 6000, d) {
		tr.Insert(p, i)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Supernodes == 0 {
		t.Error("no supernodes created on 16-dimensional uniform data")
	}
	t.Logf("d=%d: %d splits, %d overlap-minimal, %d supernode extensions",
		d, st.Splits, st.OverlapMinimalSplits, st.Supernodes)
}

// In low dimensions the tree should behave like an R*-tree: no or very few
// supernodes.
func TestFewSupernodesInLowDimensions(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	cfg := DefaultConfig(2)
	tr := New(cfg)
	for i, p := range uniformPoints(r, 20000, 2) {
		tr.Insert(p, i)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Supernodes > st.Splits/10 {
		t.Errorf("%d supernode extensions vs %d splits in d=2", st.Supernodes, st.Splits)
	}
}

func TestBulkLoad(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	const d = 8
	pts := uniformPoints(r, 5000, d)
	entries := make([]Entry, len(pts))
	for i, p := range pts {
		entries[i] = Entry{Point: p, ID: i}
	}
	tr := New(DefaultConfig(d))
	tr.BulkLoad(entries)
	if tr.Len() != len(pts) {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every point must be findable.
	for i := 0; i < len(pts); i += 97 {
		found := false
		for _, e := range tr.PointSearch(pts[i]) {
			if e.ID == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("bulk-loaded point %d not found", i)
		}
	}
}

func TestBulkLoadEmptyAndSmall(t *testing.T) {
	tr := New(smallConfig(2))
	tr.BulkLoad(nil)
	if tr.Len() != 0 || tr.Root() != nil {
		t.Error("bulk load of nothing should leave an empty tree")
	}
	tr.BulkLoad([]Entry{{Point: vec.Point{0.5, 0.5}, ID: 7}})
	if tr.Len() != 1 || tr.Height() != 1 {
		t.Errorf("single-entry bulk load: len=%d height=%d", tr.Len(), tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadDimensionMismatchPanics(t *testing.T) {
	tr := New(smallConfig(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.BulkLoad([]Entry{{Point: vec.Point{0.5}, ID: 0}})
}

// Bulk-loaded leaves should have zero pairwise overlap (the recursive
// median partition guarantees it for distinct points).
func TestBulkLoadLeavesDisjoint(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const d = 4
	pts := uniformPoints(r, 3000, d)
	entries := make([]Entry, len(pts))
	for i, p := range pts {
		entries[i] = Entry{Point: p, ID: i}
	}
	tr := New(smallConfig(d))
	tr.BulkLoad(entries)
	leaves := tr.Leaves()
	overlapping := 0
	for i := 0; i < len(leaves); i++ {
		for j := i + 1; j < len(leaves); j++ {
			if leaves[i].Rect().OverlapArea(leaves[j].Rect()) > 0 {
				overlapping++
			}
		}
	}
	if overlapping > 0 {
		t.Errorf("%d overlapping leaf pairs after bulk load", overlapping)
	}
}

func TestBulkLoadReplacesContent(t *testing.T) {
	tr := New(smallConfig(2))
	tr.Insert(vec.Point{0.1, 0.1}, 1)
	tr.BulkLoad([]Entry{{Point: vec.Point{0.9, 0.9}, ID: 2}})
	if len(tr.PointSearch(vec.Point{0.1, 0.1})) != 0 {
		t.Error("old content survived bulk load")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestLeavesEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	pts := uniformPoints(r, 400, 3)
	tr := buildTree(t, pts, smallConfig(3))
	total := 0
	for _, l := range tr.Leaves() {
		if !l.IsLeaf() {
			t.Fatal("Leaves returned a directory node")
		}
		total += len(l.Entries())
	}
	if total != 400 {
		t.Errorf("leaves hold %d entries, want 400", total)
	}
	_, leafCount := tr.NodeCount()
	if leafCount != len(tr.Leaves()) {
		t.Errorf("NodeCount leaves %d != len(Leaves) %d", leafCount, len(tr.Leaves()))
	}
}

func TestNodeAccessors(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	pts := uniformPoints(r, 200, 2)
	tr := buildTree(t, pts, smallConfig(2))
	root := tr.Root()
	if root.IsLeaf() {
		t.Fatal("root should be a directory after 200 inserts with capacity 8")
	}
	if root.Entries() != nil {
		t.Error("directory node has entries")
	}
	if len(root.Children()) == 0 {
		t.Error("directory node has no children")
	}
	if root.Super() < 1 {
		t.Error("invalid supernode multiplier")
	}
	if !root.Rect().Valid() {
		t.Error("invalid root rect")
	}
}

func BenchmarkInsert16D(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tr := New(DefaultConfig(16))
	pts := uniformPoints(r, b.N+1, 16)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(pts[i], i)
	}
}

func TestBulkLoadGrouped(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	const d = 4
	// Three spatial groups plus an empty one; no leaf may span groups.
	makeGroup := func(base float64, n, idStart int) []Entry {
		g := make([]Entry, n)
		for i := range g {
			p := make(vec.Point, d)
			for j := range p {
				p[j] = float64(float32(base + 0.2*r.Float64()))
			}
			g[i] = Entry{Point: p, ID: idStart + i}
		}
		return g
	}
	groups := [][]Entry{
		makeGroup(0.0, 100, 0),
		nil, // empty group is allowed
		makeGroup(0.4, 150, 100),
		makeGroup(0.8, 1, 250), // single-entry group
	}
	tr := New(smallConfig(d))
	tr.BulkLoadGrouped(groups)
	if tr.Len() != 251 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every leaf must lie entirely within one group's region.
	for _, leaf := range tr.Leaves() {
		rect := leaf.Rect()
		within := 0
		for _, base := range []float64{0.0, 0.4, 0.8} {
			if rect.Min[0] >= base-1e-12 && rect.Max[0] <= base+0.2+1e-12 {
				within++
			}
		}
		if within != 1 {
			t.Fatalf("leaf %v spans group boundaries", rect)
		}
	}
	// All entries findable.
	for _, id := range []int{0, 99, 100, 249, 250} {
		found := false
		for _, g := range groups {
			for _, e := range g {
				if e.ID == id {
					for _, got := range tr.PointSearch(e.Point) {
						if got.ID == id {
							found = true
						}
					}
				}
			}
		}
		if !found {
			t.Fatalf("entry %d lost", id)
		}
	}
}

func TestBulkLoadGroupedEmpty(t *testing.T) {
	tr := New(smallConfig(2))
	tr.BulkLoadGrouped(nil)
	if tr.Len() != 0 || tr.Root() != nil {
		t.Error("empty grouped load should leave an empty tree")
	}
	tr.BulkLoadGrouped([][]Entry{nil, nil})
	if tr.Len() != 0 {
		t.Error("all-empty groups should leave an empty tree")
	}
}

func TestBulkLoadGroupedDimensionPanics(t *testing.T) {
	tr := New(smallConfig(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.BulkLoadGrouped([][]Entry{{{Point: vec.Point{0.5}, ID: 0}}})
}

func TestConfigAccessor(t *testing.T) {
	cfg := smallConfig(3)
	tr := New(cfg)
	if got := tr.Config(); got != cfg {
		t.Errorf("Config = %+v, want %+v", got, cfg)
	}
}

func TestSuperFor(t *testing.T) {
	tests := []struct{ count, cap, want int }{
		{0, 6, 1}, {1, 6, 1}, {6, 6, 1}, {7, 6, 2}, {12, 6, 2}, {13, 6, 3},
	}
	for _, tt := range tests {
		if got := superFor(tt.count, tt.cap); int(got) != tt.want {
			t.Errorf("superFor(%d, %d) = %d, want %d", tt.count, tt.cap, got, tt.want)
		}
	}
}

package knn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

func TestBoundTighten(t *testing.T) {
	b := NewBound()
	if !math.IsInf(b.Load(), 1) {
		t.Fatalf("fresh bound %v, want +inf", b.Load())
	}
	if !b.Tighten(2.5) {
		t.Fatal("first Tighten reported no improvement")
	}
	if b.Load() != 2.5 {
		t.Fatalf("bound %v, want 2.5", b.Load())
	}
	if b.Tighten(3.0) {
		t.Fatal("Tighten loosened the bound")
	}
	if b.Load() != 2.5 {
		t.Fatalf("bound %v after rejected Tighten, want 2.5", b.Load())
	}
	if !b.Tighten(0) {
		t.Fatal("Tighten to 0 rejected")
	}
	if b.Load() != 0 {
		t.Fatalf("bound %v, want 0", b.Load())
	}
}

// TestBoundConcurrentMin hammers one bound from many goroutines: the
// final value must be the minimum ever offered (no lost updates).
func TestBoundConcurrentMin(t *testing.T) {
	b := NewBound()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				b.Tighten(1 + rng.Float64()*1000)
			}
		}(w)
	}
	wg.Wait()
	got := b.Load()
	// Replay all streams to find the true minimum.
	want := math.Inf(1)
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < per; i++ {
			if v := 1 + rng.Float64()*1000; v < want {
				want = v
			}
		}
	}
	if got != want {
		t.Fatalf("concurrent bound %v, want minimum %v", got, want)
	}
}

func sharedTestTree(n, dim int, seed int64) (*xtree.Tree, []xtree.Entry) {
	rng := rand.New(rand.NewSource(seed))
	tr := xtree.New(xtree.DefaultConfig(dim))
	entries := make([]xtree.Entry, n)
	for i := 0; i < n; i++ {
		p := make(vec.Point, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		tr.Insert(p, i)
		entries[i] = xtree.Entry{Point: p, ID: i}
	}
	return tr, entries
}

// bulkTestTree bulk-loads n float32-representable points: at 20000
// points the tree has three levels, so a stopped search leaves directory
// nodes in its queue.
func bulkTestTree(n, dim int, seed int64) *xtree.Tree {
	rng := rand.New(rand.NewSource(seed))
	cfg := xtree.DefaultConfig(dim)
	entries := make([]xtree.Entry, n)
	for i := range entries {
		p := make(vec.Point, dim)
		for j := range p {
			p[j] = float64(float32(rng.Float64()))
		}
		entries[i] = xtree.Entry{Point: p, ID: i}
	}
	tr := xtree.New(cfg)
	tr.BulkLoad(entries)
	return tr
}

// inside returns the results at rank distance <= bound from q.
func inside(rs []Result, q vec.Point, m vec.Metric, bound float64) []Result {
	var in []Result
	for _, r := range rs {
		if m.RankDist(q, r.Entry.Point) <= bound {
			in = append(in, r)
		}
	}
	return in
}

// TestHSSharedMatchesHS runs HSMetric beside the shared search on the
// same tree — the check the bench gate's visited+saved sum used to make.
// Under a bound below, exactly on (a tie), and above the true k-th
// distance, the shared search is a prefix of the independent one: no
// accounting field exceeds the independent search's, the results at or
// inside the final bound are the independent search's in the same
// order, and Saved is charged exactly when the bound cut work.
func TestHSSharedMatchesHS(t *testing.T) {
	trees := []struct {
		name string
		tree *xtree.Tree
	}{
		{"two-level", bulkTestTree(600, 6, 7)},
		{"three-level", bulkTestTree(20000, 6, 7)},
	}
	for _, tc := range trees {
		tr := tc.tree
		rng := rand.New(rand.NewSource(8))
		cut := 0
		for _, m := range []vec.Metric{vec.L2, vec.L1, vec.LInf} {
			for qi := 0; qi < 12; qi++ {
				q := make(vec.Point, 6)
				for j := range q {
					q[j] = float64(float32(rng.Float64()))
				}
				for _, k := range []int{1, 5, 50} {
					want, wantAcc := HSMetric(tr, q, k, m)
					kth := m.RankDist(q, want[k-1].Entry.Point)
					for _, f := range []float64{0, 0.25, 0.8, 1, 1.5, math.Inf(1)} {
						label := fmt.Sprintf("%s/%v/q%d/k%d/f%v", tc.name, m, qi, k, f)
						b := NewBound()
						if !math.IsInf(f, 1) {
							b.Tighten(kth * f)
						}
						got, acc, ss := HSShared(tr, q, k, m, b, nil)
						if acc.DirAccesses > wantAcc.DirAccesses || acc.LeafAccesses > wantAcc.LeafAccesses ||
							acc.PageAccesses > wantAcc.PageAccesses {
							t.Fatalf("%s: shared %+v exceeds independent %+v", label, acc, wantAcc)
						}
						final := b.Load()
						if in, wantIn := inside(got, q, m, final), inside(want, q, m, final); !reflect.DeepEqual(in, wantIn) {
							t.Fatalf("%s: results inside the bound differ:\n got  %v\n want %v", label, in, wantIn)
						}
						if f >= 1 && !reflect.DeepEqual(inside(got, q, m, kth), want) {
							t.Fatalf("%s: a bound at or above the k-th distance lost a result", label)
						}
						diff := wantAcc.PageAccesses - acc.PageAccesses
						if (ss.Saved.PageAccesses > 0) != (diff > 0) {
							t.Fatalf("%s: saved %d pages, independent search read %d more", label, ss.Saved.PageAccesses, diff)
						}
						if ss.RemotePages != 0 {
							t.Fatalf("%s: unseeded bound charged %d remote pages", label, ss.RemotePages)
						}
						if diff > 0 {
							cut++
						}
					}
				}
			}
		}
		if cut == 0 {
			t.Errorf("%s: no bound ever cut a search", tc.name)
		}
	}
}

// TestHSSharedSeededBound: a search stopped by the seed itself charges
// its saving to the remote bound; once a local tightening improves on
// the seed, nothing more is.
func TestHSSharedSeededBound(t *testing.T) {
	tr := bulkTestTree(20000, 6, 7)
	q := vec.Point{0.25, 0.5, 0.75, 0.5, 0.25, 0.5}
	want, _ := HSMetric(tr, q, 5, vec.L2)
	kth := vec.L2.RankDist(q, want[4].Entry.Point)

	b := NewBound()
	b.Seed(kth / 2)
	got, _, ss := HSShared(tr, q, 5, vec.L2, b, nil)
	if ss.Saved.PageAccesses == 0 || ss.RemotePages != ss.Saved.PageAccesses {
		t.Fatalf("seed below the k-th distance: saved %d pages, %d of them remote", ss.Saved.PageAccesses, ss.RemotePages)
	}
	if in := inside(got, q, vec.L2, kth/2); !reflect.DeepEqual(in, inside(want, q, vec.L2, kth/2)) {
		t.Fatalf("results inside the seed differ: %v", in)
	}

	b = NewBound()
	b.Seed(kth * 4)
	if _, _, ss = HSShared(tr, q, 5, vec.L2, b, nil); ss.Tightened == 0 || ss.RemotePages != 0 {
		t.Fatalf("loose seed: %d tightenings, %d remote pages", ss.Tightened, ss.RemotePages)
	}
}

// TestHSSharedInfiniteBoundIsIndependent: with an untouched (+inf)
// bound nothing is pruned and the accounting matches HSMetric exactly.
func TestHSSharedInfiniteBoundIsIndependent(t *testing.T) {
	tr, _ := sharedTestTree(400, 4, 3)
	q := vec.Point{0.3, 0.7, 0.1, 0.9}
	want, wantAcc := HSMetric(tr, q, 10, vec.L2)
	got, acc, ss := HSShared(tr, q, 10, vec.L2, NewBound(), nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results differ with an infinite bound")
	}
	if acc != wantAcc {
		t.Fatalf("accounting %+v, want %+v", acc, wantAcc)
	}
	if ss.Saved != (Accounting{}) {
		t.Fatalf("infinite bound saved %+v, want zero", ss.Saved)
	}
	// The search itself must have published its improving k-best.
	if ss.Tightened == 0 {
		t.Fatal("search never tightened the bound")
	}
}

// TestHSSharedZeroBoundSavesEverything: a bound of 0 (perfect knowledge,
// k results at distance 0 elsewhere) stops the search at the root of a
// tree the query lies outside of: nothing is read, nothing is returned,
// and the root is what was saved.
func TestHSSharedZeroBoundSavesEverything(t *testing.T) {
	tr, _ := sharedTestTree(400, 4, 3)
	q := vec.Point{2, 2, 2, 2} // outside the data cube: all MINDISTs positive
	b := NewBound()
	b.Tighten(0)
	got, acc, ss := HSShared(tr, q, 3, vec.L2, b, nil)
	if len(got) != 0 {
		t.Fatalf("zero bound returned %v", got)
	}
	if acc != (Accounting{}) {
		t.Fatalf("zero bound still did %+v", acc)
	}
	if want := (Accounting{DirAccesses: 1, PageAccesses: tr.Root().Super()}); ss.Saved != want {
		t.Fatalf("saved %+v, want the root %+v", ss.Saved, want)
	}
	if ss.Tightened != 0 {
		t.Fatal("stopped search published the bound")
	}
}

// TestHSSharedOnTighten checks the callback fires once per successful
// tightening with monotonically decreasing values.
func TestHSSharedOnTighten(t *testing.T) {
	tr, _ := sharedTestTree(500, 4, 11)
	q := vec.Point{0.5, 0.5, 0.5, 0.5}
	var seen []float64
	_, _, ss := HSShared(tr, q, 5, vec.L2, NewBound(), func(sq float64) {
		seen = append(seen, sq)
	})
	if len(seen) != ss.Tightened {
		t.Fatalf("%d callbacks, stats say %d tightenings", len(seen), ss.Tightened)
	}
	if len(seen) == 0 {
		t.Fatal("no tightenings observed")
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] >= seen[i-1] {
			t.Fatalf("bound not strictly decreasing: %v", seen)
		}
	}
}

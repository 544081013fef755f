package knn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

func sharedTestTree(n, dim int, seed int64) *xtree.Tree {
	rng := rand.New(rand.NewSource(seed))
	tr := xtree.New(xtree.DefaultConfig(dim))
	for i := 0; i < n; i++ {
		p := make(vec.Point, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		tr.Insert(p, i)
	}
	return tr
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

// testQuery draws a float32-representable query.
func testQuery(rng *rand.Rand, dim int) vec.Point {
	q := make(vec.Point, dim)
	for j := range q {
		q[j] = float64(float32(rng.Float64()))
	}
	return q
}

// TestHSSharedMatchesHS: the shim the benchmark's probes time, with a
// fresh bound, is the one-tree Search — the same results, Accounting and
// stats — so its rows measure the product's loop.
func TestHSSharedMatchesHS(t *testing.T) {
	for _, tr := range []*xtree.Tree{bulkTestTree(600, 6, 7), bulkTestTree(20000, 6, 7)} {
		rng := rand.New(rand.NewSource(8))
		for _, m := range []vec.Metric{vec.L2, vec.L1, vec.LInf} {
			for qi := 0; qi < 12; qi++ {
				q := testQuery(rng, 6)
				for _, k := range []int{1, 5, 50} {
					want, ts := search(tr, q, k, m, 0)
					got, acc, st := HSShared(tr, q, k, m, NewBound(), nil)
					if !reflect.DeepEqual(got, want) || acc != ts.Acc || st != ts.Stats {
						t.Fatalf("%v/q%d/k%d: HSShared %v %+v %+v, Search %v %+v %+v",
							m, qi, k, got, acc, st, want, ts.Acc, ts.Stats)
					}
				}
			}
		}
	}
}

// TestHSSharedSeededBound runs a one-tree Search under a Seed below,
// exactly on (a tie), and above the true k-th distance — the bound a
// coordinator ships, which the shared bound once carried — beside the
// unseeded search. The seeded search is a prefix of the unseeded one: no
// accounting field exceeds it, the results at or inside the seed are
// its results in the same order, and Saved is charged exactly when the
// seed cut work. A seed below the k-th distance stopped the search
// itself, so all of its saving is remote; a loose seed's is none.
func TestHSSharedSeededBound(t *testing.T) {
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
				q := testQuery(rng, 6)
				for _, k := range []int{1, 5, 50} {
					want, wantTS := search(tr, q, k, m, 0)
					wantAcc := wantTS.Acc
					kth := m.RankDist(q, want[k-1].Entry.Point)
					for _, f := range []float64{0.25, 0.8, 1, 1.5, 4} {
						label := fmt.Sprintf("%s/%v/q%d/k%d/f%v", tc.name, m, qi, k, f)
						seed := kth * f
						got, ts := search(tr, q, k, m, seed)
						acc, st := ts.Acc, ts.Stats
						if acc.DirAccesses > wantAcc.DirAccesses || acc.LeafAccesses > wantAcc.LeafAccesses ||
							acc.PageAccesses > wantAcc.PageAccesses {
							t.Fatalf("%s: seeded %+v exceeds unseeded %+v", label, acc, wantAcc)
						}
						if in, wantIn := inside(got, q, m, seed), inside(want, q, m, seed); !reflect.DeepEqual(in, wantIn) {
							t.Fatalf("%s: results inside the seed differ:\n got  %v\n want %v", label, in, wantIn)
						}
						if f >= 1 && !reflect.DeepEqual(inside(got, q, m, kth), want) {
							t.Fatalf("%s: a seed at or above the k-th distance lost a result", label)
						}
						diff := wantAcc.PageAccesses - acc.PageAccesses
						if (st.Saved.PageAccesses > 0) != (diff > 0) {
							t.Fatalf("%s: saved %d pages, unseeded search read %d more", label, st.Saved.PageAccesses, diff)
						}
						if f < 1 && st.RemotePages != st.Saved.PageAccesses {
							t.Fatalf("%s: seed below the k-th distance: saved %d pages, %d of them remote", label, st.Saved.PageAccesses, st.RemotePages)
						}
						if f > 1 && st.RemotePages != 0 {
							t.Fatalf("%s: loose seed charged %d remote pages", label, st.RemotePages)
						}
						if diff > 0 {
							cut++
						}
					}
				}
			}
		}
		if cut == 0 {
			t.Errorf("%s: no seed ever cut a search", tc.name)
		}
	}

	tr := trees[1].tree
	q := vec.Point{0.25, 0.5, 0.75, 0.5, 0.25, 0.5}
	want, _ := search(tr, q, 5, vec.L2, 0)
	kth := vec.L2.RankDist(q, want[4].Entry.Point)
	if _, ts := search(tr, q, 5, vec.L2, kth/2); ts.Stats.Saved.PageAccesses == 0 || ts.Stats.RemotePages != ts.Stats.Saved.PageAccesses {
		t.Fatalf("seed below the k-th distance: saved %d pages, %d of them remote", ts.Stats.Saved.PageAccesses, ts.Stats.RemotePages)
	}
}

// TestHSSharedInfiniteBoundIsIndependent: HSShared with a fresh bound
// prunes nothing beyond its own k-th best: its answer and accounting are
// the unseeded Search's, and it saves nothing.
func TestHSSharedInfiniteBoundIsIndependent(t *testing.T) {
	tr := sharedTestTree(400, 4, 3)
	q := vec.Point{0.3, 0.7, 0.1, 0.9}
	want, ts := search(tr, q, 10, vec.L2, 0)
	got, acc, st := HSShared(tr, q, 10, vec.L2, NewBound(), nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results differ with an infinite bound")
	}
	if acc != ts.Acc {
		t.Fatalf("accounting %+v, want %+v", acc, ts.Acc)
	}
	if st.Saved != (Accounting{}) {
		t.Fatalf("infinite bound saved %+v, want zero", st.Saved)
	}
}

// TestHSSharedZeroBoundSavesEverything: a tiny positive Seed (near
// perfect knowledge: k results almost at distance 0 elsewhere) stops a
// Search at the root of a tree the query lies outside of: nothing is
// read, nothing is returned, and the root is what was saved — all of it
// to the remote bound.
func TestHSSharedZeroBoundSavesEverything(t *testing.T) {
	tr := sharedTestTree(400, 4, 3)
	q := vec.Point{2, 2, 2, 2} // outside the data cube: all MINDISTs positive
	got, ts := search(tr, q, 3, vec.L2, math.SmallestNonzeroFloat64)
	if len(got) != 0 {
		t.Fatalf("tiny seed returned %v", got)
	}
	if ts.Acc != (Accounting{}) {
		t.Fatalf("tiny seed still did %+v", ts.Acc)
	}
	root := Accounting{DirAccesses: 1, PageAccesses: tr.Root().Super()}
	if ts.Stats.Saved != root || ts.Stats.RemotePages != root.PageAccesses {
		t.Fatalf("saved %+v (%d remote pages), want the root %+v", ts.Stats.Saved, ts.Stats.RemotePages, root)
	}
}

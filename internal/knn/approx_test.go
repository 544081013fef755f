package knn

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// TestSearchAcrossTrees runs one Search over four trees — the third a
// copy of the first under other IDs, so the k-th distance is often a
// tie across trees — and requires the answer of a linear scan of their
// union, ties broken by ID. Every tree reads exactly the leaves its
// share of the NN-sphere hits: the leaves Tree.HitLeaves finds for the
// answer's k-th distance, which is what the tree is charged for.
func TestSearchAcrossTrees(t *testing.T) {
	const dim = 6
	rng := rand.New(rand.NewSource(3))
	var trees []*xtree.Tree
	var all []xtree.Entry
	var first []xtree.Entry
	for ti := 0; ti < 4; ti++ {
		entries := make([]xtree.Entry, 3000)
		for i := range entries {
			var p vec.Point
			if ti == 2 {
				p = first[i].Point
			} else {
				p = make(vec.Point, dim)
				for j := range p {
					p[j] = float64(float32(rng.Float64()))
				}
			}
			entries[i] = xtree.Entry{Point: p, ID: ti*len(entries) + i}
		}
		if ti == 0 {
			first = entries
		}
		tr := xtree.New(xtree.DefaultConfig(dim))
		tr.BulkLoad(entries)
		trees = append(trees, tr)
		all = append(all, entries...)
	}
	var s Search
	for _, m := range []vec.Metric{vec.L2, vec.L1, vec.LInf} {
		for qi := 0; qi < 10; qi++ {
			q := make(vec.Point, dim)
			for j := range q {
				q[j] = float64(float32(rng.Float64()))
			}
			if qi == 0 {
				q = first[7].Point // a tie at distance 0
			}
			for _, k := range []int{1, 5, 50} {
				label := fmt.Sprintf("%v/q%d/k%d", m, qi, k)
				s.Q, s.K, s.M, s.Shrink = q, k, m, 1
				slots := s.Slots(len(trees))
				for i := range slots {
					slots[i].Tree = trees[i]
				}
				got := s.Run()
				if want := LinearMetric(all, q, k, m); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: one queue\n %v\nlinear scan\n %v", label, got, want)
				}
				kth := m.RankDist(q, got[k-1].Entry.Point)
				for i, tr := range trees {
					ts := &s.Trees[i]
					hit := 0
					tr.HitLeaves(&xtree.Region{Q: q, M: m, Rank: kth}, func(*xtree.Node) { hit++ })
					logged, ok := ts.Log.Hits(kth)
					if ts.Acc.LeafAccesses != hit || !ok || logged != hit || len(ts.Log.Ranks) != hit {
						t.Fatalf("%s: tree %d read %d leaves (log %d, %d inside, ok %v), the sphere hits %d",
							label, i, ts.Acc.LeafAccesses, len(ts.Log.Ranks), logged, ok, hit)
					}
				}
				s.Reset()
			}
		}
	}
}

// TestKNNTiesOnKthDistanceLaterLeaf: a later leaf holds a point at
// exactly the k-th distance the search has reached when it starts, with
// a smaller ID than the k-th candidate, so it must replace it. Its offset
// from q lies in the first dimension alone, so a staged kernel's partial
// already equals the bound: a filter that drops ties (< instead of <=)
// returns the larger ID. Tree a's leaf covers q and is read first; tree
// b's leaf lies at MINDIST d.
func TestKNNTiesOnKthDistanceLaterLeaf(t *testing.T) {
	const d = 1.0 / 8
	q := vec.Point{0.5, 0.5, 0.5}
	at := func(dx, dy, dz float64) vec.Point { return vec.Point{q[0] + dx, q[1] + dy, q[2] + dz} }
	groups := [][]xtree.Entry{
		{{Point: at(d, 0, 0), ID: 1}, {Point: at(-0.3, -0.3, -0.3), ID: 2}, {Point: at(0.3, 0.3, 0.3), ID: 3}},
		{{Point: at(-d, 0, 0), ID: 0}, {Point: at(-0.4, 0.3, 0.3), ID: 4}, {Point: at(-0.4, -0.3, -0.3), ID: 5}},
	}
	var trees []*xtree.Tree
	var all []xtree.Entry
	for _, g := range groups {
		tr := xtree.New(xtree.DefaultConfig(len(q)))
		for _, e := range g {
			tr.Insert(e.Point, e.ID)
		}
		trees = append(trees, tr)
		all = append(all, g...)
	}
	for _, m := range []vec.Metric{vec.L2, vec.L1, vec.LInf} {
		var s Search
		s.Q, s.K, s.M, s.Shrink = q, 1, m, 1
		slots := s.Slots(len(trees))
		for i := range slots {
			slots[i].Tree = trees[i]
		}
		got := s.Run()
		if want := LinearMetric(all, q, 1, m); !reflect.DeepEqual(got, want) || got[0].Entry.ID != 0 {
			t.Fatalf("%v: one queue %v, linear scan %v", m, got, want)
		}
		if s.Trees[1].Acc.LeafAccesses != 1 {
			t.Fatalf("%v: tree b read %d leaves, want 1", m, s.Trees[1].Acc.LeafAccesses)
		}
	}
}

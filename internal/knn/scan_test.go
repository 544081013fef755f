package knn

import (
	"cmp"
	"slices"

	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// scan is the tests' oracle: the k entries nearest q under m by a linear
// scan, sorted by (distance, ID) — the order every search returns — with
// metric distances. The results are the given entries; their points are
// the caller's.
func scan(entries []xtree.Entry, q vec.Point, k int, m vec.Metric) []Result {
	out := make([]Result, len(entries))
	for i, e := range entries {
		out[i] = Result{Entry: e, Dist: m.RankDist(q, e.Point)}
	}
	slices.SortFunc(out, func(a, b Result) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Entry.ID, b.Entry.ID))
	})
	out = out[:min(k, len(out))]
	for i := range out {
		out[i].Dist = m.FromRank(out[i].Dist)
	}
	return out
}

// search runs an exact Search over the one tree t, under the seed when it
// is positive, and returns the answer and the tree's slot.
func search(t *xtree.Tree, q vec.Point, k int, m vec.Metric, seed float64) ([]Result, *TreeSearch) {
	s := &Search{Q: q, K: k, M: m, Shrink: 1, Seed: seed}
	ts := &s.Slots(1)[0]
	ts.Tree = t
	return s.Run(), ts
}

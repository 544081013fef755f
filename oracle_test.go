package parsearch

import (
	"cmp"
	"slices"
	"testing"

	"parsearch/internal/vec"
)

// The test oracle: one scan over the points as the index stores them.
// Ingest rounds every coordinate to float32, so the oracle rounds each
// point it is given the same way, and ranks by (distance, ID) as the
// engine does. An exact answer is byte-identical to it: IDs, distances
// and points.

// rounded returns p as the index stores it: each coordinate rounded to
// float32.
func rounded(p []float64) []float64 {
	out := make([]float64, len(p))
	for j, x := range p {
		out[j] = float64(float32(x))
	}
	return out
}

// roundF32 returns the points as the index stores them (see rounded); a
// nil point stays nil.
func roundF32(pts [][]float64) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		if p != nil {
			out[i] = rounded(p)
		}
	}
	return out
}

// scanKNN returns the k points of points (live ID to coordinates as
// given to the index) nearest q under m, ordered by (distance, ID).
func scanKNN(points map[int][]float64, q []float64, k int, m vec.Metric) []Neighbor {
	hits := make([]Neighbor, 0, len(points))
	for id, p := range points {
		p = rounded(p)
		hits = append(hits, Neighbor{ID: id, Point: p, Dist: m.FromRank(m.RankDist(q, p))})
	}
	slices.SortFunc(hits, func(a, b Neighbor) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
	})
	return hits[:min(k, len(hits))]
}

// scanBox returns the IDs of the points whose stored coordinates lie in
// [lo, hi], boundary inclusive, ascending: RangeQuery's order.
func scanBox(points map[int][]float64, lo, hi []float64) []int {
	ids := []int{} // non-nil: DeepEqual-comparable with resultIDs on empty results
	for id, p := range points {
		if (vec.Rect{Min: lo, Max: hi}).Contains(rounded(p)) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// requireScan fails t unless the answer got, named by label, is want
// rank by rank: the same IDs, distances and points.
func requireScan(t *testing.T, label string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, the scan has %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist || !slices.Equal(got[i].Point, want[i].Point) {
			t.Fatalf("%s rank %d: got (id %d, %v, %v), the scan (id %d, %v, %v)",
				label, i, got[i].ID, got[i].Dist, got[i].Point, want[i].ID, want[i].Dist, want[i].Point)
		}
	}
}

// ScanKNN is scanKNN under a public metric, for the external tests.
func ScanKNN(points map[int][]float64, q []float64, k int, m Metric) []Neighbor {
	vm, err := m.vecMetric()
	if err != nil {
		panic(err)
	}
	return scanKNN(points, q, k, vm)
}

package parsearch

import "testing"

// raceEnabled is set by race_test.go: under the race detector sync.Pool
// drops pooled objects at random, so allocation counts mean nothing.
var raceEnabled bool

// TestQueryAllocations pins what a query allocates, so the count cannot
// drift back unnoticed. The ceilings sit two above the level measured
// on a 16-disk index (KNN 98, a batch of one 81, RangeQuery 95 and 111
// packed); the accounting once descended every routed tree again and
// grew its page list read by read, at 106, 89, 105 and 187.
func TestQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const dim = 10
	q := uniformPoints(1, dim, 92)[0]
	lo, hi := make([]float64, dim), make([]float64, dim)
	for i := range lo {
		lo[i], hi[i] = 0.3, 0.7
	}
	for _, tc := range []struct {
		packed            bool
		knn, batch, boxed float64
	}{
		{false, 100, 83, 97},
		{true, 100, 83, 113},
	} {
		ix, err := Open(Options{Dim: dim, Disks: 16, Packed: tc.packed})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Build(rawPoints(20000, dim, 91)); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name    string
			ceiling float64
			run     func() error
		}{
			{"KNN", tc.knn, func() error { _, _, err := ix.KNN(q, 10); return err }},
			{"BatchKNN item", tc.batch, func() error { _, _, err := ix.BatchKNN([][]float64{q}, 10); return err }},
			{"RangeQuery", tc.boxed, func() error { _, _, err := ix.RangeQuery(lo, hi); return err }},
		} {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
			if got := testing.AllocsPerRun(50, func() { _ = c.run() }); got > c.ceiling {
				t.Errorf("packed=%v %s: %v allocations, ceiling %v", tc.packed, c.name, got, c.ceiling)
			}
		}
	}
}

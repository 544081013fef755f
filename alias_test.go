package parsearch

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"
)

// TestResultsDoNotAliasIndex: an answer's points are the caller's copy.
// Writing to every returned Point of a KNN, KNNApprox, RangeQuery,
// PartialMatch, BatchKNN and Browser answer changes nothing the index
// holds: the same query answers as before, and CheckIntegrity passes.
func TestResultsDoNotAliasIndex(t *testing.T) {
	const dim = 3
	q := []float64{0.5, 0.5, 0.5}
	lo, hi := []float64{0, 0, 0}, []float64{1, 1, 1}
	spec := []float64{0.5, Wildcard, Wildcard}
	ix, err := Open(Options{Dim: dim, Disks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(rawPoints(2000, dim, 71)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func() ([]Neighbor, error)
	}{
		{"KNN", func() ([]Neighbor, error) { res, _, err := ix.KNN(q, 10); return res, err }},
		{"KNNApprox", func() ([]Neighbor, error) {
			res, _, err := ix.KNNApprox(q, 10, Approx{Epsilon: 0.5})
			return res, err
		}},
		{"RangeQuery", func() ([]Neighbor, error) {
			res, _, err := ix.RangeQueryContext(context.Background(), lo, hi)
			return res, err
		}},
		{"PartialMatch", func() ([]Neighbor, error) {
			res, _, err := ix.PartialMatchContext(context.Background(), spec, 0.05)
			return res, err
		}},
		{"BatchKNN", func() ([]Neighbor, error) {
			res, _, err := ix.BatchKNNContext(context.Background(), [][]float64{q, lo}, 5)
			return slices.Concat(res...), err
		}},
		{"Browser", func() ([]Neighbor, error) {
			b, err := ix.Browse(q)
			if err != nil {
				return nil, err
			}
			var page []Neighbor
			for range 20 {
				n, ok := b.Next()
				if !ok {
					break
				}
				page = append(page, n)
			}
			return page, b.Err()
		}},
	} {
		name := c.name
		first, err := c.run()
		if err != nil {
			t.Fatal(err)
		}
		if len(first) == 0 {
			t.Fatalf("%s: empty answer", name)
		}
		want := make([]Neighbor, len(first))
		for i, n := range first {
			want[i] = n
			want[i].Point = slices.Clone(n.Point)
		}
		for _, n := range first {
			for j := range n.Point {
				n.Point[j] = 99
			}
		}
		got, err := c.run()
		if err != nil {
			t.Fatal(err)
		}
		same := func(a, b Neighbor) bool {
			// A partial match's distance to its box center is NaN.
			return a.ID == b.ID && slices.Equal(a.Point, b.Point) &&
				(a.Dist == b.Dist || math.IsNaN(a.Dist) && math.IsNaN(b.Dist))
		}
		if !slices.EqualFunc(got, want, same) {
			t.Errorf("%s: writing to an answer's points changed the next answer", name)
		}
		if err := ix.CheckIntegrity(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestCheckIntegrityComparesPoints: CheckIntegrity compares every point
// a tree holds with its ID's row in the point table, and the table's
// tombstones with the trees' IDs.
func TestCheckIntegrityComparesPoints(t *testing.T) {
	for _, c := range []struct {
		name, want string
		damage     func(tbl *pointTable)
	}{
		{"row", "differs from its table row", func(tbl *pointTable) {
			tbl.f32[7*tbl.dim+1] += 0.25
		}},
		{"tombstone", "not live", func(tbl *pointTable) {
			// The live count stays: another ID comes alive.
			tbl.dead[7] = true
			tbl.add([]float64{0.1, 0.2, 0.3})
		}},
	} {
		ix, err := Open(Options{Dim: 3, Disks: 4, Replication: 1, Baseline: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Build(rawPoints(500, 3, 72)); err != nil {
			t.Fatal(err)
		}
		if err := ix.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
		c.damage(ix.tbl)
		if err := ix.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckIntegrity says %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

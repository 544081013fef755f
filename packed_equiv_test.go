package parsearch

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"parsearch/internal/data"
	"parsearch/internal/vec"
)

// The storage battery: an index stores float32 coordinates in slabs and
// searches them with batched kernels, and every exact answer must be
// byte-identical to the oracle's scan over the stored points (see
// oracle_test.go), across every query kind, metric, replication setting
// and failure state. An ε answer must keep its stated guarantee against
// the same scan. The inputs are not float32 values, so ingest's rounding
// is in every answer. Page counts are pinned by TestPinnedPageCounts and
// TestAccountingFromSearchLog.

// sameNeighbors compares two answers bit for bit. Plain == would reject
// the NaN distances partial-match results carry (the box center of a
// wildcard query is NaN), so floats compare by their IEEE bits.
func sameNeighbors(a, b []Neighbor) bool {
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	return slices.EqualFunc(a, b, func(x, y Neighbor) bool {
		return x.ID == y.ID && bits(x.Dist) == bits(y.Dist) &&
			slices.EqualFunc(x.Point, y.Point, func(u, v float64) bool { return bits(u) == bits(v) })
	})
}

// rawPoints returns uniform points that are float32 values already.
func rawPoints(n, dim int, seed int64) [][]float64 {
	return roundF32(uniformPoints(n, dim, seed))
}

func TestPackedEquivalenceBattery(t *testing.T) {
	const (
		dim   = 6
		disks = 4
		n     = 300
	)
	pts := uniformPoints(n, dim, 1234)
	truth := builtPoints(pts)
	queries := uniformPoints(6, dim, 99)

	scenarios := []struct {
		name string
		repl int
		fail int // disk to fail, -1 for none
	}{
		{"repl0", 0, -1},
		{"repl1", 1, -1},
		{"repl1-fail2", 1, 2},
	}
	for _, metric := range []Metric{Euclidean, Manhattan, Maximum} {
		m, err := metric.vecMetric()
		if err != nil {
			t.Fatal(err)
		}
		for _, shared := range []bool{true, false} {
			for _, sc := range scenarios {
				name := fmt.Sprintf("%s/%s/shared=%v", metric, sc.name, shared)
				t.Run(name, func(t *testing.T) {
					ix := buildFrom(t, Options{Dim: dim, Disks: disks, Metric: metric, Replication: sc.repl}, pts)
					if sc.fail >= 0 {
						if err := ix.FailDisk(sc.fail); err != nil {
							t.Fatal(err)
						}
					}

					// KNN across the k range of the battery. shared: the
					// disks search together under one bound, as a query
					// does. Not shared: every disk is searched alone (see
					// independentKNN) and the answers merged.
					for _, k := range []int{1, 5, n} {
						for qi, q := range queries {
							label := fmt.Sprintf("knn k=%d q=%d", k, qi)
							want := scanKNN(truth, q, k, m)
							if !shared {
								got, _ := independentKNN(t, ix, q, k)
								requireScan(t, label, got, want)
								continue
							}
							got, _, err := ix.KNN(q, k)
							if err != nil {
								t.Fatal(err)
							}
							requireScan(t, label, got, want)
							// ε-termination reads each disk's own k-th
							// best, which the leaf scan must still feed
							// every entry that could enter it.
							for _, eps := range []float64{0.1, 0.5} {
								got, _, err := ix.KNNApprox(q, k, Approx{Epsilon: eps})
								if err != nil {
									t.Fatal(err)
								}
								if len(got) != len(want) {
									t.Fatalf("%s eps=%v: %d results, the scan has %d", label, eps, len(got), len(want))
								}
								for i := range got {
									if got[i].Dist > (1+eps)*want[i].Dist {
										t.Fatalf("%s eps=%v rank %d: dist %v above (1+ε) × the scan's %v", label, eps, i, got[i].Dist, want[i].Dist)
									}
								}
							}
						}
					}
					if shared {
						batch, _, err := ix.BatchKNNContext(context.Background(), queries, 5)
						if err != nil {
							t.Fatal(err)
						}
						for qi, q := range queries {
							requireScan(t, fmt.Sprintf("batch item %d", qi), batch[qi], scanKNN(truth, q, 5, m))
						}
					}
					for qi, q := range queries {
						got, _, err := ix.KNN(q, 1)
						if err != nil {
							t.Fatal(err)
						}
						requireScan(t, fmt.Sprintf("nn q=%d", qi), got, scanKNN(truth, q, 1, m))
					}

					// Range and partial-match queries: the IDs the scan
					// finds in the box, each with its stored point.
					checkBox := func(label string, res []Neighbor, lo, hi []float64) {
						t.Helper()
						if got, want := resultIDs(res), scanBox(truth, lo, hi); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: IDs %v, the scan's %v", label, got, want)
						}
						for _, nb := range res {
							if !slices.Equal(nb.Point, rounded(truth[nb.ID])) {
								t.Fatalf("%s: ID %d at %v, stored at %v", label, nb.ID, nb.Point, rounded(truth[nb.ID]))
							}
						}
					}
					for qi, q := range queries {
						lo, hi := make([]float64, dim), make([]float64, dim)
						for j := range q {
							lo[j], hi[j] = q[j]-0.15, q[j]+0.15
						}
						res, _, err := ix.RangeQueryContext(context.Background(), lo, hi)
						if err != nil {
							t.Fatal(err)
						}
						checkBox(fmt.Sprintf("range q=%d", qi), res, lo, hi)

						// Two specified dimensions, the rest wildcards.
						spec := make([]float64, dim)
						for j := range spec {
							spec[j], lo[j], hi[j] = Wildcard, math.Inf(-1), math.Inf(1)
						}
						for _, j := range []int{0, dim - 1} {
							spec[j], lo[j], hi[j] = q[j], q[j]-0.2, q[j]+0.2
						}
						if res, _, err = ix.PartialMatchContext(context.Background(), spec, 0.2); err != nil {
							t.Fatal(err)
						}
						checkBox(fmt.Sprintf("partial q=%d", qi), res, lo, hi)
					}
				})
			}
		}
	}
}

// TestPackedEquivalenceAfterMutation exercises the dirty-flag slab
// maintenance: after interleaved inserts and deletes the index must
// still answer as the oracle's scan.
func TestPackedEquivalenceAfterMutation(t *testing.T) {
	const (
		dim   = 5
		disks = 4
		n     = 200
	)
	pts := uniformPoints(n, dim, 77)
	truth := builtPoints(pts)
	ix := buildFrom(t, Options{Dim: dim, Disks: disks}, pts)
	for i, p := range data.Uniform(80, dim, 78) {
		id, err := ix.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		truth[id] = p
		if i%3 == 0 {
			id := i * 2 % n
			if err := ix.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(truth, id)
		}
	}
	for qi, q := range uniformPoints(5, dim, 79) {
		for _, k := range []int{1, 7} {
			got, _, err := ix.KNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			requireScan(t, fmt.Sprintf("q=%d k=%d", qi, k), got, scanKNN(truth, q, k, vec.L2))
		}
	}
}

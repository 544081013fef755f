package parsearch

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"parsearch/internal/data"
)

// The packed-storage equivalence battery: a packed index (contiguous
// float32 slabs, batched kernels) must return byte-identical results to
// the float64 reference path on the same data, across every query kind,
// metric, replication setting, and failure state — and its cost
// accounting must agree exactly. The input coordinates are pre-rounded
// to float32, so the reference index holds the same float64 values
// packed mode's ingest rounding produces and any difference is a kernel
// bug, not a representation gap.

// roundF32 rounds every coordinate through float32, the packed ingest
// contract, so reference and packed indexes see identical values.
func roundF32(pts [][]float64) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		q := make([]float64, len(p))
		for j, x := range p {
			q[j] = float64(float32(x))
		}
		out[i] = q
	}
	return out
}

// sameNeighbor compares two neighbors bit for bit. Plain == would
// reject the NaN distances partial-match results carry (the box center
// of a wildcard query is NaN), so floats compare by their IEEE bits.
func sameNeighbor(a, b Neighbor) bool {
	if a.ID != b.ID || len(a.Point) != len(b.Point) {
		return false
	}
	if math.Float64bits(a.Dist) != math.Float64bits(b.Dist) {
		return false
	}
	for j := range a.Point {
		if math.Float64bits(a.Point[j]) != math.Float64bits(b.Point[j]) {
			return false
		}
	}
	return true
}

func sameNeighbors(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameNeighbor(a[i], b[i]) {
			return false
		}
	}
	return true
}

func rawPoints(n, dim int, seed int64) [][]float64 {
	pts := data.Uniform(n, dim, seed)
	raw := make([][]float64, len(pts))
	for i := range pts {
		raw[i] = pts[i]
	}
	return roundF32(raw)
}

// checkStatsParity compares the cost fields of one query run on the
// reference and packed indexes, search pages included: the k-NN search
// and the range walk are both deterministic.
func checkStatsParity(t *testing.T, label string, ref, packed QueryStats) {
	t.Helper()
	if ref.TotalPages != packed.TotalPages || ref.MaxPages != packed.MaxPages {
		t.Fatalf("%s: page accounting differs: ref total=%d max=%d, packed total=%d max=%d",
			label, ref.TotalPages, ref.MaxPages, packed.TotalPages, packed.MaxPages)
	}
	if ref.Unreachable != packed.Unreachable || ref.Rerouted != packed.Rerouted || ref.Degraded != packed.Degraded {
		t.Fatalf("%s: fault accounting differs: ref %+v packed %+v", label, ref, packed)
	}
	if ref.SearchPages != packed.SearchPages || ref.PagesSavedByBound != packed.PagesSavedByBound {
		t.Fatalf("%s: search pages differ: ref %d (+%d saved), packed %d (+%d saved)", label,
			ref.SearchPages, ref.PagesSavedByBound, packed.SearchPages, packed.PagesSavedByBound)
	}
}

func TestPackedEquivalenceBattery(t *testing.T) {
	const (
		dim   = 6
		disks = 4
		n     = 300
	)
	raw := rawPoints(n, dim, 1234)
	queries := rawPoints(6, dim, 99)

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
		for _, shared := range []bool{true, false} {
			for _, sc := range scenarios {
				name := fmt.Sprintf("%s/%s/shared=%v", metric, sc.name, shared)
				t.Run(name, func(t *testing.T) {
					base := Options{
						Dim: dim, Disks: disks, Metric: metric,
						Replication: sc.repl,
					}
					ref, err := Open(base)
					if err != nil {
						t.Fatal(err)
					}
					packedOpts := base
					packedOpts.Packed = true
					packed, err := Open(packedOpts)
					if err != nil {
						t.Fatal(err)
					}
					if err := ref.Build(raw); err != nil {
						t.Fatal(err)
					}
					if err := packed.Build(raw); err != nil {
						t.Fatal(err)
					}
					if sc.fail >= 0 {
						if err := ref.FailDisk(sc.fail); err != nil {
							t.Fatal(err)
						}
						if err := packed.FailDisk(sc.fail); err != nil {
							t.Fatal(err)
						}
					}

					// KNN across the k range of the battery. shared: the
					// disks search together under one bound, as a query
					// does. Not shared: every disk is searched alone (see
					// independentKNN), so its search pages are its own
					// tree's and must agree disk for disk.
					for _, k := range []int{1, 5, n} {
						for qi, q := range queries {
							label := fmt.Sprintf("knn k=%d q=%d", k, qi)
							if !shared {
								wantRes, wantPages := independentKNN(t, ref, q, k)
								gotRes, gotPages := independentKNN(t, packed, q, k)
								if !sameNeighbors(gotRes, wantRes) {
									t.Fatalf("%s: results differ:\n ref    %v\n packed %v", label, wantRes, gotRes)
								}
								if !reflect.DeepEqual(gotPages, wantPages) {
									t.Fatalf("%s: search pages per disk differ: ref %v, packed %v", label, wantPages, gotPages)
								}
								continue
							}
							wantRes, wantStats, wantErr := ref.KNN(q, k)
							gotRes, gotStats, gotErr := packed.KNN(q, k)
							if (wantErr == nil) != (gotErr == nil) {
								t.Fatalf("%s: error mismatch: ref %v, packed %v", label, wantErr, gotErr)
							}
							if !sameNeighbors(gotRes, wantRes) {
								t.Fatalf("%s: results differ:\n ref    %v\n packed %v", label, wantRes, gotRes)
							}
							checkStatsParity(t, label, wantStats, gotStats)
							// ε-termination reads each disk's own k-th
							// best, which the packed leaf scan must still
							// feed every entry that could enter it.
							for _, eps := range []float64{0.1, 0.5} {
								label := fmt.Sprintf("%s eps=%v", label, eps)
								wantRes, wantStats, wantErr := ref.KNNApprox(q, k, Approx{Epsilon: eps})
								gotRes, gotStats, gotErr := packed.KNNApprox(q, k, Approx{Epsilon: eps})
								if (wantErr == nil) != (gotErr == nil) {
									t.Fatalf("%s: error mismatch: ref %v, packed %v", label, wantErr, gotErr)
								}
								if !sameNeighbors(gotRes, wantRes) {
									t.Fatalf("%s: results differ:\n ref    %v\n packed %v", label, wantRes, gotRes)
								}
								if !reflect.DeepEqual(gotStats, wantStats) {
									t.Fatalf("%s: stats differ:\n ref    %+v\n packed %+v", label, wantStats, gotStats)
								}
							}
						}
					}
					if shared {
						// A batch item searches its disks one after the
						// other, so the bound's trajectory — what every disk
						// reads and saves — is deterministic and must agree.
						wantRes, wantStats, wantErr := ref.BatchKNN(queries, 5)
						gotRes, gotStats, gotErr := packed.BatchKNN(queries, 5)
						if wantErr != nil || gotErr != nil {
							t.Fatalf("batch: ref %v, packed %v", wantErr, gotErr)
						}
						for qi := range queries {
							label := fmt.Sprintf("batch item %d", qi)
							if !sameNeighbors(gotRes[qi], wantRes[qi]) {
								t.Fatalf("%s: results differ:\n ref    %v\n packed %v", label, wantRes[qi], gotRes[qi])
							}
							checkStatsParity(t, label, wantStats.PerQuery[qi], gotStats.PerQuery[qi])
						}
					}
					for qi, q := range queries {
						label := fmt.Sprintf("nn q=%d", qi)
						want, _, wantErr := ref.NN(q)
						got, _, gotErr := packed.NN(q)
						if (wantErr == nil) != (gotErr == nil) {
							t.Fatalf("%s: error mismatch: ref %v, packed %v", label, wantErr, gotErr)
						}
						if !sameNeighbor(got, want) {
							t.Fatalf("%s: result differs: ref %+v, packed %+v", label, want, got)
						}
					}

					// Range queries: boxes around each query point. Range
					// traversal is fully deterministic, so SearchPages must
					// match exactly in both modes.
					for qi, q := range queries {
						lo, hi := make([]float64, dim), make([]float64, dim)
						for j := range q {
							lo[j], hi[j] = q[j]-0.15, q[j]+0.15
						}
						label := fmt.Sprintf("range q=%d", qi)
						wantRes, wantStats, wantErr := ref.RangeQuery(lo, hi)
						gotRes, gotStats, gotErr := packed.RangeQuery(lo, hi)
						if (wantErr == nil) != (gotErr == nil) {
							t.Fatalf("%s: error mismatch: ref %v, packed %v", label, wantErr, gotErr)
						}
						if !sameNeighbors(gotRes, wantRes) {
							t.Fatalf("%s: results differ:\n ref    %v\n packed %v", label, wantRes, gotRes)
						}
						checkStatsParity(t, label, wantStats, gotStats)
					}

					// Partial-match queries: two specified dimensions, the
					// rest wildcards.
					for qi, q := range queries {
						spec := make([]float64, dim)
						for j := range spec {
							spec[j] = Wildcard
						}
						spec[0], spec[dim-1] = q[0], q[dim-1]
						label := fmt.Sprintf("partial q=%d", qi)
						wantRes, wantStats, wantErr := ref.PartialMatch(spec, 0.2)
						gotRes, gotStats, gotErr := packed.PartialMatch(spec, 0.2)
						if (wantErr == nil) != (gotErr == nil) {
							t.Fatalf("%s: error mismatch: ref %v, packed %v", label, wantErr, gotErr)
						}
						if !sameNeighbors(gotRes, wantRes) {
							t.Fatalf("%s: results differ:\n ref    %v\n packed %v", label, wantRes, gotRes)
						}
						checkStatsParity(t, label, wantStats, gotStats)
					}
				})
			}
		}
	}
}

// TestPackedEquivalenceAfterMutation exercises the dirty-flag slab
// maintenance: after interleaved inserts and deletes the packed index
// must still answer identically to the reference.
func TestPackedEquivalenceAfterMutation(t *testing.T) {
	const (
		dim   = 5
		disks = 4
		n     = 200
	)
	raw := rawPoints(n, dim, 77)
	extra := rawPoints(80, dim, 78)
	queries := rawPoints(5, dim, 79)

	ref, err := Open(Options{Dim: dim, Disks: disks})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := Open(Options{Dim: dim, Disks: disks, Packed: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Build(raw); err != nil {
		t.Fatal(err)
	}
	if err := packed.Build(raw); err != nil {
		t.Fatal(err)
	}
	for i, p := range extra {
		refID, err := ref.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		packedID, err := packed.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		if refID != packedID {
			t.Fatalf("insert %d: IDs diverge (%d vs %d)", i, refID, packedID)
		}
		if i%3 == 0 {
			id := i * 2 % n
			if err := ref.Delete(id); err != nil {
				t.Fatal(err)
			}
			if err := packed.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	for qi, q := range queries {
		for _, k := range []int{1, 7} {
			wantRes, _, wantErr := ref.KNN(q, k)
			gotRes, _, gotErr := packed.KNN(q, k)
			if wantErr != nil || gotErr != nil {
				t.Fatalf("q=%d k=%d: errors ref=%v packed=%v", qi, k, wantErr, gotErr)
			}
			if !sameNeighbors(gotRes, wantRes) {
				t.Fatalf("q=%d k=%d: results differ after mutations:\n ref    %v\n packed %v",
					qi, k, wantRes, gotRes)
			}
		}
	}
}

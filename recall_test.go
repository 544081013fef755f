package parsearch

// The statistical recall battery for the approximate tier: seeded,
// deterministic inputs measured against a brute-force linear scan.
// Approximation changes *which* pages a query visits, so individual
// page counts are not pinned; what the battery pins is the contract:
//
//   - ε=0 routes through the exact path and is byte-for-byte identical
//     to KNN, stats included.
//   - Every neighbor an ε-query returns is within (1+ε) of the true
//     kth distance — the termination guarantee, which holds regardless
//     of scheduling.
//   - Mean recall stays above the documented floor for each knob.
//   - PagesSkippedApprox is nonzero where the tier claims a win, so
//     the knob is proven non-vacuous, not just non-wrong.

import (
	"fmt"
	"reflect"
	"testing"

	"parsearch/internal/data"
)

// recallOf measures |returned ∩ true top-k| / k against the linear
// scan. Ties are impossible on uniform random coordinates, so ID-set
// intersection is exact.
func recallOf(res []Neighbor, truth []Neighbor) float64 {
	if len(truth) == 0 {
		return 1
	}
	want := make(map[int]bool, len(truth))
	for _, h := range truth {
		want[h.ID] = true
	}
	hits := 0
	for _, nb := range res {
		if want[nb.ID] {
			hits++
		}
	}
	return float64(hits) / float64(len(truth))
}

// TestApproxRecallBattery sweeps ε ∈ {0, 0.1, 0.5} across declustering
// strategies × replication × points rounded at ingest ("base") or
// float32 already ("packed").
// Small pages make the per-shard trees deep enough that early
// termination has real pages to skip at this workload size.
func TestApproxRecallBattery(t *testing.T) {
	const dim, disks, n, k, nq = 6, 5, 2500, 10, 40
	pts := uniformPoints(n, dim, 101)
	truth := make(map[int][]float64, n)
	for id, p := range pts {
		truth[id] = p
	}
	queries := data.Uniform(nq, dim, 102)
	m, err := Euclidean.vecMetric()
	if err != nil {
		t.Fatal(err)
	}

	epsCases := []struct {
		eps   float64
		floor float64 // minimum mean recall over the query set
	}{
		{0, 1.0},
		{0.1, 0.95},
		{0.5, 0.80},
	}
	variants := []struct {
		name string
		pts  [][]float64
	}{
		{"base", pts},
		{"packed", roundF32(pts)},
	}

	// Aggregated across every configuration: each ε knob must skip
	// pages somewhere in the battery, or the knob is vacuous.
	skippedByEps := make(map[float64]int)

	for _, kind := range []Kind{NearOptimal, Hilbert, RoundRobin} {
		for _, rv := range replicationVariants {
			for _, v := range variants {
				opts := Options{Dim: dim, Disks: disks, Kind: kind,
					Replication: rv.value, PageSize: 256}
				ix := buildFrom(t, opts, v.pts)

				for _, ec := range epsCases {
					t.Run(fmt.Sprintf("%s/%s/%s/eps=%v", kind, rv.name, v.name, ec.eps), func(t *testing.T) {
						var recallSum float64
						for qi, q := range queries {
							res, stats, err := ix.KNNApprox(q, k, Approx{Epsilon: ec.eps})
							if err != nil {
								t.Fatal(err)
							}
							if len(res) != k {
								t.Fatalf("query %d: %d neighbors, want %d — approximation must not shorten the result set",
									qi, len(res), k)
							}
							want := scanKNN(truth, q, k, m)

							if ec.eps == 0 {
								// ε=0 takes the exact path: byte-identical
								// results and stats against plain KNN.
								exact, exactStats, err := ix.KNN(q, k)
								if err != nil {
									t.Fatal(err)
								}
								if !reflect.DeepEqual(res, exact) {
									t.Fatalf("query %d: ε=0 results differ from exact KNN", qi)
								}
								if stats.PagesSkippedApprox != 0 || stats.EffectiveEpsilon != 0 {
									t.Fatalf("query %d: ε=0 reported approx activity: %+v", qi, stats)
								}
								if exactStats.PagesSkippedApprox != 0 || exactStats.EffectiveEpsilon != 0 {
									t.Fatalf("query %d: exact KNN reported approx activity: %+v", qi, exactStats)
								}
							} else {
								if stats.EffectiveEpsilon != ec.eps {
									t.Fatalf("query %d: EffectiveEpsilon %v, want %v",
										qi, stats.EffectiveEpsilon, ec.eps)
								}
								// The termination guarantee: every returned
								// distance is within (1+ε) of the true kth.
								kth := want[len(want)-1].Dist
								for j, nb := range res {
									if nb.Dist > (1+ec.eps)*kth+1e-9 {
										t.Fatalf("query %d neighbor %d: dist %v exceeds (1+ε)·kth = %v",
											qi, j, nb.Dist, (1+ec.eps)*kth)
									}
								}
							}
							skippedByEps[ec.eps] += stats.PagesSkippedApprox
							recallSum += recallOf(res, want)
						}
						mean := recallSum / float64(len(queries))
						if mean < ec.floor {
							t.Errorf("mean recall %.3f below floor %.2f", mean, ec.floor)
						}
					})
				}
			}
		}
	}
	if skippedByEps[0] != 0 {
		t.Errorf("ε=0 skipped %d pages across the battery, want 0", skippedByEps[0])
	}
	for _, eps := range []float64{0.1, 0.5} {
		if skippedByEps[eps] <= 0 {
			t.Errorf("ε=%v skipped no pages anywhere in the battery — the knob is vacuous", eps)
		}
	}
}

// TestApproxOptionsDefaults pins the index-level knobs: Options.Epsilon
// applies to plain KNN/BatchKNN, a per-query Approx overrides it, and
// invalid knobs are rejected at Open.
func TestApproxOptionsDefaults(t *testing.T) {
	const dim, disks, n, k = 4, 3, 800, 5
	pts := uniformPoints(n, dim, 105)
	ix := buildFrom(t, Options{Dim: dim, Disks: disks, Epsilon: 0.2, PageSize: 256}, pts)

	q := data.Uniform(1, dim, 106)[0]
	if _, stats, err := ix.KNN(q, k); err != nil {
		t.Fatal(err)
	} else if stats.EffectiveEpsilon != 0.2 {
		t.Fatalf("plain KNN under Options.Epsilon=0.2: EffectiveEpsilon %v", stats.EffectiveEpsilon)
	}
	// A per-query override of 0 takes the exact path.
	if _, stats, err := ix.KNNApprox(q, k, Approx{}); err != nil {
		t.Fatal(err)
	} else if stats.EffectiveEpsilon != 0 || stats.PagesSkippedApprox != 0 {
		t.Fatalf("per-query ε=0 override reported approx activity: %+v", stats)
	}
	// The batch path honors the same defaults.
	if _, bs, err := ix.BatchKNN(data.Uniform(4, dim, 107), k); err != nil {
		t.Fatal(err)
	} else if len(bs.PerQuery) != 4 {
		t.Fatalf("batch PerQuery has %d entries, want 4", len(bs.PerQuery))
	} else {
		for i, qs := range bs.PerQuery {
			if qs.EffectiveEpsilon != 0.2 {
				t.Fatalf("batch item %d: EffectiveEpsilon %v, want 0.2", i, qs.EffectiveEpsilon)
			}
		}
	}

	for _, bad := range []Options{
		{Dim: dim, Disks: disks, Epsilon: -0.5},
		{Dim: dim, Disks: disks, Epsilon: 2e6},
	} {
		if _, err := Open(bad); err == nil {
			t.Errorf("Open accepted invalid approx knobs %+v", bad)
		}
	}
	for _, bad := range []Approx{
		{Epsilon: -1}, {Epsilon: 2e6},
	} {
		if _, _, err := ix.KNNApprox(q, k, bad); err == nil {
			t.Errorf("KNNApprox accepted invalid knobs %+v", bad)
		}
		if _, _, err := ix.BatchKNNApprox([][]float64{q}, k, bad); err == nil {
			t.Errorf("BatchKNNApprox accepted invalid knobs %+v", bad)
		}
	}
}

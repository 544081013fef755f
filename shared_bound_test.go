package parsearch

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"parsearch/internal/data"
	"parsearch/internal/vec"
)

// Tests of the cooperative cross-disk pruning (see DESIGN.md
// "Cooperative pruning"): the shared bound is a pure optimization, so
// a shared-bound index and an independent one built from the same data
// must be indistinguishable through the query API — identical results,
// identical errors, identical executed page costs — with the pruning
// visible only in QueryStats.PagesSavedByBound. The battery sweeps
// every declustering strategy crossed with replication and a failed
// disk, because the bound interacts with the seeding probe (home-disk
// assignment differs per strategy) and with failure routing.

// boundPair builds two indexes over the same points, differing only in
// DisableSharedBound.
func boundPair(t *testing.T, opts Options, raw [][]float64) (shared, indep *Index) {
	t.Helper()
	build := func(disable bool) *Index {
		o := opts
		o.DisableSharedBound = disable
		ix, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Build(raw); err != nil {
			t.Fatal(err)
		}
		return ix
	}
	return build(false), build(true)
}

// checkBoundInvariants asserts the accounting identity between one
// shared-bound query and its independent twin: the shared side's
// visited+saved pages reproduce the independent traversal exactly
// (phantom accounting), the saving is never negative, and the executed
// I/O (phase 2) is untouched by the bound.
func checkBoundInvariants(t *testing.T, label string, sS, sI QueryStats) {
	t.Helper()
	if sS.SearchPages+sS.PagesSavedByBound != sI.SearchPages {
		t.Errorf("%s: visited %d + saved %d != independent visited %d",
			label, sS.SearchPages, sS.PagesSavedByBound, sI.SearchPages)
	}
	if sS.SearchPages > sI.SearchPages {
		t.Errorf("%s: shared visited %d pages, independent %d — bound added work",
			label, sS.SearchPages, sI.SearchPages)
	}
	if sI.PagesSavedByBound != 0 || sI.BoundTightenings != 0 {
		t.Errorf("%s: independent path reported bound activity: saved %d, tightened %d",
			label, sI.PagesSavedByBound, sI.BoundTightenings)
	}
	if sS.TotalPages != sI.TotalPages {
		t.Errorf("%s: executed pages %d vs %d — the bound must not change phase-2 I/O",
			label, sS.TotalPages, sI.TotalPages)
	}
	if !reflect.DeepEqual(sS.PagesPerDisk, sI.PagesPerDisk) {
		t.Errorf("%s: per-disk pages %v vs %v", label, sS.PagesPerDisk, sI.PagesPerDisk)
	}
	if sS.Degraded != sI.Degraded {
		t.Errorf("%s: degraded %v vs %v", label, sS.Degraded, sI.Degraded)
	}
}

// TestSharedBoundEquivalenceBattery sweeps all six declustering
// strategies × replication on/off × a failed disk × k ∈ {1, 5, n} and
// requires the shared-bound results to be identical — not merely
// equally near — to the independent path, and (on non-degraded
// configurations) to a brute-force linear scan.
func TestSharedBoundEquivalenceBattery(t *testing.T) {
	const d, n, disks = 6, 400, 5
	pts := data.Uniform(n, d, 7)
	raw := make([][]float64, n)
	truth := make(map[int][]float64, n)
	for i, p := range pts {
		raw[i] = p
		truth[i] = p
	}
	queries := data.Uniform(6, d, 8)

	for _, kind := range []Kind{NearOptimal, Hilbert, DiskModulo, FX, RoundRobin, DirectOnly} {
		for _, repl := range []int{0, 1} {
			for _, fail := range []bool{false, true} {
				label := fmt.Sprintf("%s/repl=%d/fail=%v", kind, repl, fail)
				shared, indep := boundPair(t,
					Options{Dim: d, Disks: disks, Kind: kind, Replication: repl}, raw)
				if fail {
					for _, ix := range []*Index{shared, indep} {
						if err := ix.FailDisk(1); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
					}
				}
				// Without replication a failed disk's data is simply
				// gone; the results are best-effort but must still be
				// the *same* best effort on both paths.
				exact := !fail || repl == 1

				for _, k := range []int{1, 5, n} {
					for qi, q := range queries {
						resS, stS, errS := shared.KNN(q, k)
						resI, stI, errI := indep.KNN(q, k)
						ql := fmt.Sprintf("%s/k=%d/q=%d", label, k, qi)
						if !errors.Is(errS, errI) && !errors.Is(errI, errS) {
							t.Fatalf("%s: errors differ: %v vs %v", ql, errS, errI)
						}
						if errS != nil {
							continue
						}
						if !reflect.DeepEqual(resS, resI) {
							t.Fatalf("%s: shared and independent results differ", ql)
						}
						checkBoundInvariants(t, ql, stS, stI)
						if exact {
							want := linearScanKNN(truth, q, k, vec.L2)
							if len(resS) != len(want) {
								t.Fatalf("%s: %d results, want %d", ql, len(resS), len(want))
							}
							for i := range resS {
								if math.Abs(resS[i].Dist-want[i].dist) > 1e-9 {
									t.Fatalf("%s: result %d dist %v, want %v",
										ql, i, resS[i].Dist, want[i].dist)
								}
							}
						}
					}
				}

				// The batch path shares the per-item bound machinery;
				// one batch per configuration keeps it honest too.
				resS, bsS, errS := shared.BatchKNN(queries, 5)
				resI, bsI, errI := indep.BatchKNN(queries, 5)
				if (errS == nil) != (errI == nil) {
					t.Fatalf("%s: batch errors differ: %v vs %v", label, errS, errI)
				}
				if errS == nil {
					if !reflect.DeepEqual(resS, resI) {
						t.Fatalf("%s: batch results differ", label)
					}
					if bsS.SearchPages+bsS.PagesSavedByBound != bsI.SearchPages {
						t.Errorf("%s: batch visited %d + saved %d != independent %d",
							label, bsS.SearchPages, bsS.PagesSavedByBound, bsI.SearchPages)
					}
					if bsS.TotalPages != bsI.TotalPages {
						t.Errorf("%s: batch executed pages %d vs %d",
							label, bsS.TotalPages, bsI.TotalPages)
					}
				}
			}
		}
	}
}

// TestSharedBoundMonotonicity drives 200 seeded queries through a
// 16-disk pair and checks, per query, that the shared bound never
// visits more search pages than the independent search and that
// PagesSavedByBound accounts for the difference exactly; over the
// whole run the bound must actually save something.
func TestSharedBoundMonotonicity(t *testing.T) {
	const d, n, disks = 8, 3000, 16
	pts := data.Uniform(n, d, 21)
	raw := make([][]float64, n)
	for i, p := range pts {
		raw[i] = p
	}
	shared, indep := boundPair(t, Options{Dim: d, Disks: disks}, raw)

	totalSaved := 0
	for qi, q := range data.Uniform(200, d, 22) {
		resS, stS, err := shared.KNN(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		resI, stI, err := indep.KNN(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resS, resI) {
			t.Fatalf("query %d: results differ", qi)
		}
		checkBoundInvariants(t, fmt.Sprintf("query %d", qi), stS, stI)
		if stS.PagesSavedByBound != stI.SearchPages-stS.SearchPages {
			t.Fatalf("query %d: saved %d, observed difference %d",
				qi, stS.PagesSavedByBound, stI.SearchPages-stS.SearchPages)
		}
		totalSaved += stS.PagesSavedByBound
	}
	if totalSaved <= 0 {
		t.Fatalf("200 queries saved %d pages — the bound never pruned", totalSaved)
	}

	// The registry mirrors the per-query stats.
	m := shared.Metrics()
	if m.PagesSavedByBound != int64(totalSaved) {
		t.Errorf("registry saved %d pages, queries observed %d", m.PagesSavedByBound, totalSaved)
	}
	if m.SearchPages <= 0 || m.BoundTightenings <= 0 {
		t.Errorf("registry search pages %d, tightenings %d", m.SearchPages, m.BoundTightenings)
	}
}

// TestApproxExactParityBattery extends the equivalence battery to the
// approximate tier: with the knobs at their exact settings (ε=0,
// recall_target=1) an LSH-equipped index must answer byte-identically
// to plain KNN across every strategy × replication × failed-disk
// configuration — results and deterministic stats both (the
// visited/saved split is timing-dependent between invocations, so the
// parity check compares the sum, like checkBoundInvariants). And with
// the knobs engaged, approximation composes with failure: the result
// set is exactly as long as the exact path's over the same reachable
// data, never silently shorter.
func TestApproxExactParityBattery(t *testing.T) {
	const d, n, disks = 6, 400, 5
	pts := data.Uniform(n, d, 31)
	raw := make([][]float64, n)
	for i, p := range pts {
		raw[i] = p
	}
	queries := data.Uniform(5, d, 32)

	for _, kind := range []Kind{NearOptimal, Hilbert, DiskModulo, FX, RoundRobin, DirectOnly} {
		for _, repl := range []int{0, 1} {
			for _, fail := range []bool{false, true} {
				label := fmt.Sprintf("%s/repl=%d/fail=%v", kind, repl, fail)
				ix, err := Open(Options{Dim: d, Disks: disks, Kind: kind,
					Replication: repl, LSH: true})
				if err != nil {
					t.Fatal(err)
				}
				if err := ix.Build(raw); err != nil {
					t.Fatal(err)
				}
				if fail {
					if err := ix.FailDisk(1); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				for _, k := range []int{1, 5, n} {
					for qi, q := range queries {
						ql := fmt.Sprintf("%s/k=%d/q=%d", label, k, qi)
						resE, stE, errE := ix.KNN(q, k)
						resA, stA, errA := ix.KNNApprox(q, k, Approx{Epsilon: 0, RecallTarget: 1})
						if !errors.Is(errA, errE) && !errors.Is(errE, errA) {
							t.Fatalf("%s: errors differ: exact %v, approx-zero %v", ql, errE, errA)
						}
						if errE != nil {
							continue
						}
						if !reflect.DeepEqual(resA, resE) {
							t.Fatalf("%s: ε=0/recall_target=1 results differ from exact", ql)
						}
						if stA.TotalPages != stE.TotalPages || stA.MaxPages != stE.MaxPages ||
							!reflect.DeepEqual(stA.PagesPerDisk, stE.PagesPerDisk) ||
							stA.Degraded != stE.Degraded {
							t.Fatalf("%s: deterministic stats differ:\nexact %+v\napprox %+v", ql, stE, stA)
						}
						if stA.SearchPages+stA.PagesSavedByBound != stE.SearchPages+stE.PagesSavedByBound {
							t.Fatalf("%s: independent-cost sum %d vs %d", ql,
								stA.SearchPages+stA.PagesSavedByBound, stE.SearchPages+stE.PagesSavedByBound)
						}
						for who, st := range map[string]QueryStats{"exact": stE, "approx-zero": stA} {
							if st.PagesSkippedApprox != 0 || st.ProbePages != 0 || st.EffectiveEpsilon != 0 {
								t.Fatalf("%s: %s path reported approx activity: %+v", ql, who, st)
							}
						}

						// Knobs engaged under the same (possibly failed)
						// configuration: exactly as many neighbors as the
						// exact path found reachable — approximation may
						// return different points, never fewer.
						resX, stX, errX := ix.KNNApprox(q, k, Approx{Epsilon: 0.4, RecallTarget: 0.6})
						if errX != nil {
							t.Fatalf("%s: approx query failed where exact succeeded: %v", ql, errX)
						}
						if len(resX) != len(resE) {
							t.Fatalf("%s: approx returned %d neighbors, exact found %d reachable — silently short",
								ql, len(resX), len(resE))
						}
						if stX.EffectiveEpsilon != 0.4 {
							t.Fatalf("%s: EffectiveEpsilon %v, want 0.4", ql, stX.EffectiveEpsilon)
						}
					}
				}
			}
		}
	}
}

// TestNNDegradedToEmpty pins the NN empty-result edge: when every live
// copy of the data is on a failed disk, NN must surface ErrUnavailable
// (not index into an empty result slice), and an empty index still
// reports ErrEmpty.
func TestNNDegradedToEmpty(t *testing.T) {
	ix, err := Open(Options{Dim: 2, Disks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build([][]float64{{0.1, 0.2}, {0.8, 0.9}}); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 2; d++ {
		if err := ix.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, stats, err := ix.NN([]float64{0.5, 0.5}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("NN on fully failed index: err = %v, want ErrUnavailable", err)
	} else if !stats.Degraded {
		t.Error("NN on fully failed index not flagged Degraded")
	}
	if _, _, err := ix.KNN([]float64{0.5, 0.5}, 3); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("KNN on fully failed index: err = %v, want ErrUnavailable", err)
	}

	empty, err := Open(Options{Dim: 2, Disks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := empty.NN([]float64{0.5, 0.5}); !errors.Is(err, ErrEmpty) {
		t.Fatalf("NN on empty index: err = %v, want ErrEmpty", err)
	}
}

package parsearch

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"parsearch/internal/data"
	"parsearch/internal/vec"
)

// Tests of the one search queue across a query's disks (see DESIGN.md
// "One queue"): the global k-th best only ever stops a disk's share of
// the search early, so a query must be indistinguishable from the
// independent per-disk searches merged — identical results, never more
// search pages — and from a linear scan. The battery sweeps every
// declustering strategy crossed with replication and a failed disk,
// because the queue's order depends on the declustering and on failure
// routing.

// independentKNN answers q one disk at a time — a ShardSpec of a single
// disk per query, so no bound ever crosses disks — and merges the
// answers by (dist, id): the independent searches the one queue is
// measured against. pages[d] is the search pages disk d's own search
// read; a disk with no live copy or no points contributes nothing.
func independentKNN(t *testing.T, ix *Index, q []float64, k int) (merged []Neighbor, pages []int) {
	t.Helper()
	disks := ix.Disks()
	pages = make([]int, disks)
	for d := 0; d < disks; d++ {
		res, st, err := ix.KNNShardContext(context.Background(), q, k, Approx{}, ShardSpec{Of: disks, Groups: []int{d}})
		if errors.Is(err, ErrUnavailable) || errors.Is(err, ErrEmpty) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if st.PagesSavedByBound != 0 {
			t.Fatalf("disk %d searched alone reports %d pages saved by another disk's bound", d, st.PagesSavedByBound)
		}
		pages[d] = st.SearchPages
		merged = append(merged, res...)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Dist != merged[j].Dist {
			return merged[i].Dist < merged[j].Dist
		}
		return merged[i].ID < merged[j].ID
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged, pages
}

func sum(xs []int) (s int) {
	for _, x := range xs {
		s += x
	}
	return s
}

// checkBoundInvariants asserts what the one queue may and may not do to
// one query's search work, against the independent searches' page
// count: it never adds a page.
func checkBoundInvariants(t *testing.T, label string, st QueryStats, indepPages int) {
	t.Helper()
	if st.SearchPages > indepPages {
		t.Errorf("%s: one queue visited %d pages, independent searches %d — the queue added work",
			label, st.SearchPages, indepPages)
	}
	if st.PagesSavedByRemoteBound != 0 {
		t.Errorf("%s: unseeded query charged %d pages to a remote bound", label, st.PagesSavedByRemoteBound)
	}
}

// TestOneQueueEquivalenceBattery sweeps all six declustering
// strategies × replication on/off × a failed disk × k ∈ {1, 5, n} and
// requires the one queue's results to be identical — not merely
// equally near — to the independent per-disk searches, and (on
// non-degraded configurations) to a brute-force linear scan.
func TestOneQueueEquivalenceBattery(t *testing.T) {
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
				ix, err := Open(Options{Dim: d, Disks: disks, Kind: kind, Replication: repl})
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
				// Without replication a failed disk's data is simply
				// gone; the results are best-effort but must still be
				// the *same* best effort on both paths.
				exact := !fail || repl == 1

				for _, k := range []int{1, 5, n} {
					for qi, q := range queries {
						ql := fmt.Sprintf("%s/k=%d/q=%d", label, k, qi)
						res, st, err := ix.KNN(q, k)
						if err != nil {
							t.Fatalf("%s: %v", ql, err)
						}
						want, pages := independentKNN(t, ix, q, k)
						if !reflect.DeepEqual(res, want) {
							t.Fatalf("%s: one queue and independent results differ", ql)
						}
						checkBoundInvariants(t, ql, st, sum(pages))
						if st.Degraded && exact {
							t.Errorf("%s: exact configuration flagged degraded", ql)
						}
						if exact {
							requireScan(t, ql, res, scanKNN(truth, q, k, vec.L2))
						}
					}
				}

				// A batch item runs the same per-item search; one batch
				// per configuration keeps it honest too.
				res, bs, err := ix.BatchKNNContext(context.Background(), queries, 5)
				if err != nil {
					t.Fatalf("%s: batch: %v", label, err)
				}
				for qi, q := range queries {
					want, pages := independentKNN(t, ix, q, 5)
					if !reflect.DeepEqual(res[qi], want) {
						t.Fatalf("%s: batch item %d differs from the independent searches", label, qi)
					}
					checkBoundInvariants(t, fmt.Sprintf("%s/batch item %d", label, qi), bs.PerQuery[qi], sum(pages))
				}
			}
		}
	}
}

// TestOneQueueMonotonicity drives 200 seeded queries through a
// 16-disk index and checks, per query, that the one queue answers what
// the independent searches and a linear scan answer and never visits
// more search pages than the independent searches; over the whole run
// it must visit fewer.
func TestOneQueueMonotonicity(t *testing.T) {
	const d, n, disks = 8, 3000, 16
	pts := data.Uniform(n, d, 21)
	raw := make([][]float64, n)
	truth := make(map[int][]float64, n)
	for i, p := range pts {
		raw[i] = p
		truth[i] = p
	}
	ix, err := Open(Options{Dim: d, Disks: disks})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}

	queries := data.Uniform(200, d, 22)
	results := make([][]Neighbor, len(queries))
	stats := make([]QueryStats, len(queries))
	totalSaved, totalSearch := 0, 0
	for qi, q := range queries {
		if results[qi], stats[qi], err = ix.KNN(q, 10); err != nil {
			t.Fatal(err)
		}
		totalSaved += stats[qi].PagesSavedByBound
		totalSearch += stats[qi].SearchPages
	}
	// The registry mirrors the per-query stats.
	m := ix.Metrics()
	if m.PagesSavedByBound != int64(totalSaved) || m.SearchPages != int64(totalSearch) {
		t.Errorf("registry saved %d / searched %d pages, queries observed %d / %d",
			m.PagesSavedByBound, m.SearchPages, totalSaved, totalSearch)
	}

	totalIndep := 0
	for qi, q := range queries {
		want, pages := independentKNN(t, ix, q, 10)
		if !reflect.DeepEqual(results[qi], want) {
			t.Fatalf("query %d: results differ", qi)
		}
		for i, w := range scanKNN(truth, q, 10, vec.L2) {
			if results[qi][i].ID != w.ID || results[qi][i].Dist != w.Dist {
				t.Fatalf("query %d: result %d is %d at %v, the scan's %d at %v",
					qi, i, results[qi][i].ID, results[qi][i].Dist, w.ID, w.Dist)
			}
		}
		checkBoundInvariants(t, fmt.Sprintf("query %d", qi), stats[qi], sum(pages))
		totalIndep += sum(pages)
	}
	if totalSearch >= totalIndep {
		t.Errorf("one queue read %d pages, independent searches %d", totalSearch, totalIndep)
	}
}

// TestApproxExactParityBattery extends the equivalence battery to the
// approximate tier: with the knob at its exact setting (ε=0) the
// approximate entry point must answer byte-identically to plain KNN
// across every strategy × replication × failed-disk configuration —
// results and deterministic stats both. And with the knob engaged,
// approximation composes with failure: the result set is exactly as
// long as the exact path's over the same reachable data, never silently
// shorter.
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
					Replication: repl})
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
						resA, stA, errA := ix.KNNApprox(q, k, Approx{Epsilon: 0})
						if !errors.Is(errA, errE) && !errors.Is(errE, errA) {
							t.Fatalf("%s: errors differ: exact %v, approx-zero %v", ql, errE, errA)
						}
						if errE != nil {
							continue
						}
						if !reflect.DeepEqual(resA, resE) {
							t.Fatalf("%s: ε=0 results differ from exact", ql)
						}
						if stA.TotalPages != stE.TotalPages || stA.MaxPages != stE.MaxPages ||
							!reflect.DeepEqual(stA.PagesPerDisk, stE.PagesPerDisk) ||
							stA.Degraded != stE.Degraded {
							t.Fatalf("%s: deterministic stats differ:\nexact %+v\napprox %+v", ql, stE, stA)
						}
						for who, st := range map[string]QueryStats{"exact": stE, "approx-zero": stA} {
							if st.PagesSkippedApprox != 0 || st.EffectiveEpsilon != 0 {
								t.Fatalf("%s: %s path reported approx activity: %+v", ql, who, st)
							}
						}

						// Knob engaged under the same (possibly failed)
						// configuration: exactly as many neighbors as the
						// exact path found reachable — approximation may
						// return different points, never fewer.
						resX, stX, errX := ix.KNNApprox(q, k, Approx{Epsilon: 0.4})
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

// TestNNDegradedToEmpty pins the 1-NN empty-result edge: when every live
// copy of the data is on a failed disk, KNN(q, 1) must surface
// ErrUnavailable rather than an empty answer, and an empty index still
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
	if _, stats, err := ix.KNN([]float64{0.5, 0.5}, 1); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("KNN(q, 1) on fully failed index: err = %v, want ErrUnavailable", err)
	} else if !stats.Degraded {
		t.Error("KNN(q, 1) on fully failed index not flagged Degraded")
	}
	if _, _, err := ix.KNN([]float64{0.5, 0.5}, 3); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("KNN on fully failed index: err = %v, want ErrUnavailable", err)
	}

	empty, err := Open(Options{Dim: 2, Disks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := empty.KNN([]float64{0.5, 0.5}, 1); !errors.Is(err, ErrEmpty) {
		t.Fatalf("KNN(q, 1) on empty index: err = %v, want ErrEmpty", err)
	}
}

package parsearch

// Table-driven edge cases for QueryStats and the metrics registry:
// degenerate indexes (empty, one-dimensional, all points identical),
// out-of-range k, dead arrays, and the invariant that the registry's
// cumulative totals equal the sum of the per-query stats it absorbed.

import (
	"context"
	"errors"
	"testing"

	"parsearch/internal/data"
)

func TestQueryStatsEdgeCases(t *testing.T) {
	type tc struct {
		name  string
		opts  Options
		n     int // points built (0 = none)
		setup func(t *testing.T, ix *Index)
		k     int
		// expectations
		wantErr     error // errors.Is target; nil = success
		wantResults int   // checked on success; -1 = skip
		wantStats   func(t *testing.T, stats QueryStats)
	}
	cases := []tc{
		{
			name: "empty_index", opts: Options{Dim: 4, Disks: 3}, n: 0, k: 3,
			wantErr: ErrEmpty,
		},
		{
			name: "k_exceeds_n", opts: Options{Dim: 4, Disks: 3}, n: 10, k: 50,
			wantResults: 10,
			wantStats: func(t *testing.T, stats QueryStats) {
				if stats.Degraded || stats.TotalPages == 0 {
					t.Errorf("k>n stats: %+v", stats)
				}
			},
		},
		{
			name: "one_dimension", opts: Options{Dim: 1, Disks: 2}, n: 64, k: 5,
			wantResults: 5,
			wantStats: func(t *testing.T, stats QueryStats) {
				if len(stats.PagesPerDisk) != 2 {
					t.Errorf("d=1 per-disk stats sized %d", len(stats.PagesPerDisk))
				}
			},
		},
		{
			name: "all_points_identical", opts: Options{Dim: 3, Disks: 2}, n: 40, k: 40,
			setup: func(t *testing.T, ix *Index) {
				pts := make([][]float64, 40)
				for i := range pts {
					pts[i] = []float64{0.5, 0.5, 0.5}
				}
				if err := ix.Build(pts); err != nil {
					t.Fatal(err)
				}
			},
			wantResults: 40,
			wantStats: func(t *testing.T, stats QueryStats) {
				// All points at one coordinate: the NN sphere boundary
				// passes exactly through the data, so the cost model may
				// legitimately charge zero refinement pages — but the
				// stats must stay internally consistent.
				if stats.Degraded || stats.MaxPages > stats.TotalPages {
					t.Errorf("identical-points stats inconsistent: %+v", stats)
				}
			},
		},
		{
			name: "k_zero", opts: Options{Dim: 3, Disks: 2}, n: 50, k: 0,
			wantErr: errAny, wantResults: -1,
		},
		{
			name: "all_disks_failed", opts: Options{Dim: 4, Disks: 3, Replication: 1}, n: 200, k: 3,
			setup: func(t *testing.T, ix *Index) {
				buildUniform(t, ix, 200)
				for d := 0; d < 3; d++ {
					if err := ix.FailDisk(d); err != nil {
						t.Fatal(err)
					}
				}
			},
			wantErr: ErrUnavailable,
		},
		{
			name: "single_disk", opts: Options{Dim: 4, Disks: 1}, n: 120, k: 4,
			wantResults: 4,
			wantStats: func(t *testing.T, stats QueryStats) {
				// One disk: the bottleneck IS the total, speedup 1.
				if stats.MaxPages != stats.TotalPages {
					t.Errorf("single disk: MaxPages %d != TotalPages %d", stats.MaxPages, stats.TotalPages)
				}
				if stats.Speedup != 1 {
					t.Errorf("single disk: speedup %v, want 1", stats.Speedup)
				}
			},
		},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ix, err := Open(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if c.setup != nil {
				c.setup(t, ix)
			} else if c.n > 0 {
				buildUniform(t, ix, c.n)
			}
			q := make([]float64, c.opts.Dim)
			for i := range q {
				q[i] = 0.4
			}
			res, stats, err := ix.KNN(q, c.k)
			switch {
			case c.wantErr == errAny:
				if err == nil {
					t.Fatal("want an error")
				}
			case c.wantErr != nil:
				if !errors.Is(err, c.wantErr) {
					t.Fatalf("err = %v, want %v", err, c.wantErr)
				}
			default:
				if err != nil {
					t.Fatal(err)
				}
				if c.wantResults >= 0 && len(res) != c.wantResults {
					t.Fatalf("%d results, want %d", len(res), c.wantResults)
				}
				if c.wantStats != nil {
					c.wantStats(t, stats)
				}
			}
			// Error or not, the registry stays consistent with what
			// this one query reported.
			s := ix.Metrics()
			if err != nil {
				if s.QueryErrors != 1 {
					t.Errorf("QueryErrors = %d after a failed query, want 1", s.QueryErrors)
				}
				return
			}
			if s.QueriesKNN != 1 || s.PagesRead != int64(stats.TotalPages) {
				t.Errorf("registry (%d queries, %d pages) does not match stats %+v",
					s.QueriesKNN, s.PagesRead, stats)
			}
		})
	}
}

// errAny is a sentinel for "any non-nil error" in the edge-case table.
var errAny = errors.New("any error")

// buildUniform builds n uniform points into ix.
func buildUniform(t *testing.T, ix *Index, n int) {
	t.Helper()
	pts := data.Uniform(n, ix.opts.Dim, 91)
	raw := make([][]float64, n)
	for i := range pts {
		raw[i] = pts[i]
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsTotalsMatchSummedStats: after a mixed workload, every
// cumulative registry counter equals the sum of the corresponding
// QueryStats fields over the individual queries.
func TestMetricsTotalsMatchSummedStats(t *testing.T) {
	const dim, disks = 5, 4
	ix, err := Open(Options{Dim: dim, Disks: disks, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	buildUniform(t, ix, 1500)
	if err := ix.FailDisk(2); err != nil { // exercise the reroute counters too
		t.Fatal(err)
	}

	var sum struct {
		pages, cells, retries, rerouted, unreachable int64
		perDisk                                      []int64
		knn, rng, batchCalls, batchItems, degraded   int64
		histPages                                    int64 // per-query page observations
	}
	sum.perDisk = make([]int64, disks)
	absorb := func(stats QueryStats) {
		sum.pages += int64(stats.TotalPages)
		sum.histPages += int64(stats.TotalPages)
		sum.cells += int64(stats.Cells)
		sum.retries += int64(stats.Retries)
		sum.rerouted += int64(stats.Rerouted)
		sum.unreachable += int64(stats.Unreachable)
		if stats.Degraded {
			sum.degraded++
		}
		for d, p := range stats.PagesPerDisk {
			sum.perDisk[d] += int64(p)
		}
	}

	for _, q := range data.Uniform(6, dim, 92) {
		_, stats, err := ix.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		sum.knn++
		absorb(stats)
	}
	lo, hi := make([]float64, dim), make([]float64, dim)
	for i := range lo {
		lo[i], hi[i] = 0.25, 0.75
	}
	for range 3 {
		_, stats, err := ix.RangeQueryContext(context.Background(), lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		sum.rng++
		absorb(stats)
	}
	batch := uniformPoints(4, dim, 93)
	_, bstats, err := ix.BatchKNNContext(context.Background(), batch, 3)
	if err != nil {
		t.Fatal(err)
	}
	sum.batchCalls++
	sum.batchItems += int64(len(batch))
	sum.pages += int64(bstats.TotalPages)
	sum.retries += int64(bstats.Retries)
	sum.rerouted += int64(bstats.Rerouted)
	sum.unreachable += int64(bstats.Unreachable)
	for d, p := range bstats.PagesPerDisk {
		sum.perDisk[d] += int64(p)
	}
	// Cells, Degraded, and the page histogram are charged per batch item.
	for _, qs := range bstats.PerQuery {
		sum.cells += int64(qs.Cells)
		sum.histPages += int64(qs.TotalPages)
		if qs.Degraded {
			sum.degraded++
		}
	}

	s := ix.Metrics()
	checks := []struct {
		name      string
		got, want int64
	}{
		{"QueriesKNN", s.QueriesKNN, sum.knn},
		{"QueriesRange", s.QueriesRange, sum.rng},
		{"QueriesBatch", s.QueriesBatch, sum.batchCalls},
		{"BatchQueries", s.BatchQueries, sum.batchItems},
		{"PagesRead", s.PagesRead, sum.pages},
		{"CellsVisited", s.CellsVisited, sum.cells},
		{"Retries", s.Retries, sum.retries},
		{"Rerouted", s.Rerouted, sum.rerouted},
		{"Unreachable", s.Unreachable, sum.unreachable},
		{"DegradedQueries", s.DegradedQueries, sum.degraded},
		{"QueryErrors", s.QueryErrors, 0},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d (summed stats)", c.name, c.got, c.want)
		}
	}
	for d := range sum.perDisk {
		if s.PagesPerDisk[d] != sum.perDisk[d] {
			t.Errorf("PagesPerDisk[%d] = %d, want %d", d, s.PagesPerDisk[d], sum.perDisk[d])
		}
	}
	if s.QueryPages.Sum != sum.histPages {
		t.Errorf("QueryPages.Sum = %d, want %d", s.QueryPages.Sum, sum.histPages)
	}
	if s.NodeVisits == 0 {
		t.Error("NodeVisits = 0 after a mixed workload")
	}
}

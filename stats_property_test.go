package parsearch

// Property tests for the cost statistics: QueryStats must stay
// internally consistent no matter how queries interleave with writers,
// BatchKNN's per-query accounting must sum to the batch totals, and the
// per-disk load report must equal the per-cell accounting after any
// mutation history.

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"parsearch/internal/data"
)

// checkQueryStats asserts the internal invariants of one QueryStats
// value: PagesPerDisk sums to TotalPages, the bottleneck disk is the
// argmax, and the speed-up is the sequential/parallel time ratio.
func checkQueryStats(t *testing.T, qs QueryStats, disks int) {
	t.Helper()
	if len(qs.PagesPerDisk) != disks {
		t.Fatalf("PagesPerDisk has %d entries, want %d", len(qs.PagesPerDisk), disks)
	}
	sum, max := 0, 0
	for _, p := range qs.PagesPerDisk {
		if p < 0 {
			t.Fatalf("negative page count in %v", qs.PagesPerDisk)
		}
		sum += p
		if p > max {
			max = p
		}
	}
	if sum != qs.TotalPages {
		t.Fatalf("sum(PagesPerDisk) = %d, TotalPages = %d", sum, qs.TotalPages)
	}
	if max != qs.MaxPages {
		t.Fatalf("max(PagesPerDisk) = %d, MaxPages = %d", max, qs.MaxPages)
	}
	if qs.ParallelTime < 0 || qs.SequentialTime < qs.ParallelTime {
		t.Fatalf("times inconsistent: parallel %v, sequential %v", qs.ParallelTime, qs.SequentialTime)
	}
	if qs.ParallelTime > 0 {
		want := qs.SequentialTime / qs.ParallelTime
		if math.Abs(qs.Speedup-want) > 1e-9 {
			t.Fatalf("Speedup = %v, want SequentialTime/ParallelTime = %v", qs.Speedup, want)
		}
	} else if qs.Speedup != 0 {
		t.Fatalf("Speedup = %v with zero ParallelTime", qs.Speedup)
	}
	if qs.BaselineTime > 0 && qs.ParallelTime > 0 {
		want := qs.BaselineTime / qs.ParallelTime
		if math.Abs(qs.BaselineSpeedup-want) > 1e-9 {
			t.Fatalf("BaselineSpeedup = %v, want %v", qs.BaselineSpeedup, want)
		}
	}
}

// TestQueryStatsConsistentUnderConcurrency runs readers that verify
// every QueryStats they receive while writers mutate the index: the
// invariants must hold for any interleaving, under both cost models.
func TestQueryStatsConsistentUnderConcurrency(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"tree-pages", Options{Dim: 5, Disks: 4}},
		{"bucket-pages", Options{Dim: 5, Disks: 4, CostModel: BucketPages}},
		{"baseline", Options{Dim: 4, Disks: 3, Baseline: true}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			opts := cfg.opts
			ix, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			pts := data.Uniform(500, opts.Dim, 51)
			raw := make([][]float64, len(pts))
			for i, p := range pts {
				raw[i] = p
			}
			if err := ix.Build(raw); err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			var writer, readers sync.WaitGroup
			writer.Add(1)
			go func() {
				defer writer.Done()
				rng := rand.New(rand.NewSource(52))
				for i := 0; i < stressIters(300, 100); i++ {
					if _, err := ix.Insert(randPoint(rng, opts.Dim)); err != nil {
						t.Errorf("Insert: %v", err)
						return
					}
				}
			}()
			for g := 0; g < 3; g++ {
				readers.Add(1)
				go func(g int) {
					defer readers.Done()
					rng := rand.New(rand.NewSource(int64(60 + g)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						q := randPoint(rng, opts.Dim)
						var qs QueryStats
						var err error
						if rng.Intn(2) == 0 {
							_, qs, err = ix.KNN(q, 1+rng.Intn(6))
						} else {
							lo, hi := randBox(rng, opts.Dim)
							_, qs, err = ix.RangeQueryContext(context.Background(), lo, hi)
						}
						if !tolerableQueryErr(err) {
							t.Errorf("query: %v", err)
							return
						}
						if err == nil {
							checkQueryStats(t, qs, opts.Disks)
						}
					}
				}(g)
			}
			writer.Wait()
			close(stop)
			readers.Wait()
		})
	}
}

// TestBatchStatsConsistency checks BatchKNN's accounting on a static
// index: the batch totals are the sum of the per-query page counts, and
// every per-query QueryStats is itself internally consistent.
func TestBatchStatsConsistency(t *testing.T) {
	const d, n, k, queries = 6, 1200, 5, 24
	ix, err := Open(Options{Dim: d, Disks: 4})
	if err != nil {
		t.Fatal(err)
	}
	pts := data.Uniform(n, d, 61)
	raw := make([][]float64, n)
	for i, p := range pts {
		raw[i] = p
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}
	qs := data.Uniform(queries, d, 62)
	batch := make([][]float64, queries)
	for i, q := range qs {
		batch[i] = q
	}

	_, stats, err := ix.BatchKNNContext(context.Background(), batch, k)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queries != queries {
		t.Fatalf("Queries = %d, want %d", stats.Queries, queries)
	}
	if stats.Workers < 1 {
		t.Fatalf("Workers = %d", stats.Workers)
	}
	if len(stats.PerQuery) != queries {
		t.Fatalf("PerQuery has %d entries, want %d", len(stats.PerQuery), queries)
	}

	perDisk := make([]int, 4)
	total := 0
	for i, pq := range stats.PerQuery {
		checkQueryStats(t, pq, 4)
		for dsk, pages := range pq.PagesPerDisk {
			perDisk[dsk] += pages
		}
		total += pq.TotalPages
		// Each per-query stat must equal what a standalone KNN of the
		// same query reports.
		_, solo, err := ix.KNN(batch[i], k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pq.PagesPerDisk, solo.PagesPerDisk) {
			t.Fatalf("query %d: batch pages %v != solo pages %v", i, pq.PagesPerDisk, solo.PagesPerDisk)
		}
		if pq.Cells != solo.Cells || pq.MaxPages != solo.MaxPages || pq.TotalPages != solo.TotalPages {
			t.Fatalf("query %d: batch stats (%d cells, %d max, %d total) != solo (%d, %d, %d)",
				i, pq.Cells, pq.MaxPages, pq.TotalPages, solo.Cells, solo.MaxPages, solo.TotalPages)
		}
	}
	if !reflect.DeepEqual(perDisk, stats.PagesPerDisk) {
		t.Fatalf("sum of per-query pages %v != batch PagesPerDisk %v", perDisk, stats.PagesPerDisk)
	}
	if total != stats.TotalPages {
		t.Fatalf("sum of per-query totals %d != batch TotalPages %d", total, stats.TotalPages)
	}
	if stats.MakespanSeconds <= 0 || stats.QueriesPerSecond <= 0 {
		t.Fatalf("non-positive throughput: makespan %v, qps %v", stats.MakespanSeconds, stats.QueriesPerSecond)
	}
	if stats.Utilization <= 0 || stats.Utilization > 1+1e-9 {
		t.Fatalf("Utilization = %v, want (0, 1]", stats.Utilization)
	}
}

// TestBatchWorkerCountInvariance: results and page accounting must not
// depend on the worker-pool size — one worker or many, same answers.
// The pool is min(GOMAXPROCS, batch size), so the test varies GOMAXPROCS.
func TestBatchWorkerCountInvariance(t *testing.T) {
	const d, n, k, queries = 5, 900, 4, 16
	pts := data.Uniform(n, d, 71)
	raw := make([][]float64, n)
	for i, p := range pts {
		raw[i] = p
	}
	qs := data.Uniform(queries, d, 72)
	batch := make([][]float64, queries)
	for i, q := range qs {
		batch[i] = q
	}

	type run struct {
		results [][]Neighbor
		stats   BatchStats
	}
	runs := make(map[int]run)
	procs := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	for _, workers := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(workers)
		ix, err := Open(Options{Dim: d, Disks: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Build(raw); err != nil {
			t.Fatal(err)
		}
		res, stats, err := ix.BatchKNNContext(context.Background(), batch, k)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Workers != min(workers, queries) {
			t.Fatalf("Workers = %d, want %d", stats.Workers, min(workers, queries))
		}
		runs[workers] = run{results: res, stats: stats}
	}
	ref := runs[1]
	for _, workers := range []int{2, 7} {
		got := runs[workers]
		if !reflect.DeepEqual(got.results, ref.results) {
			t.Fatalf("results with %d workers differ from 1 worker", workers)
		}
		if !reflect.DeepEqual(got.stats.PagesPerDisk, ref.stats.PagesPerDisk) ||
			got.stats.TotalPages != ref.stats.TotalPages ||
			!reflect.DeepEqual(got.stats.PerQuery, ref.stats.PerQuery) {
			t.Fatalf("accounting with %d workers differs from 1 worker", workers)
		}
	}
}

// TestDiskLoadsEqualCellLoads: after any interleaving of inserts and
// deletes — sequential histories with several seeds plus one concurrent
// history — the per-disk load report equals the per-cell accounting and
// sums to the live count.
func TestDiskLoadsEqualCellLoads(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		opts := Options{Dim: 4, Disks: 3 + int(seed%3)}
		ix, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		pts := data.Uniform(150, opts.Dim, 80+seed)
		raw := make([][]float64, len(pts))
		for i, p := range pts {
			raw[i] = p
		}
		if err := ix.Build(raw); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		live := make(map[int]bool)
		for id := range raw {
			live[id] = true
		}
		for op := 0; op < 200; op++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				id, err := ix.Insert(randPoint(rng, opts.Dim))
				if err != nil {
					t.Fatal(err)
				}
				live[id] = true
			} else {
				var victim int
				for id := range live {
					victim = id
					break
				}
				if err := ix.Delete(victim); err != nil {
					t.Fatal(err)
				}
				delete(live, victim)
			}
			if op%25 == 0 {
				assertLoadsConsistent(t, ix, len(live))
			}
		}
		assertLoadsConsistent(t, ix, len(live))
		if err := ix.CheckIntegrity(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}

	// Concurrent history: loads must still reconcile after the dust
	// settles.
	opts := Options{Dim: 4, Disks: 4}
	ix, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build([][]float64{{0.1, 0.2, 0.3, 0.4}}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	perWriter := stressIters(100, 40)
	const writers = 4
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(90 + w)))
			for i := 0; i < perWriter; i++ {
				id, err := ix.Insert(randPoint(rng, opts.Dim))
				if err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
				if i%3 == 0 {
					if err := ix.Delete(id); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	assertLoadsConsistent(t, ix, ix.Len())
	if err := ix.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func assertLoadsConsistent(t *testing.T, ix *Index, wantLive int) {
	t.Helper()
	diskLoads := ix.DiskLoads()
	cellLoads := ix.CellLoads()
	if !reflect.DeepEqual(diskLoads, cellLoads) {
		t.Fatalf("DiskLoads %v != CellLoads %v", diskLoads, cellLoads)
	}
	sum := 0
	for _, l := range diskLoads {
		sum += l
	}
	if sum != wantLive {
		t.Fatalf("loads sum to %d, want live count %d", sum, wantLive)
	}
}

package parsearch

import (
	"context"
	"testing"
	"time"

	"parsearch/internal/data"
)

func TestBatchKNNMatchesSingleQueries(t *testing.T) {
	const d, n = 6, 3000
	ix := buildTestIndex(t, Options{Dim: d, Disks: 8}, n)
	queries := make([][]float64, 12)
	for i, q := range data.Uniform(len(queries), d, 88) {
		queries[i] = q
	}
	batch, stats, err := ix.BatchKNN(queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("%d result sets, want %d", len(batch), len(queries))
	}
	for i, q := range queries {
		single, _, err := ix.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(single) != len(batch[i]) {
			t.Fatalf("query %d: %d vs %d results", i, len(batch[i]), len(single))
		}
		for j := range single {
			if single[j].ID != batch[i][j].ID || single[j].Dist != batch[i][j].Dist {
				t.Fatalf("query %d result %d differs: %+v vs %+v", i, j, batch[i][j], single[j])
			}
		}
	}
	if stats.Queries != len(queries) || stats.TotalPages < 1 {
		t.Errorf("implausible batch stats: %+v", stats)
	}
	if stats.QueriesPerSecond <= 0 || stats.Utilization <= 0 || stats.Utilization > 1.0001 {
		t.Errorf("derived metrics wrong: %+v", stats)
	}
	sum := 0
	for _, p := range stats.PagesPerDisk {
		sum += p
	}
	if sum != stats.TotalPages {
		t.Errorf("per-disk pages %d != total %d", sum, stats.TotalPages)
	}
}

func TestBatchKNNValidation(t *testing.T) {
	ix := buildTestIndex(t, Options{Dim: 2, Disks: 2}, 50)
	if _, _, err := ix.BatchKNN([][]float64{{0.5, 0.5}}, 0); err == nil {
		t.Error("expected k error")
	}
	if _, _, err := ix.BatchKNN([][]float64{{0.5}}, 1); err == nil {
		t.Error("expected dimension error")
	}
	empty, _ := Open(Options{Dim: 2, Disks: 2})
	if _, _, err := empty.BatchKNN([][]float64{{0.5, 0.5}}, 1); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
	// A batch rejected for its Approx or ShardSpec is counted and traced
	// like one rejected for its k.
	batch := [][]float64{{0.5, 0.5}}
	assertRejected(t, ix, "k", "parsearch: k = 0", func(ctx context.Context) error {
		_, _, err := ix.BatchKNNContext(ctx, batch, 0)
		return err
	})
	assertRejected(t, ix, "approx", "parsearch: epsilon -1 outside [0, 1e+06]", func(ctx context.Context) error {
		_, _, err := ix.BatchKNNApproxContext(ctx, batch, 1, Approx{Epsilon: -1})
		return err
	})
	assertRejected(t, ix, "shard approx", "parsearch: bound -1, want a finite distance >= 0", func(ctx context.Context) error {
		_, _, err := ix.BatchKNNShardContext(ctx, batch, 1, Approx{Bound: -1}, ShardSpec{})
		return err
	})
	assertRejected(t, ix, "shard spec", "parsearch: shard spec of 2 selects no groups", func(ctx context.Context) error {
		_, _, err := ix.BatchKNNShardContext(ctx, batch, 1, Approx{}, ShardSpec{Of: 2})
		return err
	})
}

func TestBatchKNNEmptyBatch(t *testing.T) {
	ix := buildTestIndex(t, Options{Dim: 2, Disks: 2}, 50)
	res, stats, err := ix.BatchKNN(nil, 3)
	if err != nil || len(res) != 0 || stats.Queries != 0 {
		t.Errorf("empty batch: res=%v stats=%+v err=%v", res, stats, err)
	}
}

// Throughput balance: over a batch, even round robin balances total work,
// so utilization should be high for both RR and near-optimal — the
// insight behind the paper's throughput remark.
func TestBatchUtilizationHigh(t *testing.T) {
	const d, n = 8, 8000
	pts := data.Uniform(n, d, 3)
	raw := make([][]float64, n)
	for i, p := range pts {
		raw[i] = p
	}
	queries := make([][]float64, 32)
	for i, q := range data.Uniform(len(queries), d, 4) {
		queries[i] = q
	}
	for _, kind := range []Kind{NearOptimal, RoundRobin} {
		ix, err := Open(Options{Dim: d, Disks: 8, Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Build(raw); err != nil {
			t.Fatal(err)
		}
		_, stats, err := ix.BatchKNN(queries, 10)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Utilization < 0.5 {
			t.Errorf("%s: batch utilization %.2f too low", kind, stats.Utilization)
		}
	}
}

func TestServiceDemands(t *testing.T) {
	const d, n = 6, 3000
	ix := buildTestIndex(t, Options{Dim: d, Disks: 8}, n)
	queries := make([][]float64, 6)
	for i, q := range data.Uniform(len(queries), d, 17) {
		queries[i] = q
	}
	demands, err := ix.ServiceDemands(queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(demands) != len(queries) {
		t.Fatalf("%d demand rows", len(demands))
	}
	for i, row := range demands {
		if len(row) != 8 {
			t.Fatalf("row %d has %d disks", i, len(row))
		}
		total := 0.0
		for _, v := range row {
			if v < 0 {
				t.Fatalf("negative demand %v", v)
			}
			total += v
		}
		if total <= 0 {
			t.Fatalf("query %d needs no disk time at all", i)
		}
	}
	// A demand row is the disk model applied to the pages the modelled
	// query reports: ServiceDemands and KNN run the same per-item step.
	// (No leaf of this index is a supernode — Cells == TotalPages — so
	// every read is one page and PagesPerDisk is also the read count.)
	params := DefaultDiskParams()
	for i, q := range queries {
		_, stats, err := ix.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Cells != stats.TotalPages {
			t.Fatalf("query %d: %d reads for %d pages, the test needs single-page leaves", i, stats.Cells, stats.TotalPages)
		}
		for d, pages := range stats.PagesPerDisk {
			want := (time.Duration(pages) * (params.Seek + params.Transfer)).Seconds()
			if demands[i][d] != want {
				t.Errorf("query %d disk %d: demand %v, KNN read %d pages = %v", i, d, demands[i][d], pages, want)
			}
		}
	}
	// Errors.
	if _, err := ix.ServiceDemands(queries, 0); err == nil {
		t.Error("expected k error")
	}
	if _, err := ix.ServiceDemands([][]float64{{0.5}}, 1); err == nil {
		t.Error("expected dimension error")
	}
	empty, _ := Open(Options{Dim: d, Disks: 8})
	if _, err := empty.ServiceDemands(queries, 1); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestDiskParamsValidation(t *testing.T) {
	p := DefaultDiskParams()
	if p.Seek <= 0 || p.Transfer <= 0 {
		t.Errorf("implausible default params %+v", p)
	}
	bad := DiskParams{Seek: -1}
	if _, err := Open(Options{Dim: 2, Disks: 2, DiskParams: &bad}); err == nil {
		t.Error("negative disk params accepted")
	}
	good := DiskParams{Seek: 1, Transfer: 1}
	if _, err := Open(Options{Dim: 2, Disks: 2, DiskParams: &good}); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

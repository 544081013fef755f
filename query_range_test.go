package parsearch

import (
	"context"
	"math"
	"testing"

	"parsearch/internal/data"
	"parsearch/internal/vec"
)

func TestRangeQueryMatchesLinearScan(t *testing.T) {
	const d, n = 5, 2000
	pts := data.Uniform(n, d, 31)
	raw := make([][]float64, n)
	for i, p := range pts {
		raw[i] = p
	}
	for _, kind := range []Kind{NearOptimal, Hilbert, RoundRobin} {
		ix, err := Open(Options{Dim: d, Disks: 4, Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Build(raw); err != nil {
			t.Fatal(err)
		}
		min := []float64{0.2, 0.2, 0.2, 0.2, 0.2}
		max := []float64{0.7, 0.7, 0.7, 0.7, 0.7}
		got, stats, err := ix.RangeQueryContext(context.Background(), min, max)
		if err != nil {
			t.Fatal(err)
		}
		rect := vec.NewRect(min, max)
		var want []int
		for i, p := range pts {
			if rect.Contains(p) {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, want %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i] {
				t.Fatalf("%s: result %d = id %d, want %d (ordered by ID)", kind, i, got[i].ID, want[i])
			}
		}
		if stats.MaxPages < 1 || stats.TotalPages < stats.MaxPages {
			t.Errorf("%s: implausible stats %+v", kind, stats)
		}
	}
}

func TestRangeQueryValidation(t *testing.T) {
	ix := buildTestIndex(t, Options{Dim: 2, Disks: 2}, 10)
	if _, _, err := ix.RangeQueryContext(context.Background(), []float64{0}, []float64{1, 1}); err == nil {
		t.Error("expected dimension error")
	}
	if _, _, err := ix.RangeQueryContext(context.Background(), []float64{0.5, 0.5}, []float64{0.4, 0.9}); err == nil {
		t.Error("expected min>max error")
	}
	empty, _ := Open(Options{Dim: 2, Disks: 2})
	if _, _, err := empty.RangeQueryContext(context.Background(), []float64{0, 0}, []float64{1, 1}); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestRangeQueryEmptyResult(t *testing.T) {
	ix := buildTestIndex(t, Options{Dim: 2, Disks: 2}, 100)
	got, _, err := ix.RangeQueryContext(context.Background(), []float64{2, 2}, []float64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("expected no results outside the data space, got %d", len(got))
	}
}

func TestRangeQueryBaselineStats(t *testing.T) {
	ix := buildTestIndex(t, Options{Dim: 4, Disks: 4, Baseline: true}, 2000)
	_, stats, err := ix.RangeQueryContext(context.Background(),
		[]float64{0.1, 0.1, 0.1, 0.1}, []float64{0.6, 0.6, 0.6, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SeqPages < 1 || stats.BaselineSpeedup <= 0 {
		t.Errorf("baseline stats missing: %+v", stats)
	}
}

func TestPartialMatch(t *testing.T) {
	const d, n = 4, 3000
	pts := data.Uniform(n, d, 77)
	raw := make([][]float64, n)
	for i, p := range pts {
		raw[i] = p
	}
	ix, err := Open(Options{Dim: d, Disks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}

	spec := []float64{0.5, Wildcard, 0.3, Wildcard}
	const eps = 0.05
	got, _, err := ix.PartialMatchContext(context.Background(), spec, eps)
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, p := range pts {
		if math.Abs(p[0]-0.5) <= eps && math.Abs(p[2]-0.3) <= eps {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("partial match: %d results, want %d", len(got), want)
	}
	for _, nb := range got {
		if math.Abs(nb.Point[0]-0.5) > eps || math.Abs(nb.Point[2]-0.3) > eps {
			t.Fatalf("result %d violates the specification: %v", nb.ID, nb.Point)
		}
	}
}

func TestPartialMatchValidation(t *testing.T) {
	ix := buildTestIndex(t, Options{Dim: 3, Disks: 2}, 10)
	if _, _, err := ix.PartialMatchContext(context.Background(), []float64{0.5}, 0.1); err == nil {
		t.Error("expected dimension error")
	}
	if _, _, err := ix.PartialMatchContext(context.Background(), []float64{0.5, 0.5, 0.5}, -1); err == nil {
		t.Error("expected tolerance error")
	}
	if _, _, err := ix.PartialMatchContext(context.Background(), []float64{Wildcard, Wildcard, Wildcard}, 0.1); err == nil {
		t.Error("expected no-dimension error")
	}
	// Each rejection is counted in query_errors and traced as one error
	// event, with the text it always had.
	if got := ix.Metrics().QueryErrors; got != 3 {
		t.Errorf("QueryErrors = %d after three rejected partial matches, want 3", got)
	}
	for _, c := range []struct {
		name, wantErr string
		spec          []float64
		eps           float64
		shards        ShardSpec
	}{
		{"dimension", "parsearch: partial-match spec has dimension 1, want 3", []float64{0.5}, 0.1, ShardSpec{}},
		{"tolerance", "parsearch: negative tolerance -1", []float64{0.5, 0.5, 0.5}, -1, ShardSpec{}},
		{"no dimension", "parsearch: partial-match query specifies no dimension", []float64{Wildcard, Wildcard, Wildcard}, 0.1, ShardSpec{}},
		{"shard spec", "parsearch: duplicate shard group 0", []float64{0.5, Wildcard, Wildcard}, 0.1, ShardSpec{Of: 2, Groups: []int{0, 0}}},
	} {
		assertRejected(t, ix, c.name, c.wantErr, func(ctx context.Context) error {
			_, _, err := ix.PartialMatchShardContext(ctx, c.spec, c.eps, c.shards)
			return err
		})
	}
}

func TestRangeQueryBucketsCostModel(t *testing.T) {
	ix := buildTestIndex(t, Options{Dim: 4, Disks: 4, CostModel: BucketPages}, 1500)
	got, stats, err := ix.RangeQueryContext(context.Background(),
		[]float64{0, 0, 0, 0}, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1500 {
		t.Errorf("full-space range returned %d of 1500", len(got))
	}
	if stats.Cells < 1 {
		t.Errorf("no cells accounted: %+v", stats)
	}
}

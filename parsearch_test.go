package parsearch

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"parsearch/internal/data"
	"parsearch/internal/vec"
)

// TestIndexQueryMethods pins the query surface: for each kind — k-NN,
// range, partial match and batch k-NN — the full form is its
// *ShardContext method, taking a context, an Approx for k-NN, and a
// ShardSpec. The eight others are conveniences the benchmark (bench/)
// calls: KNN, KNNContext, KNNApprox, KNNApproxContext, RangeQuery,
// RangeQueryContext, PartialMatchContext and BatchKNNContext. ROADMAP
// item 9 repoints the benchmark and retires them.
func TestIndexQueryMethods(t *testing.T) {
	want := []string{
		"BatchKNNContext", "BatchKNNShardContext",
		"KNN", "KNNApprox", "KNNApproxContext", "KNNContext", "KNNShardContext",
		"PartialMatchContext", "PartialMatchShardContext",
		"RangeQuery", "RangeQueryContext", "RangeQueryShardContext",
	}
	var got []string
	typ := reflect.TypeOf((*Index)(nil))
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		for _, kind := range []string{"KNN", "NN", "Range", "PartialMatch", "Batch"} {
			if strings.HasPrefix(name, kind) {
				got = append(got, name)
				break
			}
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("*Index query methods %v, want %v", got, want)
	}
}

func TestOpenValidation(t *testing.T) {
	bad := []Options{
		{Dim: 0, Disks: 4},
		{Dim: 70, Disks: 4},
		{Dim: 8, Disks: 0},
		{Dim: 8, Disks: 4, Kind: "nope"},
		{Dim: 8, Disks: 4, PageSize: 64},
		{Dim: 8, Disks: 4, Kind: Hilbert, Recursive: true},
		{Dim: 65, Disks: 4, Kind: Hilbert},
	}
	for i, opts := range bad {
		if _, err := Open(opts); err == nil {
			t.Errorf("options %d (%+v): expected error", i, opts)
		}
	}
	ix, err := Open(Options{Dim: 8, Disks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Strategy() != "new" || ix.Disks() != 4 || ix.Len() != 0 {
		t.Errorf("defaults wrong: %s %d %d", ix.Strategy(), ix.Disks(), ix.Len())
	}
}

func TestAllStrategiesOpen(t *testing.T) {
	for _, k := range []Kind{NearOptimal, Hilbert, DiskModulo, FX, RoundRobin, DirectOnly} {
		if _, err := Open(Options{Dim: 8, Disks: 5, Kind: k}); err != nil {
			t.Errorf("Open(%s): %v", k, err)
		}
	}
}

func TestBuildValidatesDimensions(t *testing.T) {
	ix, _ := Open(Options{Dim: 3, Disks: 2})
	if err := ix.Build([][]float64{{0.5, 0.5}}); err == nil {
		t.Error("expected dimension error")
	}
}

func TestEmptyQueries(t *testing.T) {
	ix, _ := Open(Options{Dim: 2, Disks: 2})
	if _, _, err := ix.KNN([]float64{0.5, 0.5}, 1); !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestQueryValidation(t *testing.T) {
	ix, _ := Open(Options{Dim: 2, Disks: 2})
	ix.Build([][]float64{{0.1, 0.1}})
	if _, _, err := ix.KNN([]float64{0.5}, 1); err == nil {
		t.Error("expected dimension error")
	}
	if _, _, err := ix.KNN([]float64{0.5, 0.5}, 0); err == nil {
		t.Error("expected k error")
	}
}

// TestQueryRefusesNonFinitePoints: a k-NN query point with a NaN or
// infinite component ranks nothing — every distance is NaN or +Inf — so
// every k-NN entry point refuses it, naming the component. Partial
// match keeps NaN as its wildcard and a range box its infinite sides.
func TestQueryRefusesNonFinitePoints(t *testing.T) {
	ix := buildTestIndex(t, Options{Dim: 3, Disks: 2}, 50)
	ok := []float64{0.5, 0.5, 0.5}
	entries := []struct {
		name string
		run  func(q []float64) error
	}{
		{"KNN", func(q []float64) error { _, _, err := ix.KNN(q, 5); return err }},
		{"KNN1", func(q []float64) error { _, _, err := ix.KNN(q, 1); return err }},
		{"KNNApprox", func(q []float64) error { _, _, err := ix.KNNApprox(q, 5, Approx{Epsilon: 1}); return err }},
		{"BatchKNN", func(q []float64) error {
			_, _, err := ix.BatchKNNContext(context.Background(), [][]float64{ok, q}, 5)
			return err
		}},
		{"ServiceDemands", func(q []float64) error { _, err := ix.ServiceDemands([][]float64{ok, q}, 5); return err }},
		{"Browse", func(q []float64) error { _, err := ix.Browse(q); return err }},
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		q := []float64{0.5, 0.5, bad}
		for _, e := range entries {
			err := e.run(q)
			if err == nil || !strings.Contains(err.Error(), "component 2") {
				t.Errorf("%s(%v): err %v, want a refusal naming component 2", e.name, q, err)
			}
		}
	}
	if _, _, err := ix.PartialMatchContext(context.Background(), []float64{0.5, Wildcard, Wildcard}, 0.1); err != nil {
		t.Errorf("PartialMatch with wildcards: %v", err)
	}
	inf := math.Inf(1)
	if _, _, err := ix.RangeQueryContext(context.Background(), []float64{-inf, -inf, -inf}, []float64{inf, inf, inf}); err != nil {
		t.Errorf("RangeQuery over the whole space: %v", err)
	}
}

// Correctness across all strategies: parallel k-NN must equal a direct
// linear scan.
func TestKNNMatchesLinearScanAllStrategies(t *testing.T) {
	const d, n = 8, 1200
	pts := data.Uniform(n, d, 42)
	raw := make([][]float64, n)
	truth := make(map[int][]float64, n)
	for i, p := range pts {
		raw[i] = p
		truth[i] = p
	}
	queries := data.Uniform(30, d, 43)

	for _, kind := range []Kind{NearOptimal, Hilbert, DiskModulo, FX, RoundRobin, DirectOnly} {
		ix, err := Open(Options{Dim: d, Disks: 5, Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Build(raw); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			got, _, err := ix.KNN(q, 7)
			if err != nil {
				t.Fatal(err)
			}
			want := scanKNN(truth, q, 7, vec.L2)
			if len(got) != len(want) {
				t.Fatalf("%s: got %d results", kind, len(got))
			}
			for i := range got {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					t.Fatalf("%s: result %d dist %v, want %v", kind, i, got[i].Dist, want[i].Dist)
				}
			}
		}
	}
}

func TestInsertDynamic(t *testing.T) {
	ix, _ := Open(Options{Dim: 4, Disks: 3, Baseline: true})
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		p := []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
		id, err := ix.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("id = %d, want %d", id, i)
		}
	}
	if ix.Len() != 300 {
		t.Errorf("Len = %d", ix.Len())
	}
	if _, err := ix.Insert([]float64{0.5}); err == nil {
		t.Error("expected dimension error")
	}
	res, stats, err := ix.KNN([]float64{0.5, 0.5, 0.5, 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nb := res[0]; nb.Dist < 0 || len(nb.Point) != 4 {
		t.Errorf("bad neighbor %+v", nb)
	}
	if stats.Speedup <= 0 {
		t.Errorf("baseline index should report a speed-up, got %+v", stats)
	}
}

func TestStatsConsistency(t *testing.T) {
	const d, n = 8, 4000
	pts := data.Uniform(n, d, 7)
	raw := make([][]float64, n)
	for i, p := range pts {
		raw[i] = p
	}
	ix, _ := Open(Options{Dim: d, Disks: 8, Baseline: true})
	ix.Build(raw)
	q := data.Uniform(1, d, 8)[0]
	_, stats, err := ix.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	sum, max := 0, 0
	for _, p := range stats.PagesPerDisk {
		sum += p
		if p > max {
			max = p
		}
	}
	if sum != stats.TotalPages || max != stats.MaxPages {
		t.Errorf("stats inconsistent: %+v", stats)
	}
	if stats.MaxPages < 1 {
		t.Error("no pages read")
	}
	// The parallel index partitions the same points, so the total page
	// count across disks should be within a small factor of the
	// sequential count (page boundaries differ).
	if stats.SeqPages < 1 {
		t.Error("baseline pages missing")
	}
	if stats.ParallelTime <= 0 || stats.SequentialTime <= 0 {
		t.Errorf("times missing: %+v", stats)
	}
}

// The headline behaviour: near-optimal declustering yields a higher
// speed-up than round robin on uniform high-dimensional data. The scale
// must let per-disk trees resolve quadrants (N/2^d at least a page), so
// d=8 with 8000 points.
func TestNearOptimalBeatsRoundRobin(t *testing.T) {
	const d, n, disks = 8, 8000, 8
	pts := data.Uniform(n, d, 123)
	raw := make([][]float64, n)
	for i, p := range pts {
		raw[i] = p
	}
	queries := data.Uniform(20, d, 124)

	avgMax := func(kind Kind) float64 {
		ix, err := Open(Options{Dim: d, Disks: disks, Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Build(raw); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, q := range queries {
			_, stats, err := ix.KNN(q, 1)
			if err != nil {
				t.Fatal(err)
			}
			total += stats.MaxPages
		}
		return float64(total) / float64(len(queries))
	}

	newMax := avgMax(NearOptimal)
	rrMax := avgMax(RoundRobin)
	if newMax >= rrMax {
		t.Errorf("near-optimal bottleneck %v pages, round robin %v — expected improvement", newMax, rrMax)
	}
}

func TestVerifyDeclustering(t *testing.T) {
	ix, _ := Open(Options{Dim: 3, Disks: 4})
	v, err := ix.VerifyDeclustering(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Errorf("near-optimal strategy reported violations: %v", v)
	}
	ix, _ = Open(Options{Dim: 3, Disks: 4, Kind: Hilbert})
	v, err = ix.VerifyDeclustering(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) == 0 {
		t.Error("Hilbert in d=3 should violate near-optimality (Lemma 1)")
	}
	ix, _ = Open(Options{Dim: 3, Disks: 4, Kind: RoundRobin})
	if _, err := ix.VerifyDeclustering(0); err == nil {
		t.Error("round robin verification should error")
	}
}

func TestRecursiveOptionBalancesClusters(t *testing.T) {
	const d, n, disks = 8, 3000, 8
	pts := data.Clustered(n, d, 1, 0.02, 5)
	raw := make([][]float64, n)
	for i, p := range pts {
		raw[i] = p
	}
	plain, _ := Open(Options{Dim: d, Disks: disks})
	plain.Build(raw)
	rec, _ := Open(Options{Dim: d, Disks: disks, Recursive: true, QuantileSplits: true})
	rec.Build(raw)

	maxLoad := func(loads []int) int {
		m := 0
		for _, l := range loads {
			if l > m {
				m = l
			}
		}
		return m
	}
	if maxLoad(rec.DiskLoads()) >= maxLoad(plain.DiskLoads()) {
		t.Errorf("recursive declustering did not balance: %v vs %v",
			rec.DiskLoads(), plain.DiskLoads())
	}
}

func TestQuantileSplitsBalanceSkewedData(t *testing.T) {
	const d, n, disks = 8, 4000, 8
	r := rand.New(rand.NewSource(31))
	raw := make([][]float64, n)
	for i := range raw {
		p := make([]float64, d)
		for j := range p {
			p[j] = r.Float64() * r.Float64() // skewed toward 0
		}
		raw[i] = p
	}
	plain, _ := Open(Options{Dim: d, Disks: disks})
	plain.Build(raw)
	quant, _ := Open(Options{Dim: d, Disks: disks, QuantileSplits: true})
	quant.Build(raw)

	imbalance := func(loads []int) float64 {
		m := 0
		for _, l := range loads {
			if l > m {
				m = l
			}
		}
		return float64(m) * float64(disks) / float64(n)
	}
	if imbalance(quant.DiskLoads()) >= imbalance(plain.DiskLoads()) {
		t.Errorf("quantile splits did not help: %v vs %v",
			quant.DiskLoads(), plain.DiskLoads())
	}
}

func TestBuildReplacesContent(t *testing.T) {
	ix, _ := Open(Options{Dim: 2, Disks: 2})
	ix.Build([][]float64{{0.1, 0.1}, {0.2, 0.2}})
	ix.Build([][]float64{{0.9, 0.9}})
	if ix.Len() != 1 {
		t.Errorf("Len = %d after rebuild", ix.Len())
	}
	res, _, err := ix.KNN([]float64{0.8, 0.8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nb := res[0]; nb.ID != 0 || nb.Point[0] != float64(float32(0.9)) {
		t.Errorf("unexpected neighbor %+v", nb)
	}
}

func TestKLargerThanData(t *testing.T) {
	ix, _ := Open(Options{Dim: 2, Disks: 4})
	ix.Build([][]float64{{0.1, 0.1}, {0.9, 0.9}})
	res, _, err := ix.KNN([]float64{0.5, 0.5}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Errorf("got %d results, want 2", len(res))
	}
}

func TestConcurrentQueries(t *testing.T) {
	const d, n = 8, 2000
	pts := data.Uniform(n, d, 55)
	raw := make([][]float64, n)
	for i, p := range pts {
		raw[i] = p
	}
	ix, _ := Open(Options{Dim: d, Disks: 4})
	ix.Build(raw)
	queries := data.Uniform(32, d, 56)
	done := make(chan error, len(queries))
	for _, q := range queries {
		go func(q []float64) {
			_, _, err := ix.KNN(q, 3)
			done <- err
		}(q)
	}
	for range queries {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestDiskFailurePropagates(t *testing.T) {
	ix := buildTestIndex(t, Options{Dim: 4, Disks: 4}, 2000)
	q := []float64{0.5, 0.5, 0.5, 0.5}
	if _, stats, err := ix.KNN(q, 5); err != nil {
		t.Fatalf("healthy query failed: %v", err)
	} else if stats.Degraded || stats.Unreachable != 0 {
		t.Errorf("healthy query reported degraded stats: %+v", stats)
	}
	if err := ix.FailDisk(99); err == nil {
		t.Error("failing an unknown disk should error")
	}
	if err := ix.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	// Without replication a pre-failed disk no longer errors the query:
	// it returns best-effort results flagged Degraded.
	if _, stats, err := ix.KNN(q, 5); err != nil {
		t.Errorf("degraded query should succeed best-effort: %v", err)
	} else if !stats.Degraded {
		t.Error("query over a failed, unreplicated disk should be flagged Degraded")
	} else if stats.Unreachable == 0 {
		t.Error("degraded query should count its unreachable pages")
	}
	if err := ix.HealDisk(2); err != nil {
		t.Fatal(err)
	}
	if _, stats, err := ix.KNN(q, 5); err != nil {
		t.Errorf("healed disk still failing: %v", err)
	} else if stats.Degraded {
		t.Error("query after heal still flagged Degraded")
	}
	if err := ix.HealDisk(-1); err == nil {
		t.Error("healing an unknown disk should error")
	}
}

// Concurrent mixed workload under the race detector: queries, inserts,
// deletes and browsing running together must stay consistent.
func TestConcurrentMixedWorkload(t *testing.T) {
	const d = 4
	ix := buildTestIndex(t, Options{Dim: d, Disks: 4}, 2000)
	done := make(chan error, 24)
	for w := 0; w < 8; w++ {
		go func(w int) { // queriers
			q := []float64{0.1 * float64(w%5), 0.5, 0.5, 0.3}
			for i := 0; i < 30; i++ {
				if _, _, err := ix.KNN(q, 3); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		go func(w int) { // writers
			for i := 0; i < 20; i++ {
				p := []float64{0.2, 0.3 * float64(w%3), 0.4, 0.8}
				if _, err := ix.Insert(p); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		go func(w int) { // browsers
			for i := 0; i < 10; i++ {
				b, err := ix.Browse([]float64{0.5, 0.5, 0.5, 0.5})
				if err != nil {
					done <- err
					return
				}
				b.Next()
			}
			done <- nil
		}(w)
	}
	for i := 0; i < 24; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 2000+8*20 {
		t.Errorf("Len = %d after concurrent inserts", ix.Len())
	}
}

package parsearch

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"parsearch/internal/data"
	"parsearch/internal/disk"
	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// The page-accounting stage enumerates the pages a query's region hits
// by a pruned descent of every routed tree (xtree.Tree.HitLeaves). This
// file holds its reference — the scan of every leaf of every routed
// tree the engine used to run — and checks that every accounting field
// of every query kind agrees with it.

// leafScanRefs is the TreePages branch of run.pageRefs with the leaf
// enumeration replaced by a scan of Tree.Leaves.
func leafScanRefs(v *version, routes []route, g *xtree.Region, qs *QueryStats) (refs []disk.PageRef) {
	qs.PagesPerDisk = make([]int, len(v.shards))
	for d, rt := range routes {
		if rt.masked {
			continue
		}
		tree := rt.tree
		if tree == nil {
			tree = v.shards[d]
		}
		for _, leaf := range tree.Leaves() {
			if !g.Hits(leaf.Rect()) {
				continue
			}
			qs.Cells++
			if rt.tree == nil {
				qs.Unreachable += leaf.Super()
				continue
			}
			if rt.rerouted {
				qs.Rerouted += leaf.Super()
			}
			qs.PagesPerDisk[rt.disk] += leaf.Super()
			refs = append(refs, disk.PageRef{Disk: rt.disk, Blocks: leaf.Super()})
		}
	}
	return refs
}

// leafScanItem accounts one region on ix by the leaf scan, and checks
// on the way that the engine's stage yields the same page reads. (Leaves
// never become supernodes, so the reads of one tree are all alike and
// their order shows only in internal/xtree's own property test.)
func leafScanItem(t *testing.T, ix *Index, g *xtree.Region, shards ShardSpec) (QueryStats, []disk.PageRef) {
	t.Helper()
	v := ix.pub.Load()
	routes, _ := ix.plan(v, shards.mask(ix.opts.Disks))
	var qs, engine QueryStats
	refs := leafScanRefs(v, routes, g, &qs)
	r := &run{ix: ix, ctx: context.Background(), v: v, m: ix.metric(), routes: routes}
	if got := r.pageRefs(g, nil, &engine); !reflect.DeepEqual(got, refs) {
		t.Errorf("pageRefs yields %d reads, the leaf scan %d, or they differ", len(got), len(refs))
	}
	return qs, refs
}

// leafScanQuery is the cost a single query with region g must report:
// the scanned page reads run through ix's disk array (which draws from
// its fault model exactly as the query under test does on the twin
// index), and the scanned sequential baseline.
func leafScanQuery(t *testing.T, ix *Index, g *xtree.Region, shards ShardSpec) QueryStats {
	t.Helper()
	qs, refs := leafScanItem(t, ix, g, shards)
	batch, err := ix.array.ReadBatch(refs)
	if err != nil {
		t.Fatal(err)
	}
	qs.MaxPages, qs.TotalPages, qs.Retries = batch.MaxPerDisk, batch.Total, batch.Retries
	qs.Speedup = batch.Speedup()
	if base := ix.pub.Load().baseline; base != nil {
		leaves := 0
		for _, leaf := range base.Leaves() {
			if g.Hits(leaf.Rect()) {
				qs.SeqPages += leaf.Super()
				leaves++
			}
		}
		if par := batch.ParallelTime.Seconds(); par > 0 {
			qs.BaselineSpeedup = ix.params.SimulateCost(leaves, qs.SeqPages).Seconds() / par
		}
	}
	return qs
}

// accounting is the part of a QueryStats the page-accounting stage and
// the I/O it feeds determine.
type accounting struct {
	PagesPerDisk                             []int
	TotalPages, MaxPages, Cells              int
	Unreachable, Rerouted, SeqPages, Retries int
	Speedup, BaselineSpeedup                 float64
}

func accountingOf(qs QueryStats) accounting {
	return accounting{qs.PagesPerDisk, qs.TotalPages, qs.MaxPages, qs.Cells,
		qs.Unreachable, qs.Rerouted, qs.SeqPages, qs.Retries, qs.Speedup, qs.BaselineSpeedup}
}

func TestAccountingMatchesLeafScan(t *testing.T) {
	const dim, disks, n, k = 6, 6, 3000, 10
	ctx := context.Background()
	raw := rawPoints(n, dim, 51)
	queries := uniformPoints(4, dim, 52)
	lo, hi := make([]float64, dim), make([]float64, dim)
	for i := range lo {
		lo[i], hi[i] = 0.25, 0.6
	}
	pm := []float64{0.5, Wildcard, 0.4, Wildcard, Wildcard, Wildcard}
	const tol = 0.08
	faults := FaultModel{TransientProb: 0.2, MaxRetries: 12, RetryBackoff: time.Millisecond,
		SpikeProb: 0.1, SpikeLatency: 5 * time.Millisecond, Seed: 53}

	configs := []struct {
		name   string
		opts   Options
		faults bool
	}{
		{"plain", Options{}, false},
		{"baseline", Options{Baseline: true}, false},
		{"replicated+baseline+faults", Options{Replication: 1, Baseline: true}, true},
		{"replicated+L1", Options{Replication: 1, Metric: Manhattan}, false},
		{"baseline+faults+Linf", Options{Baseline: true, Metric: Maximum}, true},
	}
	// seen sums what the matrix exercised, so that a dead axis fails the
	// test instead of passing it vacuously.
	var seen accounting
	for _, cfg := range configs {
		for _, failed := range [][]int{nil, {1}, {1, 2}} {
			// api answers the queries; ref is its twin — same data, same
			// failures, same fault seed — on which the reference runs, so
			// both draw the same fault sequence.
			open := func() *Index {
				opts := cfg.opts
				opts.Dim, opts.Disks = dim, disks
				ix, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				if cfg.faults {
					if err := ix.SetFaults(faults); err != nil {
						t.Fatal(err)
					}
				}
				if err := ix.Build(raw); err != nil {
					t.Fatal(err)
				}
				for _, d := range failed {
					if err := ix.FailDisk(d); err != nil {
						t.Fatal(err)
					}
				}
				return ix
			}
			api, ref := open(), open()
			// sphere is the NN-sphere a k-NN answer ending at distance rk
			// must be charged for.
			sphere := func(q []float64, rk float64) *xtree.Region {
				return &xtree.Region{Q: q, M: ref.metric(), Rank: ref.metric().ToRank(rk)}
			}
			for _, shards := range []ShardSpec{{}, {Of: 3, Groups: []int{1, 2}}} {
				label := fmt.Sprintf("%s/failed=%v/shards=%v", cfg.name, failed, shards)
				check := func(what string, got, want QueryStats) {
					t.Helper()
					if g, w := accountingOf(got), accountingOf(want); !reflect.DeepEqual(g, w) {
						t.Errorf("%s/%s:\n engine    %+v\n leaf scan %+v", label, what, g, w)
					}
					seen.TotalPages += got.TotalPages
					seen.Unreachable += got.Unreachable
					seen.Rerouted += got.Rerouted
					seen.SeqPages += got.SeqPages
					seen.Retries += got.Retries
				}

				for i, q := range queries {
					res, got, err := api.KNNShardContext(ctx, q, k, Approx{}, shards)
					if err != nil {
						t.Fatalf("%s/knn %d: %v", label, i, err)
					}
					check(fmt.Sprintf("knn %d", i), got, leafScanQuery(t, ref, sphere(q, res[len(res)-1].Dist), shards))
				}

				res, got, err := api.BatchKNNShardContext(ctx, queries, k, Approx{}, shards)
				if err != nil {
					t.Fatalf("%s/batch: %v", label, err)
				}
				var refs []disk.PageRef
				unreachable, rerouted := 0, 0
				for i, q := range queries {
					qs, itemRefs := leafScanItem(t, ref, sphere(q, res[i][len(res[i])-1].Dist), shards)
					fillQueryCost(&qs, itemRefs, ref.params)
					check(fmt.Sprintf("batch item %d", i), got.PerQuery[i], qs)
					refs = append(refs, itemRefs...)
					unreachable += qs.Unreachable
					rerouted += qs.Rerouted
				}
				batch, err := ref.array.ReadBatch(refs)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.PagesPerDisk, batch.PerDisk) || got.TotalPages != batch.Total ||
					got.Retries != batch.Retries || got.Unreachable != unreachable || got.Rerouted != rerouted {
					t.Errorf("%s/batch: engine pages %v total %d retries %d unreachable %d rerouted %d, leaf scan %v %d %d %d %d",
						label, got.PagesPerDisk, got.TotalPages, got.Retries, got.Unreachable, got.Rerouted,
						batch.PerDisk, batch.Total, batch.Retries, unreachable, rerouted)
				}

				_, got2, err := api.RangeQueryShardContext(ctx, lo, hi, shards)
				if err != nil {
					t.Fatalf("%s/range: %v", label, err)
				}
				box := vec.NewRect(lo, hi)
				check("range", got2, leafScanQuery(t, ref, &xtree.Region{Box: &box}, shards))

				qr := query{op: opPartialMatch, point: pm, tol: tol}
				if err := qr.validate(dim, disks); err != nil {
					t.Fatal(err)
				}
				_, got3, err := api.PartialMatchShardContext(ctx, pm, tol, shards)
				if err != nil {
					t.Fatalf("%s/partial match: %v", label, err)
				}
				pmBox := vec.NewRect(qr.min, qr.max)
				check("partial match", got3, leafScanQuery(t, ref, &xtree.Region{Box: &pmBox}, shards))
			}
		}
	}
	if seen.TotalPages == 0 || seen.Unreachable == 0 || seen.Rerouted == 0 || seen.SeqPages == 0 || seen.Retries == 0 {
		t.Errorf("the matrix left an accounting path unexercised: %+v", seen)
	}
}

// TestAccountingFromSearchLog checks the log path of the accounting
// stage against the descent it replaced. Every query runs on two twin
// indexes (same data, failures and fault seed); logSeam forces the
// descent on the twin, and on the index under test checks every logged
// per-disk count against a descent of the same tree and counts the
// disks the frontier check sent to the fallback. The answers, the page
// reads and every QueryStats field must agree; an exact unbounded k-NN
// and a box query must be served from the log on every disk, so a
// change that quietly always falls back fails here.
func TestAccountingFromSearchLog(t *testing.T) {
	const dim, disks, n, k = 6, 6, 3000, 10
	ctx := context.Background()
	raw := rawPoints(n, dim, 71)
	queries := uniformPoints(4, dim, 72)
	lo, hi := make([]float64, dim), make([]float64, dim)
	for i := range lo {
		lo[i], hi[i] = 0.2, 0.55
	}
	pm := []float64{0.4, Wildcard, Wildcard, 0.6, Wildcard, Wildcard}
	faults := FaultModel{TransientProb: 0.2, MaxRetries: 12, RetryBackoff: time.Millisecond,
		SpikeProb: 0.1, SpikeLatency: 5 * time.Millisecond, Seed: 73}

	var (
		mu                    sync.Mutex
		twin                  *Index
		fromLog, fallbacks    int
		sawShort, sawFallback bool
	)
	logSeam = func(r *run, g *xtree.Region, logged []int) {
		if r.ix == twin {
			for d := range logged {
				logged[d] = -1
			}
			return
		}
		for d, rt := range r.routes {
			if rt.masked || rt.tree == nil {
				continue // not searched: descended by design
			}
			mu.Lock()
			if logged[d] < 0 {
				fallbacks++
			} else {
				fromLog++
			}
			mu.Unlock()
			if want := descendLeaves(rt.tree, g); logged[d] >= 0 && logged[d] != want {
				t.Errorf("disk %d: the search log counts %d hit leaves, the descent %d", d, logged[d], want)
			}
		}
	}
	t.Cleanup(func() { logSeam = nil })
	// served asserts that every searched disk since the last call was
	// charged from its log.
	served := func(label string) {
		t.Helper()
		if fallbacks > 0 {
			t.Errorf("%s: %d disks fell back to the descent", label, fallbacks)
		}
		if fromLog == 0 {
			t.Errorf("%s: no disk was charged from a search log", label)
		}
		sawFallback = sawFallback || fallbacks > 0
		fromLog, fallbacks = 0, 0
	}
	reset := func() {
		sawFallback = sawFallback || fallbacks > 0
		fromLog, fallbacks = 0, 0
	}

	configs := []struct {
		name   string
		opts   Options
		failed []int
		faults bool
	}{
		{"L2", Options{}, nil, false},
		{"L2+baseline", Options{Baseline: true}, nil, false},
		{"L2+failed", Options{Baseline: true}, []int{1}, false},
		{"L1+replicated+failed", Options{Replication: 1, Metric: Manhattan}, []int{1}, false},
		{"Linf+replicated+failed+faults", Options{Replication: 1, Baseline: true, Metric: Maximum}, []int{2}, true},
	}
	for _, cfg := range configs {
		open := func() *Index {
			opts := cfg.opts
			opts.Dim, opts.Disks = dim, disks
			ix, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.faults {
				if err := ix.SetFaults(faults); err != nil {
					t.Fatal(err)
				}
			}
			if err := ix.Build(raw); err != nil {
				t.Fatal(err)
			}
			for _, d := range cfg.failed {
				if err := ix.FailDisk(d); err != nil {
					t.Fatal(err)
				}
			}
			return ix
		}
		api := open()
		twin = open()

		// The exact k-th distances size the bounded queries: twice it
		// leaves the merge full, half of it short. Both twins answer, so
		// their fault draws stay in step.
		kth := make([]float64, len(queries))
		for i, q := range queries {
			for _, ix := range []*Index{api, twin} {
				res, _, err := ix.KNN(q, k)
				if err != nil {
					t.Fatal(err)
				}
				kth[i] = res[len(res)-1].Dist
			}
		}
		slices.Sort(kth)
		approxes := []struct {
			name  string
			a     Approx
			exact bool // exact and unbounded: the log must serve every disk
		}{
			{"exact", Approx{}, true},
			{"eps=0.3", Approx{Epsilon: 0.3}, false},
			{"bound-full", Approx{Bound: 2 * kth[len(kth)-1]}, false},
			{"bound-short", Approx{Bound: kth[0] / 2}, false},
		}
		for _, shards := range []ShardSpec{{}, {Of: 3, Groups: []int{0, 2}}} {
			for _, ap := range approxes {
				label := fmt.Sprintf("%s/shards=%v/%s", cfg.name, shards, ap.name)
				for i, q := range queries {
					reset()
					got, gotQS, err := api.KNNShardContext(ctx, q, k, ap.a, shards)
					if err != nil {
						t.Fatalf("%s/knn %d: %v", label, i, err)
					}
					if ap.exact {
						served(fmt.Sprintf("%s/knn %d", label, i))
					}
					sawShort = sawShort || len(got) < k
					want, wantQS, err := twin.KNNShardContext(ctx, q, k, ap.a, shards)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotQS, wantQS) {
						t.Errorf("%s/knn %d:\n log     %+v\n descent %+v", label, i, gotQS, wantQS)
					}
				}

				reset()
				got, gotBS, err := api.BatchKNNShardContext(ctx, queries, k, ap.a, shards)
				if err != nil {
					t.Fatalf("%s/batch: %v", label, err)
				}
				if ap.exact {
					served(label + "/batch")
				}
				want, wantBS, err := twin.BatchKNNShardContext(ctx, queries, k, ap.a, shards)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotBS, wantBS) {
					t.Errorf("%s/batch:\n log     %+v\n descent %+v", label, gotBS, wantBS)
				}
			}

			label := fmt.Sprintf("%s/shards=%v", cfg.name, shards)
			for _, box := range []struct {
				name string
				run  func(ix *Index) ([]Neighbor, QueryStats, error)
			}{
				{"range", func(ix *Index) ([]Neighbor, QueryStats, error) {
					return ix.RangeQueryShardContext(ctx, lo, hi, shards)
				}},
				{"partial match", func(ix *Index) ([]Neighbor, QueryStats, error) {
					return ix.PartialMatchShardContext(ctx, pm, 0.1, shards)
				}},
			} {
				reset()
				got, gotQS, err := box.run(api)
				if err != nil {
					t.Fatalf("%s/%s: %v", label, box.name, err)
				}
				served(label + "/" + box.name)
				want, wantQS, err := box.run(twin)
				if err != nil {
					t.Fatal(err)
				}
				// A partial match's Dist is NaN (its box center is), so
				// the answers compare by ID.
				if !slices.EqualFunc(got, want, func(a, b Neighbor) bool { return a.ID == b.ID }) ||
					!reflect.DeepEqual(gotQS, wantQS) {
					t.Errorf("%s/%s:\n log     %+v\n descent %+v", label, box.name, gotQS, wantQS)
				}
			}
		}

		reset()
		got, err := api.ServiceDemands(queries, k)
		if err != nil {
			t.Fatal(err)
		}
		served(cfg.name + "/service demands")
		want, err := twin.ServiceDemands(queries, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/service demands: log %v, descent %v", cfg.name, got, want)
		}
	}
	if !sawShort {
		t.Error("no bounded query came up short: the short-merge accounting went unexercised")
	}
	if !sawFallback {
		t.Error("no query took the fallback: the frontier check went unexercised")
	}
}

// TestBaselineChargesAccountedBall: a bounded k-NN whose merge comes up
// short is accounted for the whole ball of the bound, ties on its
// surface included (ToRankCeil), and the sequential baseline must be
// charged for that same ball — not for the ToRank sphere, which can
// round inside it and drop a leaf the parallel side read.
func TestBaselineChargesAccountedBall(t *testing.T) {
	const dim, disks, n = 4, 8, 4000
	ix, err := Open(Options{Dim: dim, Disks: disks, Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(rawPoints(n, dim, 81)); err != nil {
		t.Fatal(err)
	}
	m := ix.metric()
	base := ix.pub.Load().baseline
	scan := func(g *xtree.Region) (leaves int) {
		for _, leaf := range base.Leaves() {
			if g.Hits(leaf.Rect()) {
				leaves++
			}
		}
		return leaves
	}
	// Bound each query at the nearest baseline leaf's MINDIST whose
	// metric value ToRank rounds back below it: the two spheres then
	// differ by at least that leaf.
	rounded := 0
	for i, q := range uniformPoints(40, dim, 82) {
		bound := math.Inf(1)
		for _, leaf := range base.Leaves() {
			if rank := m.RankMinDist(leaf.Rect(), q); rank > 0 && m.ToRank(m.FromRank(rank)) < rank {
				bound = min(bound, m.FromRank(rank))
			}
		}
		if math.IsInf(bound, 1) {
			continue
		}
		res, qs, err := ix.KNNApprox(q, n, Approx{Bound: bound})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == n {
			continue // the merge is full: not the case under test
		}
		ball := &xtree.Region{Q: q, M: m, Rank: m.ToRankCeil(bound)}
		if want := scan(ball); qs.SeqPages != want {
			t.Errorf("query %d: SeqPages %d, the accounted ball hits %d baseline leaves", i, qs.SeqPages, want)
		}
		if scan(&xtree.Region{Q: q, M: m, Rank: m.ToRank(bound)}) < scan(ball) {
			rounded++
		}
	}
	if rounded == 0 {
		t.Error("no query's ToRank sphere dropped a leaf of its ball: the test no longer shows the rounding")
	}
}

// TestPinnedPageCounts pins the deterministic page counts of unseeded
// k-NN queries: every executed page, to the values the engine produced
// before the shared bound pruned for real (commit 333fb5d), and what a
// batch item's search reads, to the one queue across the disks (it read
// 119, 80, 218, … and 183, 147, 247, … pages while every disk ran its
// own search under a shared bound). PagesSavedByBound is left out — it
// is an estimate.
func TestPinnedPageCounts(t *testing.T) {
	for _, tc := range []struct {
		name         string
		opts         Options
		fail         int // disk to fail, -1 for none
		searchPages  []int
		totalPages   []int
		pagesPerDisk []int
	}{
		{"default", Options{Dim: 8, Disks: 16}, -1,
			[]int{51, 43, 76, 114, 85, 60, 73, 79},
			[]int{35, 27, 60, 98, 69, 44, 57, 63},
			[]int{16, 24, 18, 21, 21, 18, 21, 18, 34, 37, 40, 38, 37, 41, 34, 35}},
		{"l1-rerouted", Options{Dim: 8, Disks: 16, Metric: Manhattan, Replication: 1}, 2,
			[]int{121, 99, 145, 195, 136, 111, 145, 150},
			[]int{105, 83, 129, 179, 120, 95, 129, 134},
			[]int{47, 52, 0, 94, 47, 47, 47, 47, 71, 72, 73, 77, 78, 75, 74, 73}},
	} {
		ix, err := Open(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Build(rawPoints(3000, 8, 21)); err != nil {
			t.Fatal(err)
		}
		if tc.fail >= 0 {
			if err := ix.FailDisk(tc.fail); err != nil {
				t.Fatal(err)
			}
		}
		var queries [][]float64
		for _, q := range data.Uniform(8, 8, 22) {
			queries = append(queries, q)
		}
		_, bs, err := ix.BatchKNN(queries, 10)
		if err != nil {
			t.Fatal(err)
		}
		var searchPages, totalPages []int
		for _, qs := range bs.PerQuery {
			searchPages = append(searchPages, qs.SearchPages)
			totalPages = append(totalPages, qs.TotalPages)
		}
		if !reflect.DeepEqual(searchPages, tc.searchPages) || !reflect.DeepEqual(totalPages, tc.totalPages) ||
			!reflect.DeepEqual(bs.PagesPerDisk, tc.pagesPerDisk) || bs.TotalPages != sum(tc.totalPages) {
			t.Errorf("%s: batch search pages %v, total pages %v, pages per disk %v (total %d)\nwant %v, %v, %v",
				tc.name, searchPages, totalPages, bs.PagesPerDisk, bs.TotalPages, tc.searchPages, tc.totalPages, tc.pagesPerDisk)
		}
		for i, q := range queries {
			_, st, err := ix.KNN(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			if st.TotalPages != tc.totalPages[i] || !reflect.DeepEqual(st.PagesPerDisk, bs.PerQuery[i].PagesPerDisk) {
				t.Errorf("%s: KNN %d read %d pages %v, its batch item %d %v",
					tc.name, i, st.TotalPages, st.PagesPerDisk, tc.totalPages[i], bs.PerQuery[i].PagesPerDisk)
			}
		}
	}
}

// BenchmarkKNNAccounting times the page-accounting stage of one k-NN
// query alone (the NN-sphere of the 10th neighbor over 16 disks plus the
// sequential baseline), beside the whole-query BenchmarkKNNSharedBound.
func BenchmarkKNNAccounting(b *testing.B) {
	const dim, disks, n, k = 8, 16, 100000, 10
	ix, err := Open(Options{Dim: dim, Disks: disks, Baseline: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := ix.Build(rawPoints(n, dim, 61)); err != nil {
		b.Fatal(err)
	}
	queries := uniformPoints(64, dim, 62)
	regions := make([]*xtree.Region, len(queries))
	v := ix.pub.Load()
	r := &run{ix: ix, ctx: context.Background(), v: v, m: ix.metric(), routes: healthyPlan(v)}
	for i, q := range queries {
		res, _, err := ix.KNN(q, k)
		if err != nil {
			b.Fatal(err)
		}
		regions[i] = r.sphere(q, res[k-1].Dist)
	}
	b.ReportAllocs()
	b.ResetTimer()
	pages := 0
	for i := 0; i < b.N; i++ {
		var qs QueryStats
		refs := r.pageRefs(regions[i%len(regions)], nil, &qs)
		r.baselineCost(regions[i%len(regions)], &qs)
		pages += len(refs)
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages/query")
}

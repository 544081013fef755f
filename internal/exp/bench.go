package exp

// The benchmark-regression harness: reproducible wall-clock and
// page-cost measurements of the three query paths, emitted as the
// machine-readable BENCH_parsearch.json that CI diffs against the
// committed baseline. Unlike the figure experiments (simulated disk
// time), these measure real ns/op of the engine code, so thresholds
// are generous; the page counts and the balance coefficient are
// deterministic and tighten the comparison.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"parsearch"
	"parsearch/client"
	"parsearch/coord"
	"parsearch/internal/data"
	"parsearch/server"
)

// BenchProfile sizes a benchmark run. Reps runs each workload several
// times and keeps the fastest (best-of), damping scheduler noise.
// Packed builds the measured indexes with Options.Packed (contiguous
// float32 leaf slabs and batched distance kernels).
type BenchProfile struct {
	Name    string `json:"name"`
	Points  int    `json:"points"`
	Queries int    `json:"queries"`
	K       int    `json:"k"`
	Reps    int    `json:"reps"`
	Packed  bool   `json:"packed,omitempty"`
}

// BenchProfiles are the named run sizes: "short" for the per-PR CI
// gate, "full" for the recorded EXPERIMENTS.md numbers, "scale" the
// million-point packed-storage run whose latency percentiles gate the
// slab kernels at a size where cache behavior actually shows.
var BenchProfiles = map[string]BenchProfile{
	"short": {Name: "short", Points: 6000, Queries: 48, K: 10, Reps: 3},
	"full":  {Name: "full", Points: 40000, Queries: 200, K: 10, Reps: 5},
	"scale": {Name: "scale", Points: 1_000_000, Queries: 32, K: 10, Reps: 2, Packed: true},
}

// BenchDisks is the disk configuration the harness measures — the
// paper's largest array.
const BenchDisks = 16

// RecallFloor is the minimum mean recall CompareBench accepts from any
// workload that reports one. The documented default knobs (ε=0.1,
// recall_target=0.9) comfortably clear it on uniform data; dipping
// below means the approximate tier broke its contract.
const RecallFloor = 0.95

// benchDim matches the uniform-data experiments (see uniformDim).
const benchDim = uniformDim

// BenchWorkload is one measured workload of a bench run.
type BenchWorkload struct {
	// Name identifies the workload: knn16, range16, batch16.
	Name string `json:"name"`
	// NsPerOp is the best-of-reps wall-clock time per query (per batch
	// item for the batch workload).
	NsPerOp int64 `json:"ns_per_op"`
	// PagesPerQuery is the deterministic average page cost.
	PagesPerQuery float64 `json:"pages_per_query"`
	// Balance is the per-disk balance coefficient (mean/max of
	// per-disk page totals, 1.0 = perfectly even) over the whole
	// workload, read from the metrics registry.
	Balance float64 `json:"balance"`
	// SearchPagesPerQuery is the average number of tree pages the k-NN
	// searches actually visited; SavedPagesPerQuery is the average
	// number they still had queued when the cooperative cross-disk
	// bound stopped them (zero for range queries; see
	// parsearch.QueryStats.PagesSavedByBound). Both are
	// timing-dependent on the parallel path and deterministic on the
	// batch path (see CompareBench).
	SearchPagesPerQuery float64 `json:"search_pages_per_query,omitempty"`
	SavedPagesPerQuery  float64 `json:"saved_pages_per_query,omitempty"`
	// LatencyP50Ns/P90Ns/P99Ns are wall-clock latency percentiles over
	// every query of the workload (all reps pooled), read from the
	// engine's QueryWallNs histogram. The histogram has power-of-two
	// buckets, so each value is the upper edge of the bucket holding the
	// percentile observation — coarse, but stable, which is what a
	// regression gate wants.
	LatencyP50Ns int64 `json:"latency_p50_ns,omitempty"`
	LatencyP90Ns int64 `json:"latency_p90_ns,omitempty"`
	LatencyP99Ns int64 `json:"latency_p99_ns,omitempty"`
	// Recall is the mean fraction of the exact k-NN result set the
	// workload's answers recovered, measured against the exact engine on
	// the same queries. Only the approximate rows (knn16-eps01,
	// knn16-lsh) set it; CompareBench gates it against a hard floor.
	Recall float64 `json:"recall,omitempty"`
}

// BenchReport is the schema of BENCH_parsearch.json.
type BenchReport struct {
	Profile    string          `json:"profile"`
	Disks      int             `json:"disks"`
	Dim        int             `json:"dim"`
	Points     int             `json:"points"`
	Queries    int             `json:"queries"`
	K          int             `json:"k"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Workloads  []BenchWorkload `json:"workloads"`
}

// Workload returns the named workload, or nil.
func (r *BenchReport) Workload(name string) *BenchWorkload {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// RunBench measures the knn/range/batch workloads of the profile on a
// BenchDisks-disk index and returns the report.
func RunBench(p BenchProfile, seed int64) (BenchReport, error) {
	if p.Points < 1 || p.Queries < 1 || p.K < 1 || p.Reps < 1 {
		return BenchReport{}, fmt.Errorf("exp: invalid bench profile %+v", p)
	}
	ix, err := parsearch.Open(parsearch.Options{Dim: benchDim, Disks: BenchDisks, Packed: p.Packed})
	if err != nil {
		return BenchReport{}, err
	}
	// A second index carries the LSH pre-filter for the approximate rows;
	// the exact rows never touch it, so the filter's build cost and its
	// recall behavior are isolated from the exact rows.
	ixLSH, err := parsearch.Open(parsearch.Options{
		Dim: benchDim, Disks: BenchDisks, Packed: p.Packed, LSH: true})
	if err != nil {
		return BenchReport{}, err
	}
	pts := data.Uniform(p.Points, benchDim, seed)
	raw := make([][]float64, len(pts))
	for i := range pts {
		raw[i] = pts[i]
	}
	if err := ix.Build(raw); err != nil {
		return BenchReport{}, err
	}
	if err := ixLSH.Build(raw); err != nil {
		return BenchReport{}, err
	}
	queries := make([][]float64, p.Queries)
	for i, q := range data.Uniform(p.Queries, benchDim, seed+1) {
		queries[i] = q
	}
	// Range boxes sized to select a small fraction of the space.
	boxes := make([][2][]float64, p.Queries)
	for i, c := range data.Uniform(p.Queries, benchDim, seed+2) {
		lo, hi := make([]float64, benchDim), make([]float64, benchDim)
		for j := range lo {
			lo[j], hi[j] = c[j]-0.2, c[j]+0.2
		}
		boxes[i] = [2][]float64{lo, hi}
	}

	// The serving row runs the same k-NN workload through the full HTTP
	// path — decode, admission, engine, JSON encode — over a loopback
	// listener, so the report tracks serving overhead next to the
	// library numbers. Coalescing is disabled: a serial driver would
	// only measure the coalescing window, not the serving cost.
	hsrv, err := server.New(ix, server.Config{DisableCoalescing: true})
	if err != nil {
		return BenchReport{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return BenchReport{}, err
	}
	hs := &http.Server{Handler: hsrv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	cl := client.New("http://" + ln.Addr().String())

	// The coord row runs the k-NN workload through the multi-node path:
	// three shard daemons (all full replicas — here three HTTP servers
	// over the same engine, which models replicas exactly because builds
	// are deterministic) under a scatter-gather coordinator, so the
	// report tracks fan-out, merge, and the cross-network kth-distance
	// bound next to the single-server row.
	shardURLs := []string{"http://" + ln.Addr().String()}
	for i := 0; i < 2; i++ {
		sln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return BenchReport{}, err
		}
		shs := &http.Server{Handler: hsrv.Handler()}
		go func() { _ = shs.Serve(sln) }()
		defer shs.Close()
		shardURLs = append(shardURLs, "http://"+sln.Addr().String())
	}
	co, err := coord.New(coord.Config{
		Shards: shardURLs, Dim: benchDim, Disks: BenchDisks,
	})
	if err != nil {
		return BenchReport{}, err
	}

	// The wal-ingest row measures the durable mutation path — WAL
	// framing, CRC, group commit — per insert. The "os" sync policy
	// keeps the number tracking engine code rather than the machine's
	// fsync latency (which the regression gate could not threshold).
	walDir, err := os.MkdirTemp("", "parsearch-bench-wal-")
	if err != nil {
		return BenchReport{}, err
	}
	defer os.RemoveAll(walDir)
	dix, err := parsearch.Open(parsearch.Options{
		Dim: benchDim, Disks: BenchDisks,
		Durable: true, Dir: walDir, WALSync: parsearch.WALSyncOS,
	})
	if err != nil {
		return BenchReport{}, err
	}
	ingest := data.Uniform(p.Queries, benchDim, seed+3)
	ingestNext := 0

	type benchCost struct {
		pages, search, saved int
		recallSum            float64
		recallN              int
	}

	// Ground truth for the approximate rows: the exact engine's answers
	// on the same queries (the equivalence battery pins those to a
	// linear scan). Computed once, outside any timed rep.
	truth := make([]map[int]bool, p.Queries)
	for i, q := range queries {
		res, _, err := ix.KNN(q, p.K)
		if err != nil {
			return BenchReport{}, err
		}
		ids := make(map[int]bool, len(res))
		for _, n := range res {
			ids[n.ID] = true
		}
		truth[i] = ids
	}
	recallOf := func(i int, res []parsearch.Neighbor) float64 {
		if len(truth[i]) == 0 {
			return 1
		}
		hits := 0
		for _, n := range res {
			if truth[i][n.ID] {
				hits++
			}
		}
		return float64(hits) / float64(len(truth[i]))
	}
	approxRun := func(on *parsearch.Index, a parsearch.Approx) (benchCost, error) {
		var c benchCost
		for i, q := range queries {
			res, stats, err := on.KNNApprox(q, p.K, a)
			if err != nil {
				return benchCost{}, err
			}
			c.pages += stats.TotalPages
			c.search += stats.SearchPages
			c.saved += stats.PagesSavedByBound
			c.recallSum += recallOf(i, res)
			c.recallN++
		}
		return c, nil
	}

	// The mixed-* rows measure the live-mutation story: the 95% query /
	// 5% ingest serving mix, alone and with an incremental reorganize in
	// flight. They run on a dedicated durable index so the mutations
	// cannot disturb the other rows' trees, capped in size so the scale
	// profile doesn't pay a million-point durable build for a
	// serving-overlap measurement.
	mixPoints := p.Points
	if mixPoints > 20000 {
		mixPoints = 20000
	}
	mixDir, err := os.MkdirTemp("", "parsearch-bench-mix-")
	if err != nil {
		return BenchReport{}, err
	}
	defer os.RemoveAll(mixDir)
	mix, err := parsearch.Open(parsearch.Options{
		Dim: benchDim, Disks: BenchDisks, Packed: p.Packed,
		Durable: true, Dir: mixDir, WALSync: parsearch.WALSyncOS,
		QuantileSplits: true,
	})
	if err != nil {
		return BenchReport{}, err
	}
	if err := mix.Build(raw[:mixPoints]); err != nil {
		return BenchReport{}, err
	}
	// The ingested points are clustered (scaled toward the origin):
	// sustained skew drifts the quantile splits, which is what gives the
	// in-flight reorganize real bucket splitting to do.
	mixPool := data.Uniform(4096, benchDim, seed+4)
	for _, pt := range mixPool {
		for j := range pt {
			pt[j] *= 0.2
		}
	}
	mixNext := 0
	mixInsert := func() error {
		_, err := mix.Insert(mixPool[mixNext%len(mixPool)])
		mixNext++
		return err
	}
	mixedLoop := func() (benchCost, error) {
		var c benchCost
		for i := 0; i < p.Queries; i++ {
			if i%20 == 19 { // every 20th op mutates: the 95/5 serving mix
				if err := mixInsert(); err != nil {
					return benchCost{}, err
				}
				continue
			}
			_, stats, err := mix.KNN(queries[i], p.K)
			if err != nil {
				return benchCost{}, err
			}
			c.pages += stats.TotalPages
			c.search += stats.SearchPages
			c.saved += stats.PagesSavedByBound
		}
		return c, nil
	}

	report := BenchReport{
		Profile: p.Name, Disks: BenchDisks, Dim: benchDim,
		Points: p.Points, Queries: p.Queries, K: p.K,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	knnRun := func() (benchCost, error) {
		var c benchCost
		for _, q := range queries {
			_, stats, err := ix.KNN(q, p.K)
			if err != nil {
				return benchCost{}, err
			}
			c.pages += stats.TotalPages
			c.search += stats.SearchPages
			c.saved += stats.PagesSavedByBound
		}
		return c, nil
	}
	type workload struct {
		name string
		ix   *parsearch.Index
		ops  int // ns/op divisor per rep
		run  func() (benchCost, error)
	}
	workloads := []workload{
		{"knn16", ix, p.Queries, knnRun},
		{"knn16-eps01", ix, p.Queries, func() (benchCost, error) {
			// ε-termination at the default documented knob. Page costs
			// are timing-dependent (the ε check composes with the shared
			// bound), so CompareBench gates this row on ns/op and recall
			// only.
			return approxRun(ix, parsearch.Approx{Epsilon: 0.1})
		}},
		{"knn16-lsh", ixLSH, p.Queries, func() (benchCost, error) {
			// Multi-probe LSH pre-filter at recall_target 0.9, exact
			// distances (ε=0): measures the probe-ordering tier alone.
			return approxRun(ixLSH, parsearch.Approx{RecallTarget: 0.9})
		}},
		{"range16", ix, p.Queries, func() (benchCost, error) {
			var c benchCost
			for _, b := range boxes {
				_, stats, err := ix.RangeQuery(b[0], b[1])
				if err != nil {
					return benchCost{}, err
				}
				c.pages += stats.TotalPages
				c.search += stats.SearchPages
			}
			return c, nil
		}},
		{"batch16", ix, p.Queries, func() (benchCost, error) {
			_, stats, err := ix.BatchKNN(queries, p.K)
			if err != nil {
				return benchCost{}, err
			}
			return benchCost{pages: stats.TotalPages, search: stats.SearchPages,
				saved: stats.PagesSavedByBound}, nil
		}},
		{"server-knn16", ix, p.Queries, func() (benchCost, error) {
			// The client discards per-query stats, so the page costs
			// come from the registry delta around the rep.
			before := ix.Metrics()
			for _, q := range queries {
				if _, err := cl.KNN(context.Background(), q, p.K); err != nil {
					return benchCost{}, err
				}
			}
			after := ix.Metrics()
			return benchCost{
				pages:  int(after.PagesRead - before.PagesRead),
				search: int(after.SearchPages - before.SearchPages),
				saved:  int(after.PagesSavedByBound - before.PagesSavedByBound),
			}, nil
		}},
		{"coord-knn16", ix, p.Queries, func() (benchCost, error) {
			// The coordinator's stats aggregate the per-shard executed
			// pages (deterministic: each group charges the sphere of
			// min(its k-th distance, the shipped bound)); saved counts the
			// phase-2 pages attributed to the shipped remote bound — its
			// split against the shards' own local tightening is
			// timing-dependent, so only the executed total is gated
			// exactly.
			var c benchCost
			for _, q := range queries {
				_, st, err := co.KNN(context.Background(), q, p.K)
				if err != nil {
					return benchCost{}, err
				}
				c.pages += st.TotalPages
				c.saved += st.PagesSavedByRemoteBound
			}
			return c, nil
		}},
		{"wal-ingest", dix, 16 * p.Queries, func() (benchCost, error) {
			// Inserts accumulate across reps (each insert is a fresh ID);
			// the cost model is per-mutation, not per-table-size, at
			// these scales. The op count is a large multiple of the
			// query count: a single insert is microseconds, so the rep
			// must amortize timer granularity and page-cache variance
			// for the regression gate to see engine cost, not jitter.
			for i := 0; i < 16*p.Queries; i++ {
				if _, err := dix.Insert(ingest[ingestNext%len(ingest)]); err != nil {
					return benchCost{}, err
				}
				ingestNext++
			}
			return benchCost{}, nil
		}},
		{"mixed-serve16", mix, p.Queries, func() (benchCost, error) {
			return mixedLoop()
		}},
		{"mixed-reorg16", mix, p.Queries, func() (benchCost, error) {
			// Drift burst: enough clustered inserts to overload buckets,
			// so the reorganize running under the serving mix has real
			// splitting to do (at the tiny test scale it may legitimately
			// find nothing — the row still measures the overlap).
			for i := 0; i < mixPoints/4; i++ {
				if err := mixInsert(); err != nil {
					return benchCost{}, err
				}
			}
			reorgDone := make(chan error, 1)
			go func() {
				_, err := mix.ReorganizeStats()
				reorgDone <- err
			}()
			c, err := mixedLoop()
			if rerr := <-reorgDone; err == nil && rerr != nil {
				err = rerr
			}
			return c, err
		}},
	}

	for _, w := range workloads {
		// The balance coefficient comes from the registry's cumulative
		// per-disk pages, reset per workload so workloads don't bleed
		// into each other.
		w.ix.ResetMetrics()
		best := time.Duration(0)
		var cost benchCost
		for rep := 0; rep < p.Reps; rep++ {
			start := time.Now()
			c, err := w.run()
			elapsed := time.Since(start)
			if err != nil {
				return BenchReport{}, fmt.Errorf("exp: bench %s: %w", w.name, err)
			}
			cost = c
			if rep == 0 || elapsed < best {
				best = elapsed
			}
		}
		m := w.ix.Metrics()
		row := BenchWorkload{
			Name:                w.name,
			NsPerOp:             best.Nanoseconds() / int64(w.ops),
			PagesPerQuery:       float64(cost.pages) / float64(w.ops),
			Balance:             m.Balance,
			SearchPagesPerQuery: float64(cost.search) / float64(w.ops),
			SavedPagesPerQuery:  float64(cost.saved) / float64(w.ops),
			LatencyP50Ns:        m.QueryWallNs.Quantile(0.50),
			LatencyP90Ns:        m.QueryWallNs.Quantile(0.90),
			LatencyP99Ns:        m.QueryWallNs.Quantile(0.99),
		}
		if cost.recallN > 0 {
			row.Recall = cost.recallSum / float64(cost.recallN)
		}
		report.Workloads = append(report.Workloads, row)
	}
	return report, nil
}

// CompareBench diffs a fresh report against a baseline: a workload
// regresses when its ns/op grows by more than nsThreshold (fractional,
// e.g. 0.25 = +25%) or its deterministic page cost grows at all beyond
// rounding. Workloads present in only one report are ignored (the
// suite may grow). It returns a line per regression.
//
// Search-page costs get a looser check than executed pages: on the
// parallel k-NN path the pages a shard visits before the shared bound
// stops it depend on goroutine timing, so the per-run visited count may
// wander a little. It still must not grow past the baseline by more
// than 10% + 1 page. That the bound never costs pages and never changes
// an answer is pinned by tests that run the independent search beside
// the shared one (internal/knn TestHSSharedMatchesHS, the root
// package's TestSharedBoundEquivalenceBattery), not by this gate.
func CompareBench(baseline, current BenchReport, nsThreshold float64) []string {
	var regressions []string
	for _, b := range baseline.Workloads {
		c := current.Workload(b.Name)
		if c == nil || b.NsPerOp <= 0 {
			continue
		}
		// The wal-* rows time the durable mutation path, which is
		// write()-syscall bound: per-op cost varies with filesystem and
		// page-cache state far more than the compute-bound query rows.
		// Triple the threshold — still tight enough to flag a gross
		// regression (an accidental per-insert fsync under the "os"
		// policy is a 10-100x step), loose enough not to flake. The
		// mixed-* rows get the same slack: they mutate through the WAL
		// and (in the reorganize variant) race a restructuring pass, so
		// both their wall clock and their page costs are legitimately
		// run-dependent — the page gates are skipped for them entirely.
		nsT := nsThreshold
		mixed := strings.HasPrefix(b.Name, "mixed-")
		if mixed || strings.HasPrefix(b.Name, "wal-") {
			nsT = 3 * nsThreshold
		}
		// The approximate rows' page costs depend on when the ε check or
		// the LSH filter fires relative to cross-disk bound tightening —
		// timing, not determinism — so they get the ns/op and recall
		// gates only.
		if b.Recall > 0 || c.Recall > 0 {
			mixed = true
		}
		if ratio := float64(c.NsPerOp) / float64(b.NsPerOp); ratio > 1+nsT {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %d ns/op vs baseline %d (%.0f%% > %.0f%% threshold)",
				b.Name, c.NsPerOp, b.NsPerOp, (ratio-1)*100, nsT*100))
		}
		if !mixed && c.PagesPerQuery > b.PagesPerQuery*1.01+0.5 {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.1f pages/query vs baseline %.1f (page cost is deterministic)",
				b.Name, c.PagesPerQuery, b.PagesPerQuery))
		}
		if !mixed && c.SearchPagesPerQuery > b.SearchPagesPerQuery*1.10+1 {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.1f search pages/query vs baseline %.1f (bound pruning got weaker)",
				b.Name, c.SearchPagesPerQuery, b.SearchPagesPerQuery))
		}
		// The latency percentiles live on power-of-two bucket edges, so
		// they only move in 2x steps: allow one step of wall-clock noise
		// and flag anything beyond (> 4x means at least two buckets up).
		if b.LatencyP99Ns > 0 && c.LatencyP99Ns > 4*b.LatencyP99Ns {
			regressions = append(regressions, fmt.Sprintf(
				"%s: p99 latency %d ns vs baseline %d ns (more than two histogram buckets up)",
				b.Name, c.LatencyP99Ns, b.LatencyP99Ns))
		}
	}
	// RecallFloor is absolute, not baseline-relative: an approximate row
	// whose measured recall dips below it fails regardless of what the
	// baseline recorded — approximation may trade pages for recall, but
	// never below the documented floor.
	for _, c := range current.Workloads {
		if c.Recall != 0 && c.Recall < RecallFloor {
			regressions = append(regressions, fmt.Sprintf(
				"%s: recall %.3f below the %.2f floor", c.Name, c.Recall, RecallFloor))
		}
	}
	return regressions
}

// MarshalBenchReport renders the report as the committed JSON format
// (indented, trailing newline).
func MarshalBenchReport(r BenchReport) ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

package exp

// The cost ledger: the deterministic page costs of the query paths —
// the paper's own metric, pages intersecting the NN-sphere per disk —
// emitted as the machine-readable BENCH_parsearch.json that CI compares
// against the committed baseline. There is no clock in it: a run on any
// machine at any core count reproduces the executed pages and the
// balance coefficient digit for digit, so the comparison is exact and a
// difference is the code's, never the runner's. Time is measured by
// bench/ (see BENCHMARK.json), on paired runs.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"

	"parsearch"
	"parsearch/coord"
	"parsearch/internal/data"
	"parsearch/server"
)

// BenchProfile sizes a ledger run.
type BenchProfile struct {
	Name    string `json:"name"`
	Points  int    `json:"points"`
	Queries int    `json:"queries"`
	K       int    `json:"k"`
}

// BenchProfiles are the named run sizes: "short" for the per-PR CI
// gate, "full" for the recorded EXPERIMENTS.md numbers, "scale" the
// million-point run.
var BenchProfiles = map[string]BenchProfile{
	"short": {Name: "short", Points: 6000, Queries: 48, K: 10},
	"full":  {Name: "full", Points: 40000, Queries: 200, K: 10},
	"scale": {Name: "scale", Points: 1_000_000, Queries: 32, K: 10},
}

// BenchDisks is the disk configuration the harness measures — the
// paper's largest array.
const BenchDisks = 16

// RecallFloor is the minimum mean recall CompareBench accepts from any
// workload that reports one. The documented default knob (ε=0.1)
// comfortably clears it on uniform data; dipping below means the
// approximate tier broke its contract.
const RecallFloor = 0.95

// benchDim matches the uniform-data experiments (see uniformDim).
const benchDim = uniformDim

// BenchWorkload is one row of the ledger. Every value is an average
// over the profile's queries.
type BenchWorkload struct {
	// Name identifies the workload: knn16, knn16-eps01, range16,
	// batch16, coord-knn16.
	Name string `json:"name"`
	// PagesPerQuery is the deterministic average page cost.
	PagesPerQuery float64 `json:"pages_per_query"`
	// Balance is the per-disk balance coefficient (mean/max of
	// per-disk page totals, 1.0 = perfectly even) over the whole
	// workload, read from the metrics registry. Deterministic.
	Balance float64 `json:"balance"`
	// SearchPagesPerQuery is the average number of tree pages the
	// searches actually visited, deterministic on every row;
	// SavedPagesPerQuery is the average number the k-NN searches still
	// had queued when they stopped (zero for range queries; see
	// parsearch.QueryStats.PagesSavedByBound).
	SearchPagesPerQuery float64 `json:"search_pages_per_query,omitempty"`
	SavedPagesPerQuery  float64 `json:"saved_pages_per_query,omitempty"`
	// Recall is the mean fraction of the exact k-NN result set the
	// workload's answers recovered, measured against the exact engine on
	// the same queries. Only the approximate row (knn16-eps01) sets it;
	// CompareBench gates it against a hard floor.
	Recall float64 `json:"recall,omitempty"`
}

// BenchReport is the schema of BENCH_parsearch.json.
type BenchReport struct {
	Profile   string          `json:"profile"`
	Disks     int             `json:"disks"`
	Dim       int             `json:"dim"`
	Points    int             `json:"points"`
	Queries   int             `json:"queries"`
	K         int             `json:"k"`
	Workloads []BenchWorkload `json:"workloads"`
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

// RunBench runs the ledger's workloads once each on a BenchDisks-disk
// index of the profile's size and returns the report.
func RunBench(p BenchProfile, seed int64) (BenchReport, error) {
	if p.Points < 1 || p.Queries < 1 || p.K < 1 {
		return BenchReport{}, fmt.Errorf("exp: invalid bench profile %+v", p)
	}
	ix, err := parsearch.Open(parsearch.Options{Dim: benchDim, Disks: BenchDisks})
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

	// The coord row runs the k-NN workload through the multi-node path:
	// a scatter-gather coordinator over three shard groups, each served
	// by a full replica — here one HTTP front over the same engine named
	// three times, which models replicas exactly because builds are
	// deterministic — so the ledger tracks what each group executes when
	// every group searches unbounded, in one round.
	hsrv, err := server.New(ix, server.Config{})
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
	shard := "http://" + ln.Addr().String()
	co, err := coord.New(coord.Config{
		Shards: []string{shard, shard, shard}, Dim: benchDim, Disks: BenchDisks,
	})
	if err != nil {
		return BenchReport{}, err
	}

	type benchCost struct {
		pages, search, saved int
		recallSum            float64
	}
	// Ground truth for the approximate row: the exact engine's answers on
	// the same queries (the equivalence battery pins those to a linear
	// scan).
	truth := make([]map[int]bool, p.Queries)
	for i, q := range queries {
		res, _, err := ix.KNN(q, p.K)
		if err != nil {
			return BenchReport{}, err
		}
		truth[i] = make(map[int]bool, len(res))
		for _, n := range res {
			truth[i][n.ID] = true
		}
	}
	// knnRun is the loop of both library k-NN rows (ε = 0 is the exact
	// query, whose recall of 1 the report leaves out).
	knnRun := func(a parsearch.Approx) (benchCost, error) {
		var c benchCost
		for i, q := range queries {
			res, stats, err := ix.KNNApprox(q, p.K, a)
			if err != nil {
				return benchCost{}, err
			}
			c.pages += stats.TotalPages
			c.search += stats.SearchPages
			c.saved += stats.PagesSavedByBound
			if a.Epsilon == 0 {
				continue
			}
			hits := 0
			for _, n := range res {
				if truth[i][n.ID] {
					hits++
				}
			}
			c.recallSum += float64(hits) / float64(len(truth[i]))
		}
		return c, nil
	}

	workloads := []struct {
		name string
		run  func() (benchCost, error)
	}{
		{"knn16", func() (benchCost, error) { return knnRun(parsearch.Approx{}) }},
		// ε-termination at the documented knob.
		{"knn16-eps01", func() (benchCost, error) { return knnRun(parsearch.Approx{Epsilon: 0.1}) }},
		{"range16", func() (benchCost, error) {
			var c benchCost
			for _, b := range boxes {
				_, stats, err := ix.RangeQueryContext(context.Background(), b[0], b[1])
				if err != nil {
					return benchCost{}, err
				}
				c.pages += stats.TotalPages
				c.search += stats.SearchPages
			}
			return c, nil
		}},
		{"batch16", func() (benchCost, error) {
			_, stats, err := ix.BatchKNNContext(context.Background(), queries, p.K)
			if err != nil {
				return benchCost{}, err
			}
			return benchCost{pages: stats.TotalPages, search: stats.SearchPages,
				saved: stats.PagesSavedByBound}, nil
		}},
		{"coord-knn16", func() (benchCost, error) {
			// The coordinator's stats aggregate the per-shard executed
			// pages (deterministic: each group charges the sphere of its
			// own k-th distance); saved counts the pages a shipped bound
			// pruned, 0 since no round ships one.
			var c benchCost
			for _, q := range queries {
				_, st, err := co.KNNApprox(context.Background(), q, p.K, parsearch.Approx{})
				if err != nil {
					return benchCost{}, err
				}
				c.pages += st.TotalPages
				c.saved += st.PagesSavedByRemoteBound
			}
			return c, nil
		}},
	}

	report := BenchReport{
		Profile: p.Name, Disks: BenchDisks, Dim: benchDim,
		Points: p.Points, Queries: p.Queries, K: p.K,
	}
	n := float64(p.Queries)
	for _, w := range workloads {
		// The balance coefficient comes from the registry's cumulative
		// per-disk pages, reset per workload so workloads don't bleed
		// into each other.
		ix.ResetMetrics()
		cost, err := w.run()
		if err != nil {
			return BenchReport{}, fmt.Errorf("exp: bench %s: %w", w.name, err)
		}
		report.Workloads = append(report.Workloads, BenchWorkload{
			Name:                w.name,
			PagesPerQuery:       float64(cost.pages) / n,
			Balance:             ix.Metrics().Balance,
			SearchPagesPerQuery: float64(cost.search) / n,
			SavedPagesPerQuery:  float64(cost.saved) / n,
			Recall:              cost.recallSum / n,
		})
	}
	return report, nil
}

// CompareBench diffs a fresh report against a baseline and returns a
// line per difference; none means the run reproduces the baseline. The
// deterministic columns — executed pages, balance and search pages on
// every row — must equal the baseline's to 1e-9 in either direction: a
// change that moves one on purpose regenerates the baseline and says by
// how much. A baseline row the run no longer produces and a baseline of
// another profile are differences too (the gate cannot pass by not
// measuring); rows only in the current report are fine, the suite may
// grow. That the one search queue never costs pages and never changes
// an answer against independent per-disk searches is pinned by tests
// (the root package's TestOneQueueEquivalenceBattery), not by this
// gate. Saved pages are reported, never gated: they estimate pages no
// search read.
func CompareBench(baseline, current BenchReport) []string {
	if baseline.Profile != current.Profile {
		return []string{fmt.Sprintf("baseline profile %q does not match run profile %q",
			baseline.Profile, current.Profile)}
	}
	var diffs []string
	exact := func(row, column string, c, b float64) {
		if math.Abs(c-b) > 1e-9 {
			diffs = append(diffs, fmt.Sprintf("%s: %s %v vs baseline %v (deterministic)", row, column, c, b))
		}
	}
	for _, b := range baseline.Workloads {
		c := current.Workload(b.Name)
		if c == nil {
			diffs = append(diffs, fmt.Sprintf("%s: in the baseline, missing from this run", b.Name))
			continue
		}
		exact(b.Name, "pages/query", c.PagesPerQuery, b.PagesPerQuery)
		exact(b.Name, "balance", c.Balance, b.Balance)
		exact(b.Name, "search pages/query", c.SearchPagesPerQuery, b.SearchPagesPerQuery)
	}
	// RecallFloor is absolute, not baseline-relative: an approximate row
	// whose measured recall dips below it fails regardless of what the
	// baseline recorded — approximation may trade pages for recall, but
	// never below the documented floor.
	for _, c := range current.Workloads {
		b := baseline.Workload(c.Name)
		if (c.Recall != 0 || b != nil && b.Recall != 0) && c.Recall < RecallFloor {
			diffs = append(diffs, fmt.Sprintf(
				"%s: recall %.3f below the %.2f floor", c.Name, c.Recall, RecallFloor))
		}
	}
	return diffs
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

package exp

import (
	"context"
	"fmt"
	"math/rand"

	"parsearch"
	"parsearch/internal/data"
)

func init() {
	register(Experiment{
		ID: "ext-partialmatch", Figure: "extension",
		Title: "Partial-match queries: the workload DM/FX/Hilbert were designed for",
		Run:   runExtPartialMatch,
	})
	register(Experiment{
		ID: "ext-throughput", Figure: "extension",
		Title: "Query throughput under batch load (the paper's future-work metric)",
		Run:   runExtThroughput,
	})
}

// runExtPartialMatch compares the strategies on partial-match queries
// (exact values in a few dimensions, wildcards elsewhere), the query type
// the classic declusterings were designed for [DS 82, KP 88, FB 93]. On
// the binary quadrant grid of high-dimensional spaces even this home turf
// does not rescue them: FX degenerates to two disks and DM to d+1.
func runExtPartialMatch(cfg Config) Result {
	cfg.validate()
	pts, _ := uniformWorkload(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed + 2))

	// Queries: 3 specified dimensions with a generous tolerance.
	type pm struct {
		spec []float64
	}
	queries := make([]pm, cfg.Queries)
	for i := range queries {
		spec := make([]float64, uniformDim)
		for j := range spec {
			spec[j] = parsearch.Wildcard
		}
		for _, j := range rng.Perm(uniformDim)[:3] {
			spec[j] = rng.Float64()
		}
		queries[i] = pm{spec: spec}
	}

	kinds := []parsearch.Kind{parsearch.NearOptimal, parsearch.Hilbert, parsearch.DiskModulo, parsearch.FX}
	maxS := Series{Name: "maxPages"}
	speedS := Series{Name: "speedup"}
	var x []float64
	notes := []string{fmt.Sprintf("N = %d uniform points, d = %d, %d disks; 3 specified dims, eps 0.05",
		len(pts), uniformDim, maxDisks)}
	for i, kind := range kinds {
		ix := build(parsearch.Options{Dim: uniformDim, Disks: maxDisks, Kind: kind}, pts)
		var sumMax, sumSpeed float64
		for _, q := range queries {
			_, stats, err := ix.PartialMatchContext(context.Background(), q.spec, 0.05)
			if err != nil {
				panic(fmt.Sprintf("exp: %v", err))
			}
			sumMax += float64(stats.MaxPages)
			sumSpeed += stats.Speedup
		}
		m := float64(len(queries))
		x = append(x, float64(i+1))
		maxS.Y = append(maxS.Y, sumMax/m)
		speedS.Y = append(speedS.Y, sumSpeed/m)
		notes = append(notes, fmt.Sprintf("%d: %s", i+1, kind))
	}
	notes = append(notes, "expected: near-optimal competitive even on the baselines' home-turf query type")
	return Result{
		ID: "ext-partialmatch", Title: "partial-match queries across strategies",
		XLabel: "strategy", X: x,
		Series: []Series{maxS, speedS},
		Notes:  notes,
	}
}

// runExtThroughput measures batch query throughput — the paper's closing
// remark names throughput-optimal declustering as future work. Under
// batch load the total work per disk matters rather than the per-query
// bottleneck, so even round robin balances well; the near-optimal
// strategy additionally keeps single-query latency low.
func runExtThroughput(cfg Config) Result {
	cfg.validate()
	pts, _ := uniformWorkload(cfg)
	queries := raw(data.Uniform(8*cfg.Queries, uniformDim, cfg.Seed+1))

	kinds := []parsearch.Kind{parsearch.NearOptimal, parsearch.Hilbert, parsearch.RoundRobin}
	qps := Series{Name: "queries/s"}
	util := Series{Name: "utilization"}
	var x []float64
	notes := []string{fmt.Sprintf("N = %d uniform points, d = %d, %d disks, batch of %d 10-NN queries",
		len(pts), uniformDim, maxDisks, len(queries))}
	for i, kind := range kinds {
		ix := build(parsearch.Options{Dim: uniformDim, Disks: maxDisks, Kind: kind}, pts)
		_, stats, err := ix.BatchKNNContext(context.Background(), queries, 10)
		if err != nil {
			panic(fmt.Sprintf("exp: %v", err))
		}
		x = append(x, float64(i+1))
		qps.Y = append(qps.Y, stats.QueriesPerSecond)
		util.Y = append(util.Y, stats.Utilization)
		notes = append(notes, fmt.Sprintf("%d: %s", i+1, kind))
	}
	notes = append(notes, "expected: high utilization for all balanced strategies; totals favor bucket-local layouts")
	return Result{
		ID: "ext-throughput", Title: "batch throughput across strategies",
		XLabel: "strategy", X: x,
		Series: []Series{qps, util},
		Notes:  notes,
	}
}

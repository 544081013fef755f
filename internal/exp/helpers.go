package exp

import (
	"fmt"

	"parsearch"
	"parsearch/internal/data"
	"parsearch/internal/knn"
	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// Standard workload parameters. The paper ran 16-dimensional data on up
// to 16 disks; the uniform-data experiments here use d=10 so that the
// laptop-scale point counts still give several pages per quadrant
// (N / 2^d >= a few pages), which the paper's multi-hundred-MByte data
// sets had at d=16; the real-data experiments use d=12 for the same
// reason. See DESIGN.md and EXPERIMENTS.md for the scaling rationale.
const (
	uniformDim  = 10
	uniformN    = 131072
	realDim     = 12
	realN       = 131072
	maxDisks    = 16
	fourierFams = 256
	textTopics  = 8
	queryJitter = 0.02
)

// diskSweep is the x axis of the speed-up experiments.
var diskSweep = []int{1, 2, 4, 8, 16}

// measurement is the average query cost over a query workload.
type measurement struct {
	MaxPages   float64 // pages on the bottleneck disk
	TotalPages float64 // pages over all disks
	SeqPages   float64 // pages of the sequential X-tree (baseline runs)
	ParTimeMS  float64 // simulated parallel search time
	BaseTimeMS float64 // simulated sequential search time (baseline runs)
	Speedup    float64 // BaselineSpeedup average (baseline runs)
}

// measure runs k-NN for every query and averages the cost statistics.
func measure(ix *parsearch.Index, queries [][]float64, k int) measurement {
	var m measurement
	for _, q := range queries {
		_, stats, err := ix.KNN(q, k)
		if err != nil {
			panic(fmt.Sprintf("exp: query failed: %v", err))
		}
		m.MaxPages += float64(stats.MaxPages)
		m.TotalPages += float64(stats.TotalPages)
		m.SeqPages += float64(stats.SeqPages)
		m.ParTimeMS += stats.ParallelTime * 1000
		m.BaseTimeMS += stats.BaselineTime * 1000
		m.Speedup += stats.BaselineSpeedup
	}
	n := float64(len(queries))
	m.MaxPages /= n
	m.TotalPages /= n
	m.SeqPages /= n
	m.ParTimeMS /= n
	m.BaseTimeMS /= n
	m.Speedup /= n
	return m
}

// build opens and fills an index, panicking on error (experiment
// configurations are static and must be valid).
func build(opts parsearch.Options, pts [][]float64) *parsearch.Index {
	ix, err := parsearch.Open(opts)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	if err := ix.Build(pts); err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return ix
}

// raw converts vec.Points to the public API's [][]float64 (same backing
// arrays).
func raw(pts []vec.Point) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = p
	}
	return out
}

// uniformWorkload returns the standard uniform data set and query points.
func uniformWorkload(cfg Config) (pts [][]float64, queries [][]float64) {
	n := cfg.scaled(uniformN)
	pts = raw(data.Uniform(n, uniformDim, cfg.Seed))
	queries = raw(data.Uniform(cfg.Queries, uniformDim, cfg.Seed+1))
	return pts, queries
}

// fourierWorkload returns the Fourier (CAD contour) data set with
// data-distributed query points.
func fourierWorkload(cfg Config, families int, jitter float64) (pts [][]float64, queries [][]float64) {
	n := cfg.scaled(realN)
	ps := data.Fourier(n, realDim, families, jitter, cfg.Seed)
	pts = raw(ps)
	queries = raw(data.QueriesFromData(ps, cfg.Queries, queryJitter, cfg.Seed+1))
	return pts, queries
}

// textWorkload returns the text-descriptor data set with data-distributed
// query points.
func textWorkload(cfg Config) (pts [][]float64, queries [][]float64) {
	n := cfg.scaled(realN)
	ps := data.Text(n, realDim, textTopics, cfg.Seed)
	pts = raw(ps)
	queries = raw(data.QueriesFromData(ps, cfg.Queries, queryJitter, cfg.Seed+1))
	return pts, queries
}

// searchTree finds the k nearest neighbors of q in the one tree t with the
// Hjaltason–Samet search the engine runs (knn.Search), under L2.
func searchTree(t *xtree.Tree, q vec.Point, k int) ([]knn.Result, knn.Accounting) {
	s := knn.Search{Q: q, K: k, M: vec.L2, Shrink: 1}
	ts := &s.Slots(1)[0]
	ts.Tree = t
	res := s.Run()
	return res, ts.Acc
}

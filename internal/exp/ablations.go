package exp

import (
	"fmt"

	"parsearch"
	"parsearch/internal/core"
	"parsearch/internal/data"
	"parsearch/internal/knn"
	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

func init() {
	register(Experiment{
		ID: "abl-knn", Figure: "ablation",
		Title: "HS vs. RKV page accesses on the sequential X-tree",
		Run:   runAblKNN,
	})
	register(Experiment{
		ID: "abl-indirect", Figure: "ablation",
		Title: "Value of the indirect-neighbor guarantee (col vs. direct-only coloring)",
		Run:   runAblIndirect,
	})
	register(Experiment{
		ID: "abl-fold", Figure: "ablation",
		Title: "Complement folding vs. naive modulo for arbitrary disk counts",
		Run:   runAblFold,
	})
	register(Experiment{
		ID: "abl-quantile", Figure: "ablation",
		Title: "Midpoint vs. quantile splits on skewed data",
		Run:   runAblQuantile,
	})
	register(Experiment{
		ID: "abl-costmodel", Figure: "ablation",
		Title: "Tree-page vs. bucket-page cost accounting",
		Run:   runAblCostModel,
	})
	register(Experiment{
		ID: "abl-supernode", Figure: "ablation",
		Title: "X-tree supernodes on vs. off (R*-tree behaviour)",
		Run:   runAblSupernode,
	})
}

// runAblKNN compares the page accesses of the two NN algorithms over the
// same trees — the reason the engine uses HS.
func runAblKNN(cfg Config) Result {
	cfg.validate()
	n := cfg.scaled(16384)
	hs := Series{Name: "HS"}
	rkv := Series{Name: "RKV"}
	var x []float64
	for _, d := range []int{2, 4, 8, 12, 16} {
		pts := data.Uniform(n, d, cfg.Seed)
		tree := xtree.New(xtree.DefaultConfig(d))
		entries := make([]xtree.Entry, len(pts))
		for i, p := range pts {
			entries[i] = xtree.Entry{Point: p, ID: i}
		}
		tree.BulkLoad(entries)
		queries := data.Uniform(cfg.Queries, d, cfg.Seed+1)
		var hsTotal, rkvTotal int
		for _, q := range queries {
			_, a := searchTree(tree, q, 1)
			hsTotal += a.PageAccesses
			_, b := knn.RKV(tree, q, 1)
			rkvTotal += b.PageAccesses
		}
		x = append(x, float64(d))
		hs.Y = append(hs.Y, float64(hsTotal)/float64(len(queries)))
		rkv.Y = append(rkv.Y, float64(rkvTotal)/float64(len(queries)))
	}
	return Result{
		ID: "abl-knn", Title: "1-NN page accesses: HS vs. RKV",
		XLabel: "dimension", X: x,
		Series: []Series{hs, rkv},
		Notes: []string{
			fmt.Sprintf("N = %d uniform points per dimension", n),
			"expected: HS <= RKV everywhere (HS is I/O-optimal)",
		},
	}
}

// runAblIndirect quantifies what the indirect-neighbor guarantee buys:
// the paper's col coloring vs. a (d+1)-coloring that only separates
// direct neighbors.
func runAblIndirect(cfg Config) Result {
	cfg.validate()
	pts, queries := uniformWorkload(cfg)
	colS := Series{Name: "col maxPages"}
	directS := Series{Name: "direct-only"}
	var x []float64
	for _, disks := range []int{4, 8, 16} {
		no := build(parsearch.Options{Dim: uniformDim, Disks: disks}, pts)
		dir := build(parsearch.Options{Dim: uniformDim, Disks: disks, Kind: parsearch.DirectOnly}, pts)
		x = append(x, float64(disks))
		colS.Y = append(colS.Y, measure(no, queries, 10).MaxPages)
		directS.Y = append(directS.Y, measure(dir, queries, 10).MaxPages)
	}
	return Result{
		ID: "abl-indirect", Title: "bottleneck pages: col vs. direct-only coloring (10-NN)",
		XLabel: "disks", X: x,
		Series: []Series{colS, directS},
		Notes: []string{
			"direct-only uses d+1 colors and lets indirect neighbors collide",
			"expected: col at or below direct-only, gap grows with disks",
		},
	}
}

// colModN is the naive alternative to complement folding: col(b) mod n.
type colModN struct {
	d, n int
}

func (s colModN) Name() string { return "col-mod-n" }
func (s colModN) Disks() int   { return s.n }
func (s colModN) Disk(cell []uint32) int {
	return core.Col(core.BucketFromCell(cell), s.d) % s.n
}

// runAblFold compares the paper's complement folding against the naive
// `col mod n` reduction for non-power-of-two disk counts, by the number
// of direct-neighbor collisions each produces.
func runAblFold(cfg Config) Result {
	cfg.validate()
	const d = 10
	fold := Series{Name: "fold"}
	naive := Series{Name: "mod"}
	var x []float64
	for _, n := range []int{3, 5, 6, 7, 9, 11, 12, 13} {
		foldViol := core.VerifyNearOptimal(core.NewNearOptimal(d, n), d, 0)
		modViol := core.VerifyNearOptimal(colModN{d: d, n: n}, d, 0)
		foldDirect, modDirect := 0, 0
		for _, v := range foldViol {
			if v.Kind == core.Direct {
				foldDirect++
			}
		}
		for _, v := range modViol {
			if v.Kind == core.Direct {
				modDirect++
			}
		}
		x = append(x, float64(n))
		fold.Y = append(fold.Y, float64(foldDirect))
		naive.Y = append(naive.Y, float64(modDirect))
	}
	return Result{
		ID: "abl-fold", Title: "direct-neighbor collisions: complement folding vs. col mod n",
		XLabel: "disks", X: x,
		Series: []Series{fold, naive},
		Notes: []string{
			fmt.Sprintf("d = %d; all %d direct pairs enumerated", d, (1<<d)*d/2),
			"expected: folding produces no more collisions than naive modulo",
		},
	}
}

// runAblQuantile compares midpoint against median splits on skewed data
// — the paper's first §4.3 extension.
func runAblQuantile(cfg Config) Result {
	cfg.validate()
	n := cfg.scaled(65536)
	const d = 10
	// Skewed data: product of two uniforms biases every dimension
	// toward 0, so midpoint splits put most points in quadrant 0.
	skewed := make([][]float64, n)
	src := data.Uniform(2*n, d, cfg.Seed)
	for i := range skewed {
		p := make([]float64, d)
		for j := 0; j < d; j++ {
			p[j] = src[2*i][j] * src[2*i+1][j]
		}
		skewed[i] = p
	}
	queries := raw(data.QueriesFromData(toVec(skewed), cfg.Queries, queryJitter, cfg.Seed+1))

	mid := build(parsearch.Options{Dim: d, Disks: maxDisks}, skewed)
	quant := build(parsearch.Options{Dim: d, Disks: maxDisks, QuantileSplits: true}, skewed)

	midS := Series{Name: "midpoint"}
	quantS := Series{Name: "quantile"}
	var x []float64
	for _, k := range []int{1, 10} {
		x = append(x, float64(k))
		midS.Y = append(midS.Y, measure(mid, queries, k).MaxPages)
		quantS.Y = append(quantS.Y, measure(quant, queries, k).MaxPages)
	}
	return Result{
		ID: "abl-quantile", Title: "bottleneck pages on skewed data: midpoint vs. median splits",
		XLabel: "k", X: x,
		Series: []Series{midS, quantS},
		Notes: []string{
			fmt.Sprintf("N = %d skewed points, d = %d, %d disks", n, d, maxDisks),
			fmt.Sprintf("load imbalance: midpoint %.1f, quantile %.1f",
				imbalanceOf(mid.DiskLoads()), imbalanceOf(quant.DiskLoads())),
			"expected: quantile splits reduce the bottleneck",
		},
	}
}

// runAblCostModel compares the two page accounting models on the same
// workload: the real system's tree pages vs. the paper's idealized bucket
// pages.
func runAblCostModel(cfg Config) Result {
	cfg.validate()
	pts, queries := uniformWorkload(cfg)
	tree := Series{Name: "tree"}
	bucket := Series{Name: "buckets"}
	var x []float64
	for i, kind := range []parsearch.Kind{parsearch.NearOptimal, parsearch.Hilbert, parsearch.RoundRobin} {
		tm := build(parsearch.Options{Dim: uniformDim, Disks: maxDisks, Kind: kind}, pts)
		bm := build(parsearch.Options{Dim: uniformDim, Disks: maxDisks, Kind: kind, CostModel: parsearch.BucketPages}, pts)
		x = append(x, float64(i+1))
		tree.Y = append(tree.Y, measure(tm, queries, 10).MaxPages)
		bucket.Y = append(bucket.Y, measure(bm, queries, 10).MaxPages)
	}
	return Result{
		ID: "abl-costmodel", Title: "bottleneck pages under both cost models (10-NN)",
		XLabel: "strategy", X: x,
		Series: []Series{tree, bucket},
		Notes: []string{
			"strategies: 1 = new, 2 = HIL, 3 = RR",
			"tree = per-disk X-tree pages (real system); buckets = quadrant pages (paper's idealization)",
			"expected: same ranking of new vs. HIL under both; RR penalized only by the tree model",
		},
	}
}

// runAblSupernode measures what the X-tree's supernodes buy over plain
// R*-style splitting: page accesses of sequential 1-NN queries on
// insert-built trees.
func runAblSupernode(cfg Config) Result {
	cfg.validate()
	n := cfg.scaled(8192)
	withS := Series{Name: "supernodes"}
	withoutS := Series{Name: "r*-split"}
	superCount := Series{Name: "#super"}
	var x []float64
	for _, d := range []int{8, 12, 16} {
		pts := data.Uniform(n, d, cfg.Seed)
		queries := data.Uniform(cfg.Queries, d, cfg.Seed+1)

		run := func(maxOverlap float64) (float64, int) {
			cfgT := xtree.DefaultConfig(d)
			cfgT.MaxOverlap = maxOverlap
			t := xtree.New(cfgT)
			for i, p := range pts {
				t.Insert(p, i)
			}
			total := 0
			for _, q := range queries {
				_, acc := searchTree(t, q, 1)
				total += acc.PageAccesses
			}
			return float64(total) / float64(len(queries)), t.Stats().Supernodes
		}
		xt, supers := run(0.2) // X-tree threshold
		rstar, _ := run(1.0)   // accept any topological split: R*-like
		x = append(x, float64(d))
		withS.Y = append(withS.Y, xt)
		withoutS.Y = append(withoutS.Y, rstar)
		superCount.Y = append(superCount.Y, float64(supers))
	}
	return Result{
		ID: "abl-supernode", Title: "1-NN page accesses: X-tree supernodes vs. pure R* splits",
		XLabel: "dimension", X: x,
		Series: []Series{withS, withoutS, superCount},
		Notes: []string{
			fmt.Sprintf("N = %d uniform points, insert-built trees", n),
			"expected: supernodes at or below the R*-split cost in high dimensions",
		},
	}
}

// toVec converts raw slices to vec.Points (same backing arrays).
func toVec(pts [][]float64) []vec.Point {
	out := make([]vec.Point, len(pts))
	for i, p := range pts {
		out[i] = p
	}
	return out
}

// imbalanceOf returns max load over ideal load.
func imbalanceOf(loads []int) float64 {
	total, max := 0, 0
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) * float64(len(loads)) / float64(total)
}

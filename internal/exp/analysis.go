package exp

import (
	"fmt"

	"parsearch/internal/core"
	"parsearch/internal/data"
	"parsearch/internal/graph"
	"parsearch/internal/model"
	"parsearch/internal/xtree"
)

func init() {
	register(Experiment{
		ID: "abl-greedy", Figure: "ablation",
		Title: "Closed-form coloring vs. generic greedy graph coloring",
		Run:   runAblGreedy,
	})
	register(Experiment{
		ID: "ext-model", Figure: "extension",
		Title: "Analytic cost model vs. measured page accesses ([BBKK 97])",
		Run:   runExtModel,
	})
}

// runAblGreedy compares the paper's closed-form coloring against a
// generic greedy coloring of the disk assignment graph: greedy also
// produces a proper (near-optimal) coloring, but needs more colors and
// gives no closed form — the reason the paper's O(d) function matters.
func runAblGreedy(cfg Config) Result {
	cfg.validate()
	colS := Series{Name: "col"}
	greedyS := Series{Name: "greedy"}
	lowerS := Series{Name: "d+1"}
	var x []float64
	for d := 2; d <= 13; d++ {
		g := graph.New(d)
		colors, k := g.GreedyColoring()
		if ok, _, _ := g.IsProperColoring(colors); !ok {
			panic("exp: greedy coloring is not proper")
		}
		x = append(x, float64(d))
		colS.Y = append(colS.Y, float64(core.NumColors(d)))
		greedyS.Y = append(greedyS.Y, float64(k))
		lowerS.Y = append(lowerS.Y, float64(d+1))
	}
	return Result{
		ID: "abl-greedy", Title: "colors used: closed form vs. greedy",
		XLabel: "dimension", X: x,
		Series: []Series{colS, greedyS, lowerS},
		Notes: []string{
			"both colorings are proper on G_d (near-optimal declusterings)",
			"expected: col stays at nextPow2(d+1); greedy needs at least as many colors and is O(2^d) to compute",
		},
	}
}

// runExtModel compares the analytic estimates of [BBKK 97] — expected
// NN distance and expected page accesses — against the measured values
// on the sequential X-tree, validating the cost model the paper builds
// its argument on.
func runExtModel(cfg Config) Result {
	cfg.validate()
	n := cfg.scaled(32768)
	measuredPages := Series{Name: "pages(meas)"}
	modelPages := Series{Name: "pages(model)"}
	measuredR := Series{Name: "r1(meas)"}
	modelR := Series{Name: "r1(model)"}
	var x []float64
	for _, d := range []int{2, 4, 6, 8, 10, 12} {
		pts := data.Uniform(n, d, cfg.Seed)
		entries := make([]xtree.Entry, len(pts))
		for i, p := range pts {
			entries[i] = xtree.Entry{Point: p, ID: i}
		}
		tree := xtree.New(xtree.DefaultConfig(d))
		tree.BulkLoad(entries)
		queries := data.Uniform(cfg.Queries, d, cfg.Seed+1)

		var pages, radius float64
		for _, q := range queries {
			res, acc := searchTree(tree, q, 1)
			pages += float64(acc.LeafAccesses)
			radius += res[0].Dist
		}
		m := float64(len(queries))
		x = append(x, float64(d))
		measuredPages.Y = append(measuredPages.Y, pages/m)
		modelPages.Y = append(modelPages.Y, model.ExpectedPageAccesses(n, d, 1, xtree.LeafCapacityForPage(d, xtree.PageSize)))
		measuredR.Y = append(measuredR.Y, radius/m)
		modelR.Y = append(modelR.Y, model.ExpectedNNDist(n, d, 1))
	}
	return Result{
		ID: "ext-model", Title: "cost model vs. measurement (1-NN, sequential X-tree)",
		XLabel: "dimension", X: x,
		Series: []Series{measuredR, modelR, measuredPages, modelPages},
		Notes: []string{
			fmt.Sprintf("N = %d uniform points", n),
			"expected: model tracks the measured NN radius closely in low d and underestimates in high d (boundary effects, as [BBKK 97] discusses); both page curves explode with d",
		},
	}
}

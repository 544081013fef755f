package parsearch

import (
	"context"
	"math"
	"sort"
	"sync"

	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// RangeQuery returns all vectors inside the axis-aligned box [min, max]
// (boundary inclusive), searching all disks in parallel, together with
// the usual per-disk cost accounting. Results are ordered by ID; their
// Dist field is the distance to the box center.
//
// Range queries are the workload the classic declustering methods (Disk
// Modulo, FX, Hilbert) were designed for; the PartialMatch helper
// expresses the partial-match queries of [DS 82] and [KP 88] on top of
// this.
func (ix *Index) RangeQuery(min, max []float64) ([]Neighbor, QueryStats, error) {
	return ix.RangeQueryContext(context.Background(), min, max)
}

// RangeQueryContext is RangeQuery with a context, which may carry a
// per-request tracer (see WithTracer) and a deadline. A cancelled
// context returns ctx.Err() before the shard fan-out and again before
// the simulated I/O phase, so a disconnected client stops burning disk
// time.
func (ix *Index) RangeQueryContext(ctx context.Context, min, max []float64) ([]Neighbor, QueryStats, error) {
	return ix.runRange(ctx, query{op: opRange, min: min, max: max})
}

// RangeQueryShardContext is RangeQueryContext restricted to a subset of
// the declustered disks (see ShardSpec): excluded disks are neither
// searched nor accounted and never flag the query Degraded. Each point
// lives on exactly one disk, so the per-group result sets are disjoint
// and a coordinator reproduces the unrestricted answer by concatenating
// them and sorting by ID.
func (ix *Index) RangeQueryShardContext(ctx context.Context, min, max []float64, shards ShardSpec) ([]Neighbor, QueryStats, error) {
	return ix.runRange(ctx, query{op: opRange, min: min, max: max, shards: shards})
}

// runRange runs one box query (a range query, or the box begin derived
// from a partial-match spec) through the pipeline.
func (ix *Index) runRange(ctx context.Context, qr query) (_ []Neighbor, stats QueryStats, err error) {
	r, err := ix.begin(ctx, &qr)
	defer r.end(&err)
	if err != nil {
		return nil, stats, err
	}
	rect := vec.NewRect(qr.min, qr.max)
	center := rect.Center()
	r.plan(qr.shards)

	// Search: all live shards search the query's version in parallel. A
	// failed disk's search runs against the chained replica instead;
	// shards with no live copy are skipped, making the results
	// best-effort (flagged Degraded). Each search also counts the leaves
	// it scanned: exactly the leaves the box hits (see
	// xtree.Tree.RangeVisit), which the accounting charges as they are.
	// A search records where its hits lie; the answer copies their
	// points once the searches are done.
	n := len(r.routes)
	found := make([][]rangeHit, n)
	visits := make([]xtree.Visited, n)
	var wg sync.WaitGroup
	for d := range r.routes {
		t := r.routes[d].tree
		if t == nil {
			continue
		}
		wg.Add(1)
		go func(d int, t *xtree.Tree) {
			defer wg.Done()
			visits[d] = t.RangeVisit(rect, func(leaf *xtree.Node, i int) {
				found[d] = append(found[d], rangeHit{leaf, i})
			})
			r.sp.emit(TraceEvent{Stage: StageSearch, Disk: d, Item: -1,
				Results: len(found[d]), Pages: visits[d].Nodes})
		}(d, t)
	}
	wg.Wait()
	// A box query has no distance bound to share across disks, so the
	// cooperative-pruning fields stay zero; the traversal cost is still
	// surfaced uniformly with the k-NN paths. A disk with no live copy
	// was not searched: its accounting descends the primary.
	leaves := make([]int, n)
	for d, v := range visits {
		stats.SearchPages += v.Nodes
		leaves[d] = v.Leaves
		if r.routes[d].tree == nil {
			leaves[d] = -1
		}
	}
	r.visits.Add(int64(stats.SearchPages))

	// Page accounting: every disk reads its pages intersecting the
	// query box. Degraded only when dead pages intersect the box — a
	// dead point could then be inside it; dead pages fully outside the
	// box cannot hold matches, so the results are provably exact.
	box := &xtree.Region{Box: &rect}
	refs := r.pageRefs(box, leaves, &stats)
	stats.Degraded = stats.Unreachable > 0
	if err = r.finishIO(&ix.reg.QueriesRange, refs, &stats); err != nil {
		return nil, stats, err
	}
	r.baselineCost(box, &stats)

	out := rangeAnswer(found, center)
	r.sp.emit(TraceEvent{Stage: StageDone, Disk: -1, Item: -1,
		Results: len(out), Pages: stats.TotalPages, Degraded: stats.Degraded})
	return out, stats, nil
}

// rangeHit is where a box search found a point: slot i of leaf.
type rangeHit struct {
	leaf *xtree.Node
	i    int
}

// rangeAnswer materializes the hits as the answer, ordered by ID, their
// points copied into one array of the answer's own; an empty answer is
// nil.
func rangeAnswer(found [][]rangeHit, center vec.Point) []Neighbor {
	total := 0
	for _, hits := range found {
		total += len(hits)
	}
	if total == 0 {
		return nil
	}
	d := len(center)
	out := make([]Neighbor, 0, total)
	coords := make([]float64, total*d)
	for _, hits := range found {
		for _, h := range hits {
			k := len(out)
			p := coords[k*d : (k+1)*d : (k+1)*d]
			h.leaf.PointAt(h.i, p)
			out = append(out, Neighbor{ID: h.leaf.ID(h.i), Point: p, Dist: vec.Dist(center, p)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Wildcard marks a dimension as unspecified in a PartialMatch query.
var Wildcard = math.NaN()

// PartialMatch runs a partial match query [DS 82, KP 88]: spec gives an
// exact value per specified dimension and Wildcard (NaN) for the rest;
// eps is the matching tolerance per specified dimension. It returns the
// vectors matching every specified dimension within eps.
func (ix *Index) PartialMatch(spec []float64, eps float64) ([]Neighbor, QueryStats, error) {
	return ix.PartialMatchContext(context.Background(), spec, eps)
}

// PartialMatchContext is PartialMatch with a context, which may carry a
// per-request tracer (see WithTracer).
func (ix *Index) PartialMatchContext(ctx context.Context, spec []float64, eps float64) ([]Neighbor, QueryStats, error) {
	return ix.PartialMatchShardContext(ctx, spec, eps, ShardSpec{})
}

// PartialMatchShardContext is PartialMatchContext restricted to a
// subset of the declustered disks (see RangeQueryShardContext).
func (ix *Index) PartialMatchShardContext(ctx context.Context, spec []float64, eps float64, shards ShardSpec) ([]Neighbor, QueryStats, error) {
	return ix.runRange(ctx, query{op: opPartialMatch, point: spec, tol: eps, shards: shards})
}

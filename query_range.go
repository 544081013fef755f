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
	// xtree.Tree.RangeSearch), which the accounting charges as they are.
	n := len(r.routes)
	found := make([][]xtree.Entry, n)
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
			found[d], visits[d] = t.RangeSearch(rect)
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

	var out []Neighbor
	for _, entries := range found {
		for _, e := range entries {
			out = append(out, Neighbor{ID: e.ID, Point: e.Point, Dist: vec.Dist(center, e.Point)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	r.sp.emit(TraceEvent{Stage: StageDone, Disk: -1, Item: -1,
		Results: len(out), Pages: stats.TotalPages, Degraded: stats.Degraded})
	return out, stats, nil
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

package parsearch

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"parsearch/internal/disk"
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
func (ix *Index) RangeQueryContext(ctx context.Context, min, max []float64) (_ []Neighbor, stats QueryStats, err error) {
	return ix.rangeQueryContext(ctx, min, max, ShardSpec{})
}

// RangeQueryShardContext is RangeQueryContext restricted to a subset of
// the declustered disks (see ShardSpec): excluded disks are neither
// searched nor accounted and never flag the query Degraded. Each point
// lives on exactly one disk, so the per-group result sets are disjoint
// and a coordinator reproduces the unrestricted answer by concatenating
// them and sorting by ID.
func (ix *Index) RangeQueryShardContext(ctx context.Context, min, max []float64, shards ShardSpec) ([]Neighbor, QueryStats, error) {
	if err := shards.validate(ix.opts.Disks); err != nil {
		return nil, QueryStats{}, err
	}
	return ix.rangeQueryContext(ctx, min, max, shards)
}

func (ix *Index) rangeQueryContext(ctx context.Context, min, max []float64, shards ShardSpec) (_ []Neighbor, stats QueryStats, err error) {
	start := time.Now()
	// The span starts before the lock, so a wait behind Reorganize's
	// write lock shows up in the events' Elapsed.
	sp := ix.newSpan(ctx, "range")
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	st := ix.st

	defer func() {
		if err != nil {
			ix.reg.QueryErrors.Inc()
			sp.errEvent(err)
		}
	}()

	if len(min) != ix.opts.Dim || len(max) != ix.opts.Dim {
		return nil, stats, fmt.Errorf("parsearch: range bounds have dimensions %d/%d, want %d",
			len(min), len(max), ix.opts.Dim)
	}
	for i := range min {
		if min[i] > max[i] {
			return nil, stats, fmt.Errorf("parsearch: range min > max in dimension %d", i)
		}
	}
	if ix.liveCount() == 0 {
		return nil, stats, ErrEmpty
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	rect := vec.NewRect(min, max)
	center := rect.Center()

	// Plan the failure routing once (see KNN): one consistent failure
	// snapshot drives the search and the I/O accounting.
	routes, degraded := ix.plan(st, shards.mask(ix.opts.Disks))
	sp.planEvents(routes, degraded)

	// Phase 1: all live shards search in parallel, each under its own
	// tree's read lock. A failed disk's search runs against the chained
	// replica instead; shards with no live copy are skipped, making the
	// results best-effort (flagged Degraded).
	found := make([][]xtree.Entry, len(st.shards))
	visits := make([]int, len(st.shards))
	var wg sync.WaitGroup
	for d := range routes {
		sh := routes[d].sh
		if sh == nil {
			continue
		}
		wg.Add(1)
		go func(d int, sh *shard) {
			defer wg.Done()
			sh.mu.RLock()
			found[d], visits[d] = sh.tree.RangeSearch(rect)
			sh.mu.RUnlock()
			sp.emit(TraceEvent{Stage: StageSearch, Disk: d, Item: -1,
				Results: len(found[d]), Pages: visits[d]})
		}(d, sh)
	}
	wg.Wait()
	var totalVisits int64
	for _, v := range visits {
		totalVisits += int64(v)
	}
	ix.reg.NodeVisits.Add(totalVisits)
	// A box query has no distance bound to share across disks, so the
	// cooperative-pruning fields stay zero; the traversal cost is still
	// surfaced uniformly with the k-NN paths.
	stats.SearchPages = int(totalVisits)

	// Phase 2: page accounting — every disk reads its pages
	// intersecting the query box. Reads are charged to the disk the
	// routing selected; pages with no live copy are counted as
	// Unreachable instead of being read.
	stats.PagesPerDisk = make([]int, len(st.shards))
	var refs []disk.PageRef
	switch ix.opts.CostModel {
	case BucketPages:
		leafCap := ix.treeConfig().LeafCapacity
		ix.meta.Lock()
		for i := range st.cells {
			c := &st.cells[i]
			if c.count == 0 || !c.rect.Intersects(rect) {
				continue
			}
			rt := routes[c.disk]
			if rt.masked {
				continue
			}
			pages := (c.count + leafCap - 1) / leafCap
			stats.Cells++
			if rt.sh == nil {
				stats.Unreachable += pages
				continue
			}
			if rt.rerouted {
				stats.Rerouted += pages
			}
			stats.PagesPerDisk[rt.disk] += pages
			refs = append(refs, disk.PageRef{Disk: rt.disk, Blocks: pages})
		}
		ix.meta.Unlock()
	default: // TreePages
		for d := range routes {
			rt := routes[d]
			if rt.masked {
				continue
			}
			sh, charge := rt.sh, rt.disk
			if sh == nil {
				// No live copy: enumerate the primary tree's pages
				// anyway so the shortfall is visible as Unreachable.
				sh, charge = st.shards[d], -1
			}
			sh.mu.RLock()
			for _, leaf := range sh.tree.Leaves() {
				if !leaf.Rect().Intersects(rect) {
					continue
				}
				stats.Cells++
				if charge < 0 {
					stats.Unreachable += leaf.Super()
					continue
				}
				if rt.rerouted {
					stats.Rerouted += leaf.Super()
				}
				stats.PagesPerDisk[charge] += leaf.Super()
				refs = append(refs, disk.PageRef{Disk: charge, Blocks: leaf.Super()})
			}
			sh.mu.RUnlock()
		}
	}
	// Degraded only when dead pages intersect the box — a dead point
	// could then be inside it; dead pages fully outside the box cannot
	// hold matches, so the results are provably exact.
	stats.Degraded = stats.Unreachable > 0
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	batch, err := ix.array.ReadBatch(refs)
	if err != nil {
		return nil, stats, fmt.Errorf("parsearch: %w", err)
	}
	stats.MaxPages = batch.MaxPerDisk
	stats.TotalPages = batch.Total
	stats.Retries = batch.Retries
	stats.ParallelTime = batch.ParallelTime.Seconds()
	stats.SequentialTime = batch.SequentialTime.Seconds()
	stats.Speedup = batch.Speedup()
	sp.ioEvents(batch)
	ix.recordQuery(&ix.reg.QueriesRange, &stats, batch, start)

	if st.baseline != nil {
		pages, leaves := 0, 0
		st.baseline.mu.RLock()
		for _, leaf := range st.baseline.tree.Leaves() {
			if leaf.Rect().Intersects(rect) {
				pages += leaf.Super()
				leaves++
			}
		}
		st.baseline.mu.RUnlock()
		stats.SeqPages = pages
		stats.BaselineTime = ix.params.SimulateCost(leaves, pages).Seconds()
		if stats.ParallelTime > 0 {
			stats.BaselineSpeedup = stats.BaselineTime / stats.ParallelTime
		}
	}

	var out []Neighbor
	for _, entries := range found {
		for _, e := range entries {
			out = append(out, Neighbor{ID: e.ID, Point: e.Point, Dist: vec.Dist(center, e.Point)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	sp.emit(TraceEvent{Stage: StageDone, Disk: -1, Item: -1,
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
	if err := shards.validate(ix.opts.Disks); err != nil {
		return nil, QueryStats{}, err
	}
	if len(spec) != ix.opts.Dim {
		return nil, QueryStats{}, fmt.Errorf("parsearch: partial-match spec has dimension %d, want %d",
			len(spec), ix.opts.Dim)
	}
	if eps < 0 {
		return nil, QueryStats{}, fmt.Errorf("parsearch: negative tolerance %v", eps)
	}
	min := make([]float64, len(spec))
	max := make([]float64, len(spec))
	specified := 0
	for i, v := range spec {
		if math.IsNaN(v) {
			min[i], max[i] = math.Inf(-1), math.Inf(1)
			continue
		}
		specified++
		min[i], max[i] = v-eps, v+eps
	}
	if specified == 0 {
		return nil, QueryStats{}, fmt.Errorf("parsearch: partial-match query specifies no dimension")
	}
	return ix.rangeQueryContext(ctx, min, max, shards)
}

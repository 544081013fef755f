package parsearch

import (
	"context"
	"fmt"
	"sync"

	"parsearch/internal/disk"
	"parsearch/internal/knn"
	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// This file is the k-NN search stage of the query pipeline (query.go):
// the single-query entry points, and the per-item step — one search
// queue over every routed disk, NN-sphere page accounting — that a
// single query, every batch item and every ServiceDemands row run.

// KNNShardContext returns the k nearest neighbors of q, together with
// the query's cost statistics, under the per-query approximation knobs
// a: the returned k-th distance is at most (1+a.Epsilon) times the exact
// one, and a zero Approx is an exact query regardless of the index
// defaults.
//
// shards restricts the query to a subset of the declustered disks (see
// ShardSpec; the zero ShardSpec is every disk) — the per-shard-group
// query of a multi-node deployment. Results are exact over the selected
// disks: excluded disks are neither searched nor accounted, and never
// flag the query Degraded (another process shard serves them). A
// coordinator merging every group's results obtains exactly the
// unrestricted query's answer, or with a.Bound the bounded one (see
// Approx.Bound).
//
// ctx may carry a per-request tracer (see WithTracer) and a deadline.
// The search checks ctx every few dozen node pops and again before the
// simulated I/O phase, so a cancelled context returns ctx.Err() promptly
// without charging disk reads (the simulated disks execute a planned
// read batch atomically).
func (ix *Index) KNNShardContext(ctx context.Context, q []float64, k int, a Approx, shards ShardSpec) ([]Neighbor, QueryStats, error) {
	return ix.runKNN(ctx, query{op: opKNN, point: q, k: k, approx: a, shards: shards})
}

// KNN is KNNShardContext over every disk under the index's default
// Approx (see ApproxDefaults), without a context.
func (ix *Index) KNN(q []float64, k int) ([]Neighbor, QueryStats, error) {
	return ix.KNNContext(context.Background(), q, k)
}

// KNNContext is KNNShardContext over every disk under the index's
// default Approx.
func (ix *Index) KNNContext(ctx context.Context, q []float64, k int) ([]Neighbor, QueryStats, error) {
	return ix.runKNN(ctx, query{op: opKNN, point: q, k: k, approx: ix.ApproxDefaults()})
}

// KNNApprox is KNNShardContext over every disk, without a context.
func (ix *Index) KNNApprox(q []float64, k int, a Approx) ([]Neighbor, QueryStats, error) {
	return ix.KNNApproxContext(context.Background(), q, k, a)
}

// KNNApproxContext is KNNShardContext over every disk.
func (ix *Index) KNNApproxContext(ctx context.Context, q []float64, k int, a Approx) ([]Neighbor, QueryStats, error) {
	return ix.runKNN(ctx, query{op: opKNN, point: q, k: k, approx: a})
}

// runKNN runs one single k-NN query through the pipeline.
func (ix *Index) runKNN(ctx context.Context, qr query) (_ []Neighbor, stats QueryStats, err error) {
	r, err := ix.begin(ctx, &qr)
	defer r.end(&err)
	if err != nil {
		return nil, stats, err
	}
	r.plan(qr.shards)
	merged, _, g, refs, err := r.knnItem(&qr, qr.point, -1, &stats)
	if err != nil {
		return nil, stats, err
	}
	if err = r.finishIO(&ix.reg.QueriesKNN, refs, &stats); err != nil {
		return nil, stats, err
	}
	r.baselineCost(g, &stats)
	out := neighbors(merged)
	r.sp.emit(TraceEvent{Stage: StageDone, Disk: -1, Item: -1, K: qr.k,
		Results: len(out), Pages: stats.TotalPages, Degraded: stats.Degraded})
	return out, stats, nil
}

// knnItem is the per-item k-NN step: it answers one query point against
// the planned routes and accounts the pages of the resulting NN-sphere
// into qs (search work, per-disk pages, degraded-mode counters). item is
// the batch index, or -1 for a single query.
//
// Search: one Hjaltason–Samet queue over every routed tree (knn.Search)
// pops the nodes of all disks in global MINDIST order against one k-best,
// so every disk stops at the global k-th distance and reads only the
// pages intersecting the global NN-sphere (see DESIGN.md "One queue"). A
// failed disk is searched through its chained replica; a shard with no
// live copy is skipped. The trees are the query's version, which no
// writer touches, so the search takes no lock.
//
// Under Approx.Bound the item is a k-NN within that distance: the answer
// keeps only results inside the bound and may come up short of k, or
// empty. rk, the radius of the sphere the pages are accounted for, is
// the k-th distance when the answer is full and the bound when it is
// short — every page the answer depends on intersects that sphere. g is
// that sphere as accounted, the region a sequential baseline must be
// charged for too.
func (r *run) knnItem(qr *query, q vec.Point, item int, qs *QueryStats) (merged []knn.Result, rk float64, g *xtree.Region, refs []disk.PageRef, err error) {
	sr := newShardSearch(r, q, qr.k, qr.approx)
	defer sr.release()
	merged = sr.run()
	// A context cancelled during the search leaves it partial; partial
	// results would be silently wrong, so surface the cancellation.
	if err := r.ctx.Err(); err != nil {
		return nil, 0, nil, nil, err
	}
	r.visits.Add(sr.record(qs))
	if item < 0 && r.sp.on() {
		for d := range sr.s.Trees {
			if ts := &sr.s.Trees[d]; ts.Tree != nil {
				r.sp.emit(TraceEvent{Stage: StageSearch, Disk: d, Item: -1, K: qr.k, Pages: ts.Acc.PageAccesses})
			}
		}
	}
	if sr.s.Shrink < 1 {
		qs.EffectiveEpsilon = qr.approx.Epsilon
		r.sp.emit(TraceEvent{Stage: StageApprox, Disk: -1, Item: item, K: qr.k,
			Epsilon: qr.approx.Epsilon, Pages: qs.PagesSkippedApprox})
	}

	// The answer inside the caller's bound: the search may have collected
	// candidates beyond it before the bound stopped it.
	bounded := qr.approx.Bound > 0
	for bounded && len(merged) > 0 && merged[len(merged)-1].Dist > qr.approx.Bound {
		merged = merged[:len(merged)-1]
	}
	switch {
	case len(merged) == qr.k || (len(merged) > 0 && !bounded):
		rk = merged[len(merged)-1].Dist
		g = r.sphere(q, rk)
	case bounded:
		// The whole ball, ties on its surface included (ToRank alone may
		// round inside it).
		rk = qr.approx.Bound
		g = &xtree.Region{Q: q, M: r.m, Rank: r.m.ToRankCeil(rk)}
	case r.degraded:
		// Every live copy of the data is on a failed disk.
		qs.Degraded = true
		return nil, 0, nil, nil, ErrUnavailable
	default:
		// Concurrent deletions emptied the index between the live
		// check and the search.
		return nil, 0, nil, nil, ErrEmpty
	}
	if item < 0 {
		r.sp.emit(TraceEvent{Stage: StageMerge, Disk: -1, Item: -1, K: qr.k,
			Results: len(merged), Radius: rk})
	}

	// Cost accounting: every disk must read its pages intersecting the
	// NN-sphere of radius rk — the leaves its search scanned inside the
	// sphere, whenever its log can tell (see knn.LeafLog.Hits).
	for d := range sr.s.Trees {
		n, ok := sr.s.Trees[d].Log.Hits(g.Rank)
		if !ok {
			n = -1
		}
		sr.logged[d] = n
	}
	refs = r.pageRefs(g, sr.logged, qs)
	// Degraded only when the dead data could have changed the answer:
	// unreachable pages intersect the NN-sphere (a dead point could be
	// closer than rk), or an unbounded answer came up short of k (any
	// dead point would have made the cut). Otherwise every dead page
	// lies strictly outside the sphere and the results are provably
	// exact — a bounded answer is short because the ball is, unless dead
	// pages reach into it.
	qs.Degraded = qs.Unreachable > 0 || (r.degraded && len(merged) < qr.k && !bounded)
	return merged, rk, g, refs, nil
}

// sphere returns the NN-sphere of radius rk around q.
func (r *run) sphere(q vec.Point, rk float64) *xtree.Region {
	return &xtree.Region{Q: q, M: r.m, Rank: r.m.ToRank(rk)}
}

// neighbors converts merged search results to the public result type; an
// empty answer is nil, as it is after a round trip over the wire.
func neighbors(merged []knn.Result) []Neighbor {
	if len(merged) == 0 {
		return nil
	}
	out := make([]Neighbor, len(merged))
	for i, r := range merged {
		out[i] = Neighbor{ID: r.Entry.ID, Point: r.Entry.Point, Dist: r.Dist}
	}
	return out
}

// shardSearch is the per-item state of the k-NN search: the one
// knn.Search over the routed trees, one slot per route, and the
// accounting's per-route leaf counts. It is pooled, so the search's
// queue, heaps and logs keep their capacity from one query to the next.
type shardSearch struct {
	r *run
	s knn.Search
	// logged is the accounting's per-route leaf count (see run.pageRefs).
	logged []int
}

// shardSearchPool holds released shardSearches. What stays reachable
// from a pooled one is numbers only — the logs' rank slices and the
// logged counts — and the cancellation check bound to itself, so the
// pool never keeps a tree, a result or a query alive (see release).
var shardSearchPool = sync.Pool{New: func() any {
	sr := new(shardSearch)
	sr.s.Done = func() bool { return sr.r.ctx.Err() != nil }
	return sr
}}

func newShardSearch(r *run, q vec.Point, k int, a Approx) *shardSearch {
	sr := shardSearchPool.Get().(*shardSearch)
	sr.r = r
	s := &sr.s
	s.Q, s.K, s.M = q, k, r.m
	s.Shrink = knn.ShrinkFor(a.Epsilon, r.m)
	// The externally shipped k-th-distance bound of a.Bound seeds the
	// queue — the receiving half of the cross-network bound protocol. The
	// rank-space seed is rounded up to the whole metric ball: a point at
	// exactly a.Bound is a tie the answer needs.
	s.Seed = 0
	if a.Bound > 0 {
		s.Seed = r.m.ToRankCeil(a.Bound)
	}
	trees := s.Slots(len(r.routes))
	for d, rt := range r.routes {
		trees[d].Tree = rt.tree
	}
	if cap(sr.logged) < len(r.routes) {
		sr.logged = make([]int, len(r.routes))
	}
	sr.logged = sr.logged[:len(r.routes)]
	return sr
}

// run searches the routed trees. A query whose context is already done
// searches nothing.
func (sr *shardSearch) run() []knn.Result {
	if sr.r.ctx.Err() != nil {
		return nil
	}
	return sr.s.Run()
}

// release returns sr to the pool with every slot reset to the zero log,
// keeping only the buffers' capacity.
func (sr *shardSearch) release() {
	sr.s.Reset()
	sr.r = nil
	shardSearchPool.Put(sr)
}

// record folds the finished search into the query's stats and returns
// the node-visit count for the registry.
func (sr *shardSearch) record(qs *QueryStats) (nodeVisits int64) {
	for d := range sr.s.Trees {
		ts := &sr.s.Trees[d]
		nodeVisits += int64(ts.Acc.DirAccesses + ts.Acc.LeafAccesses)
		qs.SearchPages += ts.Acc.PageAccesses
		qs.PagesSavedByBound += ts.Stats.Saved.PageAccesses
		qs.PagesSavedByRemoteBound += ts.Stats.RemotePages
		qs.PagesSkippedApprox += ts.Stats.SkippedPages
	}
	return nodeVisits
}

// HomeDisk returns the disk the declustering assigns the query point's
// cell to — the disk likeliest to hold q's near neighbors. Nothing in
// the engine or the cluster routes by it: a cluster k-NN asks every
// shard at once. It names the shard group (HomeDisk(q) mod number of
// shards) an older, two-round coordinator asked first, and lets tests
// and tools see where the declustering put a point. A point-based
// assigner (round robin) has no home quadrant and answers disk 0.
func (ix *Index) HomeDisk(q []float64) (int, error) {
	if len(q) != ix.opts.Dim {
		return 0, fmt.Errorf("parsearch: query dimension %d, want %d", len(q), ix.opts.Dim)
	}
	return ix.pub.Load().assigner.Assign(0, q), nil
}

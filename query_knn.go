package parsearch

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"parsearch/internal/disk"
	"parsearch/internal/knn"
	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// This file is the k-NN search stage of the query pipeline (query.go):
// the single-query entry points, and the per-item step — home-shard
// probe, per-disk fan-out, merge, NN-sphere page accounting — that a
// single query, every batch item and every ServiceDemands row run.

// NN returns the nearest neighbor of q.
func (ix *Index) NN(q []float64) (Neighbor, QueryStats, error) {
	return ix.NNContext(context.Background(), q)
}

// NNContext is NN with a context, which may carry a per-request tracer
// (see WithTracer).
func (ix *Index) NNContext(ctx context.Context, q []float64) (Neighbor, QueryStats, error) {
	res, stats, err := ix.KNNContext(ctx, q, 1)
	if err != nil {
		// Includes the empty answer: an unbounded query that finds no
		// candidate fails with ErrEmpty or ErrUnavailable (see knnItem).
		return Neighbor{}, stats, err
	}
	return res[0], stats, nil
}

// KNN returns the k nearest neighbors of q, searching all disks in
// parallel, together with the query's cost statistics.
func (ix *Index) KNN(q []float64, k int) ([]Neighbor, QueryStats, error) {
	return ix.KNNContext(context.Background(), q, k)
}

// KNNContext is KNN with a context, which may carry a per-request
// tracer (see WithTracer) and a deadline. Cancellation is honored at
// the fan-out granularity: the query checks ctx between per-disk
// searches and before the simulated I/O phase, so a cancelled context
// returns ctx.Err() promptly without charging further disk reads. A
// disk search already underway completes (the simulated disks execute
// a planned read batch atomically).
func (ix *Index) KNNContext(ctx context.Context, q []float64, k int) ([]Neighbor, QueryStats, error) {
	return ix.runKNN(ctx, query{op: opKNN, point: q, k: k, approx: ix.ApproxDefaults()})
}

// KNNApprox is KNN with per-query approximate-search knobs, overriding
// the index defaults: the returned k-th distance is at most
// (1+a.Epsilon) times the exact one. A zero Approx is an exact query
// regardless of the index defaults.
func (ix *Index) KNNApprox(q []float64, k int, a Approx) ([]Neighbor, QueryStats, error) {
	return ix.KNNApproxContext(context.Background(), q, k, a)
}

// KNNApproxContext is KNNApprox with a context (see KNNContext).
func (ix *Index) KNNApproxContext(ctx context.Context, q []float64, k int, a Approx) ([]Neighbor, QueryStats, error) {
	return ix.runKNN(ctx, query{op: opKNN, point: q, k: k, approx: a})
}

// KNNShardContext is KNNApproxContext restricted to a subset of the
// declustered disks (see ShardSpec) — the per-shard-group query of a
// multi-node deployment. Results are exact over the selected disks:
// excluded disks are neither searched nor accounted, and never flag the
// query Degraded (another process shard serves them). A coordinator
// merging every group's results obtains exactly the unrestricted
// query's answer; with a.Bound it can additionally ship one group's
// k-th distance to the others (see Approx.Bound).
func (ix *Index) KNNShardContext(ctx context.Context, q []float64, k int, a Approx, shards ShardSpec) ([]Neighbor, QueryStats, error) {
	return ix.runKNN(ctx, query{op: opKNN, point: q, k: k, approx: a, shards: shards})
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
// Search: every live shard finds its local k nearest neighbors (the
// union of the local results contains the global result over the
// reachable data). A failed disk's search runs against the chained
// replica instead; shards with no live copy are skipped. Each search
// holds only its own tree's read lock, so a concurrent insert on one
// disk never blocks the searches on the others.
//
// Cooperative pruning: the shards share one lock-free bound on the
// global k-th-best distance (knn.Bound). The query's home shard — the
// disk its quadrant is declustered to, the likeliest holder of near
// neighbors — is probed synchronously first so the bound is tight
// before the fan-out starts; every other shard then stops at the first
// priority-queue node beyond the live bound and tightens the bound as
// its local k-best improves. The merged answer is provably the
// independent searches' (see DESIGN.md "Cooperative pruning").
//
// A single query fans out with one goroutine per shard. A batch item
// (item ≥ 0) searches its shards one after the other on its worker's
// goroutine — the batch is already parallel across items — so the
// bound's trajectory, and with it the pages searched and saved, is
// deterministic, unlike the parallel fan-out.
//
// Under Approx.Bound the item is a k-NN within that distance: the merge
// keeps only results inside the bound and may come up short of k, or
// empty. rk, the radius of the sphere the pages are accounted for, is
// the k-th merged distance when the merge is full and the bound when it
// is short — every page the answer depends on intersects that sphere.
// g is that sphere as accounted, the region a sequential baseline must
// be charged for too.
func (r *run) knnItem(qr *query, q vec.Point, item int, qs *QueryStats) (merged []knn.Result, rk float64, g *xtree.Region, refs []disk.PageRef, err error) {
	sr := newShardSearch(r, q, qr.k, qr.approx, item)
	defer sr.release()
	seed := -1
	if d := r.ix.homeDisk(r.st, q); r.routes[d].sh != nil {
		seed = d
		sr.search(d)
	}
	var wg sync.WaitGroup
	for d := range r.routes {
		if r.routes[d].sh == nil || d == seed {
			continue
		}
		if item >= 0 {
			sr.search(d)
			continue
		}
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			sr.search(d)
		}(d)
	}
	wg.Wait()
	// A context cancelled during the fan-out leaves some disks
	// unsearched; partial results would be silently wrong, so surface
	// the cancellation before merging.
	if err := r.ctx.Err(); err != nil {
		return nil, 0, nil, nil, err
	}
	r.visits.Add(sr.record(qs))
	if sr.shrink < 1 {
		r.sp.emit(TraceEvent{Stage: StageApprox, Disk: -1, Item: item, K: qr.k,
			Epsilon: sr.eps, Pages: qs.PagesSkippedApprox})
	}

	// Merge to the global k nearest inside the caller's bound. A shard the
	// shared bound stopped may hand back candidates beyond the bound; the
	// top k of a full merge never reaches them (see knn.HSApprox).
	total := 0
	for d := range sr.disks {
		total += len(sr.disks[d].local)
	}
	merged = make([]knn.Result, 0, total)
	for d := range sr.disks {
		merged = append(merged, sr.disks[d].local...)
	}
	slices.SortFunc(merged, knn.Result.Compare)
	if len(merged) > qr.k {
		merged = merged[:qr.k]
	}
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
	for d := range sr.disks {
		n, ok := sr.disks[d].log.Hits(g.Rank)
		if !ok {
			n = -1
		}
		sr.logged[d] = n
	}
	refs = r.pageRefs(g, sr.logged, qs)
	// Degraded only when the dead data could have changed the answer:
	// unreachable pages intersect the NN-sphere (a dead point could be
	// closer than rk), or an unbounded merge came up short of k (any
	// dead point would have made the cut). Otherwise every dead page
	// lies strictly outside the sphere and the results are provably
	// exact — a bounded merge is short because the ball is, unless dead
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

// shardSearch is the per-item state of the k-NN fan-out: one result and
// accounting slot per disk, plus the shared bound of the cooperative
// search. search is safe to call concurrently for different disks. It
// is pooled with its slots, so the search logs keep their capacity from
// one query to the next.
type shardSearch struct {
	r     *run
	q     vec.Point
	k     int
	item  int // batch item for trace events; -1 for single queries
	bound *knn.Bound

	// Approximate tier: shrink is the rank-space ε-termination factor and
	// eps the ε behind it. The tier is armed iff shrink < 1; an exact
	// query hands knn.HSApprox a shrink of 1, under which ε-termination
	// cannot fire, so exact queries stay byte-identical.
	shrink float64
	eps    float64

	disks []diskSearch
	// logged is the accounting's per-route leaf count (see run.pageRefs).
	logged []int
}

// diskSearch is one disk's slot of a shardSearch. A slot whose disk was
// not searched keeps the zero log, which serves no radius.
type diskSearch struct {
	local []knn.Result
	acc   knn.Accounting
	stats knn.ApproxStats
	log   knn.LeafLog
}

// shardSearchPool holds released shardSearches. What stays reachable
// from a pooled one is numbers only — the logs' rank slices and the
// logged counts — so the pool never keeps a tree, a result or a query
// alive (see release).
var shardSearchPool = sync.Pool{New: func() any { return new(shardSearch) }}

func newShardSearch(r *run, q vec.Point, k int, a Approx, item int) *shardSearch {
	sr := shardSearchPool.Get().(*shardSearch)
	disks, logged := sr.disks, sr.logged
	if n := len(r.routes); cap(disks) < n {
		disks, logged = make([]diskSearch, n), make([]int, n)
	} else {
		disks, logged = disks[:n], logged[:n]
	}
	*sr = shardSearch{r: r, q: q, k: k, item: item,
		shrink: knn.ShrinkFor(a.Epsilon, r.m), eps: a.Epsilon,
		bound: knn.NewBound(), disks: disks, logged: logged}
	// The externally shipped k-th-distance bound of a.Bound seeds the
	// shared bound — the receiving half of the cross-network bound
	// protocol. The rank-space seed is rounded up to the whole metric
	// ball: a point at exactly a.Bound is a tie the merge needs.
	if a.Bound > 0 {
		sr.bound.Seed(r.m.ToRankCeil(a.Bound))
	}
	return sr
}

// search runs disk d's local search via its route, under the routed
// tree's read lock. A cancelled query context skips the disk entirely —
// the fan-out checks cancellation between per-disk searches so a
// disconnected client stops burning traversal work; the caller surfaces
// ctx.Err() after the fan-out. Bound tightenings are buffered and
// emitted after the lock is released so no user code (the tracer) ever
// runs under a shard lock.
func (sr *shardSearch) search(d int) {
	r := sr.r
	if r.ctx.Err() != nil {
		return
	}
	sh, slot := r.routes[d].sh, &sr.disks[d]
	var tighs []float64
	var onTighten func(float64)
	if r.sp.on() {
		onTighten = func(sq float64) { tighs = append(tighs, sq) }
	}
	sh.mu.RLock()
	slot.local, slot.acc, slot.stats = knn.HSApprox(sh.tree, sr.q, sr.k, r.m, sr.shrink, sr.bound, &slot.log, onTighten)
	sh.mu.RUnlock()
	for _, sq := range tighs {
		r.sp.emit(TraceEvent{Stage: StageBoundTightened, Disk: d, Item: sr.item, K: sr.k,
			Radius: r.m.FromRank(sq)})
	}
	// Batch items emit one search event per item, not per disk.
	if sr.item < 0 {
		r.sp.emit(TraceEvent{Stage: StageSearch, Disk: d, Item: -1, K: sr.k,
			Results: len(slot.local), Pages: slot.acc.PageAccesses})
	}
}

// release returns sr to the pool with every slot reset to the zero log,
// keeping only the logs' capacity.
func (sr *shardSearch) release() {
	for i := range sr.disks {
		sr.disks[i] = diskSearch{log: knn.LeafLog{Ranks: sr.disks[i].log.Ranks[:0]}}
	}
	*sr = shardSearch{disks: sr.disks, logged: sr.logged}
	shardSearchPool.Put(sr)
}

// record folds the finished fan-out into the query's stats and returns
// the node-visit count for the registry.
func (sr *shardSearch) record(qs *QueryStats) (nodeVisits int64) {
	for d := range sr.disks {
		s := &sr.disks[d]
		nodeVisits += int64(s.acc.DirAccesses + s.acc.LeafAccesses)
		qs.SearchPages += s.acc.PageAccesses
		qs.PagesSavedByBound += s.stats.Saved.PageAccesses
		qs.BoundTightenings += s.stats.Tightened
		qs.PagesSavedByRemoteBound += s.stats.RemotePages
		qs.PagesSkippedApprox += s.stats.SkippedPages
	}
	if sr.shrink < 1 {
		qs.EffectiveEpsilon = sr.eps
	}
	return nodeVisits
}

// homeDisk returns the disk the declustering assigns the query point's
// own cell to — the shard likeliest to hold near neighbors, and hence
// the seeding probe of the cooperative search. Point-based assigners
// (round robin) have no home quadrant and seed disk 0; any probe warms
// the bound, correctness never depends on the choice.
func (ix *Index) homeDisk(st *state, q vec.Point) int {
	return st.assigner.Assign(0, q)
}

// HomeDisk returns the disk the declustering assigns the query point's
// cell to — the disk likeliest to hold q's near neighbors. A
// multi-node coordinator uses it to pick the first shard group of the
// two-phase bound protocol (group HomeDisk(q) mod number of shards);
// correctness never depends on the choice, only pruning quality does.
func (ix *Index) HomeDisk(q []float64) (int, error) {
	if len(q) != ix.opts.Dim {
		return 0, fmt.Errorf("parsearch: query dimension %d, want %d", len(q), ix.opts.Dim)
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.homeDisk(ix.st, q), nil
}

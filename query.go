package parsearch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"parsearch/internal/disk"
	"parsearch/internal/metrics"
	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// This file is the query pipeline every exported query method runs
// through. An entry point only builds a query value; the stages below
// each exist once:
//
//	begin → plan → search + merge → pageRefs → finishIO → baselineCost → end
//
// The search stage is the per-item k-NN step (query_knn.go; batches run
// it once per item, batch.go) or the box search (query_range.go). See
// DESIGN.md "Query pipeline".

// ErrEmpty is returned by queries on an empty index.
var ErrEmpty = errors.New("parsearch: index is empty")

// queryOp is the kind of a query: it selects the argument checks, the
// op name of the trace span and the search stage.
type queryOp int

const (
	opKNN          queryOp = iota // one k-NN point
	opBatch                       // many k-NN points sharing one plan and one I/O phase
	opRange                       // an axis-aligned box
	opPartialMatch                // a box derived from a partial-match spec
)

// spanOps names each op in trace events; to a tracer a partial match is
// the range query it runs as.
var spanOps = [...]string{opKNN: "knn", opBatch: "batch", opRange: "range", opPartialMatch: "range"}

// query is one call of an exported query method, as the pipeline sees
// it: what to search for and under which per-query knobs.
type query struct {
	op queryOp
	// point is the k-NN query point (opKNN) or the partial-match spec
	// with Wildcard in the unspecified dimensions (opPartialMatch);
	// batch holds the k-NN points of an opBatch.
	point []float64
	batch [][]float64
	k     int
	// approx is always resolved: the caller's knobs, or the index
	// defaults for the entry points that take none.
	approx Approx
	// min and max are the box of an opRange; for an opPartialMatch
	// validate derives them from point ± tol.
	min, max []float64
	tol      float64
	shards   ShardSpec
}

// validate checks the caller's arguments against the index shape, in
// the order the entry points have always reported them: approximate
// knobs, shard restriction, then the op's own arguments.
func (qr *query) validate(dim, disks int) error {
	if err := qr.approx.validate(); err != nil {
		return err
	}
	if err := qr.shards.validate(disks); err != nil {
		return err
	}
	switch qr.op {
	case opKNN:
		if len(qr.point) != dim {
			return fmt.Errorf("parsearch: query dimension %d, want %d", len(qr.point), dim)
		}
		if qr.k < 1 {
			return fmt.Errorf("parsearch: k = %d", qr.k)
		}
		if i := nonFinite(qr.point); i >= 0 {
			return fmt.Errorf("parsearch: query component %d is %v, not finite", i, qr.point[i])
		}
	case opBatch:
		if qr.k < 1 {
			return fmt.Errorf("parsearch: k = %d", qr.k)
		}
		for i, q := range qr.batch {
			if len(q) != dim {
				return fmt.Errorf("parsearch: query %d has dimension %d, want %d", i, len(q), dim)
			}
			if j := nonFinite(q); j >= 0 {
				return fmt.Errorf("parsearch: query %d component %d is %v, not finite", i, j, q[j])
			}
		}
	case opPartialMatch:
		if len(qr.point) != dim {
			return fmt.Errorf("parsearch: partial-match spec has dimension %d, want %d", len(qr.point), dim)
		}
		if qr.tol < 0 {
			return fmt.Errorf("parsearch: negative tolerance %v", qr.tol)
		}
		qr.min, qr.max = make([]float64, dim), make([]float64, dim)
		specified := 0
		for i, v := range qr.point {
			if math.IsNaN(v) {
				qr.min[i], qr.max[i] = math.Inf(-1), math.Inf(1)
				continue
			}
			specified++
			qr.min[i], qr.max[i] = v-qr.tol, v+qr.tol
		}
		if specified == 0 {
			return fmt.Errorf("parsearch: partial-match query specifies no dimension")
		}
		fallthrough
	case opRange:
		if len(qr.min) != dim || len(qr.max) != dim {
			return fmt.Errorf("parsearch: range bounds have dimensions %d/%d, want %d",
				len(qr.min), len(qr.max), dim)
		}
		for i := range qr.min {
			if qr.min[i] > qr.max[i] {
				return fmt.Errorf("parsearch: range min > max in dimension %d", i)
			}
		}
	}
	return nil
}

// nonFinite returns the first NaN or infinite component of a k-NN query
// point, or -1. Such a point is refused: its distances would be NaN or
// +Inf, which rank nothing.
func nonFinite(p []float64) int {
	for i, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i
		}
	}
	return -1
}

// run is the state one query carries through the pipeline stages.
type run struct {
	ix    *Index
	ctx   context.Context
	sp    span
	start time.Time
	// v is the version the query reads, loaded once.
	v *version
	m vec.Metric
	// routes and degraded are the plan stage's output: the failure
	// routing of every disk, and whether a non-empty shard has no live
	// copy.
	routes   []route
	degraded bool
	// visits counts the tree nodes the search stage traversed; end
	// charges them to the registry, so a query that fails after
	// searching still accounts the work it did.
	visits atomic.Int64
}

// admit is the argument and liveness check every query passes before it
// is planned, against the version it reads.
func (ix *Index) admit(v *version, qr *query) error {
	if err := qr.validate(ix.opts.Dim, ix.opts.Disks); err != nil {
		return err
	}
	if v.live == 0 {
		return ErrEmpty
	}
	return nil
}

// begin opens a query: it starts the trace span, loads the published
// version, and admits the query. The caller always defers end, error or
// not — which is what counts and traces the rejection: no query fails
// outside a span.
func (ix *Index) begin(ctx context.Context, qr *query) (*run, error) {
	r := &run{ix: ix, ctx: ctx, start: time.Now(), m: ix.metric(), v: ix.pub.Load()}
	r.sp = ix.newSpan(ctx, spanOps[qr.op])
	if err := ix.admit(r.v, qr); err != nil {
		return r, err
	}
	return r, ctx.Err()
}

// end closes the query begin opened: it charges the traversal work, and
// counts and traces the error the query is about to return (if any).
func (r *run) end(err *error) {
	r.ix.reg.NodeVisits.Add(r.visits.Load())
	if *err != nil {
		r.ix.reg.QueryErrors.Inc()
		r.sp.errEvent(*err)
	}
}

// plan is the routing stage: it plans the failure routing once (see
// Index.plan), so the same snapshot of the failure flags drives the
// search and the I/O accounting and the query sees one consistent
// failure state. A batch plans once for all its items.
func (r *run) plan(shards ShardSpec) {
	r.routes, r.degraded = r.ix.plan(r.v, shards.mask(r.ix.opts.Disks))
	r.sp.planEvents(r.routes, r.degraded)
}

// descendLeaves counts the leaf pages of the tree that g hits. The tree
// prunes the walk to the hit pages (xtree.Tree.HitLeaves), so it costs
// what the query reads, not what the disk holds.
func descendLeaves(t *xtree.Tree, g *xtree.Region) (leaves int) {
	t.HitLeaves(g, func(*xtree.Node) { leaves++ })
	return leaves
}

// logSeam, when set, is handed the search stage's per-route leaf counts
// of every query that has them, before pageRefs completes them. Only
// tests set it (TestAccountingFromSearchLog); a test may also overwrite
// counts with -1 there to force the descent.
var logSeam func(r *run, g *xtree.Region, logged []int)

// pageRefs is the page-accounting stage: it collects the page reads a
// query requires — every storage unit intersecting the query's region
// (the NN-sphere of a k-NN query, the box of a range query) — per the
// configured cost model: the leaf pages of the trees the routing
// actually searches (real system: every disk packs its share of the
// data into its own index pages) or the quadrant bucket pages (the
// paper's idealized storage of §3; §3.2: the partitions intersecting
// the NN-sphere should be distributed over different disks). Page
// counts, intersected cells, and the degraded-mode accounting
// (Unreachable, Rerouted) are recorded into qs; the returned refs feed
// the disk array and only name disks the routing selected as live.
// Masked disks are another process shard's to account.
//
// Under TreePages, logged[d] ≥ 0 is the number of leaves of route d's
// tree that g hits, as the search stage read them off its own traversal
// (see knn.LeafLog, xtree.Tree.RangeSearch); pageRefs charges them
// without touching the tree. A negative entry, or a nil logged, makes it
// descend the tree instead (descendLeaves): a route with no live copy
// (its primary's pages count as Unreachable), or a search log that
// cannot tell. pageRefs completes logged in place with the counts it
// charged. Leaves are single blocks (xtree.Tree.CheckInvariants), so a
// route's reads are that many one-block refs, in route order — the
// refs the descent's leaf-by-leaf enumeration yields, value for value.
// The cell scan of the bucket model runs under meta.
func (r *run) pageRefs(g *xtree.Region, logged []int, qs *QueryStats) []disk.PageRef {
	qs.PagesPerDisk = make([]int, len(r.v.shards))
	if r.ix.opts.CostModel == BucketPages {
		return r.bucketRefs(g, qs)
	}
	if logged == nil {
		logged = make([]int, len(r.routes))
		for d := range logged {
			logged[d] = -1
		}
	} else if logSeam != nil {
		logSeam(r, g, logged)
	}
	total := 0
	for d, rt := range r.routes {
		if rt.masked {
			continue
		}
		if logged[d] < 0 {
			t := rt.tree
			if t == nil {
				t = r.v.shards[d]
			}
			logged[d] = descendLeaves(t, g)
		}
		qs.Cells += logged[d]
		if charge(qs, rt, logged[d]) {
			total += logged[d]
		}
	}
	refs := make([]disk.PageRef, 0, total)
	for d, rt := range r.routes {
		if rt.masked || rt.tree == nil {
			continue
		}
		for range logged[d] {
			refs = append(refs, disk.PageRef{Disk: rt.disk, Blocks: 1})
		}
	}
	return refs
}

// bucketRefs is pageRefs under BucketPages: one read of the cell's
// bucket pages per quadrant cell g hits, charged to the disk its route
// selected.
func (r *run) bucketRefs(g *xtree.Region, qs *QueryStats) (refs []disk.PageRef) {
	leafCap := r.ix.treeConfig().LeafCapacity
	r.ix.meta.Lock()
	defer r.ix.meta.Unlock()
	for i := range r.v.st.cells {
		c := &r.v.st.cells[i]
		rt := r.routes[c.disk]
		if c.count == 0 || rt.masked || !g.Hits(c.rect) {
			continue
		}
		pages := (c.count + leafCap - 1) / leafCap
		qs.Cells++
		if charge(qs, rt, pages) {
			refs = append(refs, disk.PageRef{Disk: rt.disk, Blocks: pages})
		}
	}
	return refs
}

// charge records pages the query needs through route rt: read from the
// disk the routing selected (it reports true), or counted as
// Unreachable when no live copy holds them.
func charge(qs *QueryStats, rt route, pages int) (read bool) {
	if rt.tree == nil {
		qs.Unreachable += pages
		return false
	}
	if rt.rerouted {
		qs.Rerouted += pages
	}
	qs.PagesPerDisk[rt.disk] += pages
	return true
}

// finishIO is the I/O stage of a single query: it runs the page reads
// through the disk array — unless the client is already gone, which
// would only burn simulated disk time — completes the stats from the
// executed batch, and records the query in the registry under kind.
func (r *run) finishIO(kind *metrics.Counter, refs []disk.PageRef, qs *QueryStats) error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	batch, err := r.ix.array.ReadBatch(refs)
	if err != nil {
		return fmt.Errorf("parsearch: %w", err)
	}
	qs.MaxPages = batch.MaxPerDisk
	qs.TotalPages = batch.Total
	qs.Retries = batch.Retries
	qs.ParallelTime = batch.ParallelTime.Seconds()
	qs.SequentialTime = batch.SequentialTime.Seconds()
	qs.Speedup = batch.Speedup()
	r.sp.ioEvents(batch)
	r.ix.recordQuery(qs)
	r.ix.recordCall(kind, batch, r.start)
	return nil
}

// baselineCost fills the sequential-baseline stats (Options.Baseline):
// the pages of the one X-tree over all data that the query's region
// intersects, and the speed-up of the parallel search — already costed
// in qs — over reading them from a single disk.
func (r *run) baselineCost(g *xtree.Region, qs *QueryStats) {
	if r.v.baseline == nil {
		return
	}
	leaves := descendLeaves(r.v.baseline, g)
	qs.SeqPages += leaves
	qs.BaselineTime = r.ix.params.SimulateCost(leaves, qs.SeqPages).Seconds()
	if qs.ParallelTime > 0 {
		qs.BaselineSpeedup = qs.BaselineTime / qs.ParallelTime
	}
}

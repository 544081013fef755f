package parsearch

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parsearch/internal/disk"
	"parsearch/internal/knn"
)

// BatchStats reports the cost of processing a whole query batch — the
// throughput view the paper names as future work ("declustering
// techniques which optimize the throughput instead of the search time
// for a single query"). Under concurrent load the *total* work per disk
// matters, not the per-query bottleneck.
type BatchStats struct {
	// Queries is the batch size.
	Queries int
	// Workers is the size of the worker pool that processed the batch
	// (Options.BatchWorkers, capped at the batch size; GOMAXPROCS when
	// unset).
	Workers int
	// PagesPerDisk is the total number of pages each disk read for the
	// whole batch.
	PagesPerDisk []int
	// TotalPages is the batch's total page count.
	TotalPages int
	// MakespanSeconds is the simulated time until the last disk
	// finished its share of the batch.
	MakespanSeconds float64
	// QueriesPerSecond is Queries / MakespanSeconds.
	QueriesPerSecond float64
	// Utilization is the mean disk busy-fraction over the makespan
	// (1.0 = perfectly balanced).
	Utilization float64
	// Degraded reports that at least one query of the batch was
	// degraded — unreachable data could have affected its answer (see
	// QueryStats.Degraded).
	Degraded bool
	// Unreachable is the total number of pages the batch needed whose
	// primary and replica disks were both failed.
	Unreachable int
	// Rerouted is the total number of pages served by replica disks
	// because the primary was failed.
	Rerouted int
	// Retries is the number of read retries the fault model's transient
	// errors caused across the whole batch.
	Retries int
	// SearchPages is the total number of index pages the batch's
	// per-disk searches traversed; PagesSavedByBound the pages the
	// shared bound pruned (see QueryStats). Within a batch item the
	// shards are searched sequentially, so both totals are
	// deterministic for a given index state.
	SearchPages       int
	PagesSavedByBound int
	// PagesSavedByRemoteBound totals the per-query savings attributable
	// to an externally seeded bound (see QueryStats). 0 without
	// Approx.Bound.
	PagesSavedByRemoteBound int
	// BoundTightenings counts how often the batch's searches lowered
	// their per-query shared bounds.
	BoundTightenings int
	// DistCompsSaved is the total number of exact distance computations
	// the SQ8 pre-filter skipped across the batch (see QueryStats).
	DistCompsSaved int
	// PagesSkippedApprox and ProbePages total the approximate tier's
	// per-query counters across the batch (see QueryStats). 0 on exact
	// batches.
	PagesSkippedApprox int
	ProbePages         int
	// PerQuery holds each query's own cost statistics: PerQuery[i]
	// describes queries[i]. Page counts are exact regardless of how the
	// scheduler interleaved the workers; times are derived from the
	// service-time model as if the query ran alone (the disk array's
	// lifetime counters are charged once, for the aggregated batch).
	PerQuery []QueryStats
}

// batchWorkers returns the worker-pool size for a batch of n queries.
func (ix *Index) batchWorkers(n int) int {
	w := ix.opts.BatchWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// fillQueryCost completes a per-query QueryStats from its page refs:
// totals, bottleneck, and model-derived times (the same seek/transfer
// accounting the disk array applies).
func fillQueryCost(qs *QueryStats, refs []disk.PageRef, params disk.Params, disks int) {
	reads := make([]int, disks)
	for _, r := range refs {
		reads[r.Disk]++
	}
	var par, seq time.Duration
	for d := 0; d < disks; d++ {
		qs.TotalPages += qs.PagesPerDisk[d]
		if qs.PagesPerDisk[d] > qs.MaxPages {
			qs.MaxPages = qs.PagesPerDisk[d]
		}
		t := params.SimulateCost(reads[d], qs.PagesPerDisk[d])
		seq += t
		if t > par {
			par = t
		}
	}
	qs.ParallelTime = par.Seconds()
	qs.SequentialTime = seq.Seconds()
	if par > 0 {
		qs.Speedup = float64(seq) / float64(par)
	}
}

// ServiceDemands computes, for every query, the service time in seconds
// each disk would spend answering a k-NN query — the input for capacity
// planning and queueing simulation (see internal/sim and the
// ext-queueing experiment). demands[i][d] is query i's demand on disk d.
// Capacity planning models the healthy system: failure flags and
// replica rerouting are ignored.
func (ix *Index) ServiceDemands(queries [][]float64, k int) ([][]float64, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	st := ix.st
	if k < 1 {
		return nil, fmt.Errorf("parsearch: k = %d", k)
	}
	if ix.liveCount() == 0 {
		return nil, ErrEmpty
	}
	m := ix.metric()
	routes := healthyPlan(st)
	demands := make([][]float64, len(queries))
	for i, q := range queries {
		if len(q) != ix.opts.Dim {
			return nil, fmt.Errorf("parsearch: query %d has dimension %d, want %d", i, len(q), ix.opts.Dim)
		}
		var merged []knn.Result
		for _, sh := range st.shards {
			sh.mu.RLock()
			res, _ := knn.HSMetric(sh.tree, q, k, m)
			sh.mu.RUnlock()
			merged = append(merged, res...)
		}
		sortResults(merged)
		if len(merged) > k {
			merged = merged[:k]
		}
		if len(merged) == 0 {
			return nil, ErrEmpty
		}
		rk := merged[len(merged)-1].Dist

		qs := QueryStats{PagesPerDisk: make([]int, len(st.shards))}
		reads := make([]int, len(st.shards))
		refs := ix.sphereRefs(st, routes, q, rk, &qs)
		for _, ref := range refs {
			reads[ref.Disk]++
		}
		row := make([]float64, len(st.shards))
		for d := range row {
			row[d] = ix.params.SimulateCost(reads[d], qs.PagesPerDisk[d]).Seconds()
		}
		demands[i] = row
	}
	return demands, nil
}

// BatchKNN answers many k-NN queries as one batch: a worker pool of
// Options.BatchWorkers goroutines (default GOMAXPROCS) processes the
// queries, each query still fanning out over all disks, and the I/O
// phase charges every disk the union of its page reads across the batch.
// The i-th result corresponds to queries[i]; BatchStats.PerQuery carries
// each query's own cost accounting. Results and statistics are
// deterministic for a given index state regardless of the worker count
// or scheduling order.
func (ix *Index) BatchKNN(queries [][]float64, k int) ([][]Neighbor, BatchStats, error) {
	return ix.BatchKNNContext(context.Background(), queries, k)
}

// BatchKNNApprox is BatchKNN with per-query approximate-search knobs,
// applied to every query of the batch (see KNNApprox).
func (ix *Index) BatchKNNApprox(queries [][]float64, k int, a Approx) ([][]Neighbor, BatchStats, error) {
	return ix.BatchKNNApproxContext(context.Background(), queries, k, a)
}

// BatchKNNApproxContext is BatchKNNApprox with a context (see
// BatchKNNContext).
func (ix *Index) BatchKNNApproxContext(ctx context.Context, queries [][]float64, k int, a Approx) ([][]Neighbor, BatchStats, error) {
	if err := a.validate(); err != nil {
		return nil, BatchStats{}, err
	}
	return ix.batchKNNContext(ctx, queries, k, a, ShardSpec{})
}

// BatchKNNShardContext is BatchKNNApproxContext restricted to a subset
// of the declustered disks (see ShardSpec and KNNShardContext), applied
// to every query of the batch.
func (ix *Index) BatchKNNShardContext(ctx context.Context, queries [][]float64, k int, a Approx, shards ShardSpec) ([][]Neighbor, BatchStats, error) {
	if err := a.validate(); err != nil {
		return nil, BatchStats{}, err
	}
	if err := shards.validate(ix.opts.Disks); err != nil {
		return nil, BatchStats{}, err
	}
	return ix.batchKNNContext(ctx, queries, k, a, shards)
}

// BatchKNNContext is BatchKNN with a context, which may carry a
// per-request tracer (see WithTracer) and a deadline. Batch traces
// share one query sequence number; per-item events carry the batch
// index in Item. Cancellation is honored between per-disk searches and
// between batch items: a cancelled context makes the batch return
// ctx.Err() without starting further shard searches or the simulated
// I/O phase.
func (ix *Index) BatchKNNContext(ctx context.Context, queries [][]float64, k int) ([][]Neighbor, BatchStats, error) {
	return ix.batchKNNContext(ctx, queries, k, ix.ApproxDefaults(), ShardSpec{})
}

// batchKNNContext runs one batch with the resolved approximate-search
// knobs and shard restriction (both already validated).
func (ix *Index) batchKNNContext(ctx context.Context, queries [][]float64, k int, a Approx, shards ShardSpec) (_ [][]Neighbor, stats BatchStats, err error) {
	start := time.Now()
	// The span starts before the lock, so a wait behind Reorganize's
	// write lock shows up in the events' Elapsed.
	sp := ix.newSpan(ctx, "batch")
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	st := ix.st

	defer func() {
		if err != nil {
			ix.reg.QueryErrors.Inc()
			sp.errEvent(err)
		}
	}()

	if k < 1 {
		return nil, stats, fmt.Errorf("parsearch: k = %d", k)
	}
	for i, q := range queries {
		if len(q) != ix.opts.Dim {
			return nil, stats, fmt.Errorf("parsearch: query %d has dimension %d, want %d", i, len(q), ix.opts.Dim)
		}
	}
	if ix.liveCount() == 0 {
		return nil, stats, ErrEmpty
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	stats.Queries = len(queries)
	stats.PagesPerDisk = make([]int, len(st.shards))
	if len(queries) == 0 {
		return nil, stats, nil
	}

	// Plan the failure routing once for the whole batch: every query of
	// the batch sees the same consistent failure snapshot (see KNN).
	routes, degraded := ix.plan(st, shards.mask(ix.opts.Disks))
	sp.planEvents(routes, degraded)

	// Result phase: the worker pool answers the queries and computes
	// each query's page refs and per-query statistics. Everything is
	// stored per query index, so the final aggregation is a
	// deterministic fold no matter how the workers interleaved.
	workers := ix.batchWorkers(len(queries))
	stats.Workers = workers
	results := make([][]Neighbor, len(queries))
	perQuery := make([]QueryStats, len(queries))
	refsPerQuery := make([][]disk.PageRef, len(queries))
	errs := make([]error, len(queries))
	m := ix.metric()
	var nodeVisits atomic.Int64
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				// A cancelled batch stops picking up items; the items
				// already attempted surface the cancellation below.
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				q := queries[i]
				// One shared bound per batch item, seeded on the home
				// shard and consulted across the remaining shards. A
				// worker searches its item's shards sequentially, so the
				// bound's trajectory — and with it the pages saved — is
				// deterministic, unlike the parallel fan-out of KNN.
				sr := newShardSearch(ctx, ix, &sp, st, q, k, m)
				sr.setApprox(a, ix.opts.LSH)
				sr.seedBound(a)
				sr.item, sr.emit = i, false
				seed := -1
				if sr.bound != nil {
					if d := ix.homeDisk(st, q); routes[d].sh != nil {
						seed = d
						sr.search(routes[d], d)
					}
				}
				for d := range routes {
					if routes[d].sh == nil || d == seed {
						continue
					}
					sr.search(routes[d], d)
				}
				var merged []knn.Result
				for _, l := range sr.locals {
					merged = append(merged, l...)
				}
				sortResults(merged)
				if len(merged) > k {
					merged = merged[:k]
				}
				if len(merged) == 0 {
					if degraded {
						// Every live copy of the data is unreachable.
						errs[i] = ErrUnavailable
					} else {
						// Concurrent deletions emptied the index.
						errs[i] = ErrEmpty
					}
					continue
				}
				rk := merged[len(merged)-1].Dist
				out := make([]Neighbor, len(merged))
				for j, r := range merged {
					out[j] = Neighbor{ID: r.Entry.ID, Point: r.Entry.Point, Dist: r.Dist}
				}
				results[i] = out

				qs := QueryStats{PagesPerDisk: make([]int, len(st.shards))}
				nodeVisits.Add(sr.record(&qs))
				if sr.approx {
					sp.emit(TraceEvent{Stage: StageApprox, Disk: -1, Item: i, K: k,
						Epsilon: sr.eps, Pages: qs.PagesSkippedApprox})
				}
				refs := ix.sphereRefs(st, routes, q, rk, &qs)
				// Per-query degraded refinement as in KNN: only when the
				// dead data could have changed this query's answer.
				qs.Degraded = qs.Unreachable > 0 || (degraded && len(merged) < k)
				fillQueryCost(&qs, refs, ix.params, len(st.shards))
				perQuery[i] = qs
				refsPerQuery[i] = refs
				sp.emit(TraceEvent{Stage: StageSearch, Disk: -1, Item: i, K: k,
					Results: len(out), Pages: qs.TotalPages, Radius: rk,
					Degraded: qs.Degraded})
			}
		}()
	}
	for i := range queries {
		next <- i
	}
	close(next)
	wg.Wait()
	// Cancellation during the fan-out takes precedence over per-item
	// errors: partially searched items must not look like ErrEmpty.
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, stats, err
		}
	}
	stats.PerQuery = perQuery

	// I/O phase: aggregate the page reads of the whole batch in query
	// order and run them through the disk array once.
	var refs []disk.PageRef
	for i := range refsPerQuery {
		refs = append(refs, refsPerQuery[i]...)
		for d, pages := range perQuery[i].PagesPerDisk {
			stats.PagesPerDisk[d] += pages
		}
		stats.Unreachable += perQuery[i].Unreachable
		stats.Rerouted += perQuery[i].Rerouted
		stats.SearchPages += perQuery[i].SearchPages
		stats.PagesSavedByBound += perQuery[i].PagesSavedByBound
		stats.PagesSavedByRemoteBound += perQuery[i].PagesSavedByRemoteBound
		stats.BoundTightenings += perQuery[i].BoundTightenings
		stats.DistCompsSaved += perQuery[i].DistCompsSaved
		stats.PagesSkippedApprox += perQuery[i].PagesSkippedApprox
		stats.ProbePages += perQuery[i].ProbePages
		stats.Degraded = stats.Degraded || perQuery[i].Degraded
	}
	batch, err := ix.array.ReadBatch(refs)
	if err != nil {
		return nil, stats, fmt.Errorf("parsearch: %w", err)
	}
	stats.TotalPages = batch.Total
	stats.Retries = batch.Retries
	stats.MakespanSeconds = batch.ParallelTime.Seconds()
	if stats.MakespanSeconds > 0 {
		stats.QueriesPerSecond = float64(stats.Queries) / stats.MakespanSeconds
		stats.Utilization = batch.SequentialTime.Seconds() /
			(stats.MakespanSeconds * float64(len(st.shards)))
	}
	sp.ioEvents(batch)
	ix.recordBatch(&stats, batch, nodeVisits.Load(), start)
	sp.emit(TraceEvent{Stage: StageDone, Disk: -1, Item: -1, K: k,
		Results: stats.Queries, Pages: stats.TotalPages, Degraded: stats.Degraded})
	return results, stats, nil
}

// recordBatch folds a finished batch into the metrics registry: the
// batch counts as one QueriesBatch call and len(PerQuery) BatchQueries;
// pages and fault counters are charged from the aggregated batch so the
// registry totals match the sum of the per-query stats.
func (ix *Index) recordBatch(bs *BatchStats, batch disk.BatchResult, nodeVisits int64, start time.Time) {
	ix.reg.QueriesBatch.Inc()
	ix.reg.BatchQueries.Add(int64(bs.Queries))
	ix.reg.NodeVisits.Add(nodeVisits)
	ix.reg.PagesRead.Add(int64(bs.TotalPages))
	ix.reg.Retries.Add(int64(bs.Retries))
	ix.reg.Rerouted.Add(int64(bs.Rerouted))
	ix.reg.Unreachable.Add(int64(bs.Unreachable))
	ix.reg.SearchPages.Add(int64(bs.SearchPages))
	ix.reg.PagesSavedByBound.Add(int64(bs.PagesSavedByBound))
	ix.reg.PagesSavedByRemoteBound.Add(int64(bs.PagesSavedByRemoteBound))
	ix.reg.BoundTightenings.Add(int64(bs.BoundTightenings))
	ix.reg.DistCompsSaved.Add(int64(bs.DistCompsSaved))
	// One wall-clock observation for the whole call: the histogram
	// tracks API-call latencies, and the batch is one call.
	ix.reg.QueryWallNs.Observe(time.Since(start).Nanoseconds())
	for d, pages := range bs.PagesPerDisk {
		ix.reg.PagesPerDisk.Add(d, int64(pages))
	}
	for d, t := range batch.Times {
		ix.reg.ServiceTimePerDisk.Add(d, t.Nanoseconds())
	}
	for i := range bs.PerQuery {
		qs := &bs.PerQuery[i]
		ix.reg.CellsVisited.Add(int64(qs.Cells))
		if qs.Degraded {
			ix.reg.DegradedQueries.Inc()
		}
		ix.recordApprox(qs)
		ix.reg.QueryPages.Observe(int64(qs.TotalPages))
		ix.reg.QueryTimeNs.Observe(int64(qs.ParallelTime * 1e9))
	}
}

package parsearch

import (
	"context"
	"fmt"
	"runtime"
	"sync"
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
	// (GOMAXPROCS, capped at the batch size).
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
	// searches traversed; PagesSavedByBound totals the per-query
	// estimate of what independent per-disk searches would have gone on
	// to read (see QueryStats). Both are deterministic for a given index
	// state.
	SearchPages       int
	PagesSavedByBound int
	// PagesSavedByRemoteBound totals the per-query savings attributable
	// to an externally seeded bound (see QueryStats). 0 without
	// Approx.Bound.
	PagesSavedByRemoteBound int
	// PagesSkippedApprox totals the approximate tier's per-query counter
	// across the batch (see QueryStats). 0 on exact batches.
	PagesSkippedApprox int
	// PerQuery holds each query's own cost statistics: PerQuery[i]
	// describes queries[i]. Page counts are exact regardless of how the
	// scheduler interleaved the workers; times are derived from the
	// service-time model as if the query ran alone (the disk array's
	// lifetime counters are charged once, for the aggregated batch).
	PerQuery []QueryStats
}

// batchWorkers returns the worker-pool size for a batch of n queries.
func (ix *Index) batchWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	return w
}

// diskCosts returns the model service time every disk spends on one
// query's page refs (the same seek/transfer accounting the disk array
// applies): a seek per ref, a transfer per page.
func diskCosts(qs *QueryStats, refs []disk.PageRef, params disk.Params) []time.Duration {
	reads := make([]int, len(qs.PagesPerDisk))
	for _, r := range refs {
		reads[r.Disk]++
	}
	costs := make([]time.Duration, len(reads))
	for d := range costs {
		costs[d] = params.SimulateCost(reads[d], qs.PagesPerDisk[d])
	}
	return costs
}

// fillQueryCost completes a per-query QueryStats from its page refs:
// totals, bottleneck, and model-derived times.
func fillQueryCost(qs *QueryStats, refs []disk.PageRef, params disk.Params) {
	var par, seq time.Duration
	for d, t := range diskCosts(qs, refs, params) {
		qs.TotalPages += qs.PagesPerDisk[d]
		if qs.PagesPerDisk[d] > qs.MaxPages {
			qs.MaxPages = qs.PagesPerDisk[d]
		}
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
// ext-queueing experiment). demands[i][d] is query i's demand on disk d:
// each row runs the same per-item step as KNN(queries[i], k), so on a
// healthy index it is the disk model applied to that query's
// PagesPerDisk. Capacity planning models the healthy system: failure
// flags and replica rerouting are ignored, and nothing is charged to the
// disks, the registry or a tracer.
func (ix *Index) ServiceDemands(queries [][]float64, k int) ([][]float64, error) {
	qr := query{op: opBatch, batch: queries, k: k, approx: ix.ApproxDefaults()}
	v := ix.pub.Load()
	if err := ix.admit(v, &qr); err != nil {
		return nil, err
	}
	r := &run{ix: ix, ctx: context.Background(), v: v, m: ix.metric(), routes: healthyPlan(v)}
	demands := make([][]float64, len(queries))
	for i, q := range queries {
		var qs QueryStats
		_, _, _, refs, err := r.knnItem(&qr, q, i, &qs)
		if err != nil {
			return nil, err
		}
		costs := diskCosts(&qs, refs, ix.params)
		demands[i] = make([]float64, len(costs))
		for d, t := range costs {
			demands[i][d] = t.Seconds()
		}
	}
	return demands, nil
}

// BatchKNNShardContext answers many k-NN queries as one batch, each
// under a and on the disks shards selects (see KNNShardContext): a
// worker pool of GOMAXPROCS goroutines processes the queries, each query
// still searching every selected disk, and the I/O phase charges every
// disk the union of its page reads across the batch. The i-th result
// corresponds to queries[i]; BatchStats.PerQuery carries each query's
// own cost accounting. Results and statistics are deterministic for a
// given index state regardless of the worker count or scheduling order.
//
// ctx may carry a per-request tracer (see WithTracer) and a deadline.
// Batch traces share one query sequence number; per-item events carry
// the batch index in Item. Cancellation is honored within an item's
// search and between batch items: a cancelled context makes the batch
// return ctx.Err() without starting further shard searches or the
// simulated I/O phase.
func (ix *Index) BatchKNNShardContext(ctx context.Context, queries [][]float64, k int, a Approx, shards ShardSpec) ([][]Neighbor, BatchStats, error) {
	return ix.runBatch(ctx, query{op: opBatch, batch: queries, k: k, approx: a, shards: shards})
}

// BatchKNNContext is BatchKNNShardContext over every disk under the
// index's default Approx (see ApproxDefaults).
func (ix *Index) BatchKNNContext(ctx context.Context, queries [][]float64, k int) ([][]Neighbor, BatchStats, error) {
	return ix.runBatch(ctx, query{op: opBatch, batch: queries, k: k, approx: ix.ApproxDefaults()})
}

// runBatch runs one batch through the pipeline: one begin and one plan
// (every query of the batch sees the same consistent failure snapshot),
// the per-item k-NN step on a worker pool, and one I/O phase over the
// union of the items' page reads.
func (ix *Index) runBatch(ctx context.Context, qr query) (_ [][]Neighbor, stats BatchStats, err error) {
	r, err := ix.begin(ctx, &qr)
	defer r.end(&err)
	if err != nil {
		return nil, stats, err
	}
	queries, disks := qr.batch, len(r.v.shards)
	stats.Queries = len(queries)
	stats.PagesPerDisk = make([]int, disks)
	if len(queries) == 0 {
		return nil, stats, nil
	}
	r.plan(qr.shards)

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
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				// A cancelled batch stops picking up items; the items
				// already attempted surface the cancellation below.
				if errs[i] = ctx.Err(); errs[i] != nil {
					continue
				}
				qs := &perQuery[i]
				var merged []knn.Result
				var rk float64
				merged, rk, _, refsPerQuery[i], errs[i] = r.knnItem(&qr, queries[i], i, qs)
				if errs[i] != nil {
					continue
				}
				results[i] = neighbors(merged)
				fillQueryCost(qs, refsPerQuery[i], ix.params)
				r.sp.emit(TraceEvent{Stage: StageSearch, Disk: -1, Item: i, K: qr.k,
					Results: len(merged), Pages: qs.TotalPages, Radius: rk,
					Degraded: qs.Degraded})
			}
		}()
	}
	for i := range queries {
		next <- i
	}
	close(next)
	wg.Wait()
	// Cancellation during the searches takes precedence over per-item
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
		stats.PagesSkippedApprox += perQuery[i].PagesSkippedApprox
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
			(stats.MakespanSeconds * float64(disks))
	}
	r.sp.ioEvents(batch)
	// The batch counts as one QueriesBatch call over len(queries)
	// BatchQueries, each recorded like a single query.
	for i := range perQuery {
		ix.recordQuery(&perQuery[i])
	}
	ix.reg.BatchQueries.Add(int64(stats.Queries))
	ix.recordCall(&ix.reg.QueriesBatch, batch, r.start)
	r.sp.emit(TraceEvent{Stage: StageDone, Disk: -1, Item: -1, K: qr.k,
		Results: stats.Queries, Pages: stats.TotalPages, Degraded: stats.Degraded})
	return results, stats, nil
}

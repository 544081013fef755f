package server

import (
	"context"
	"sync"
	"time"

	"parsearch"
)

// Request coalescing: concurrent single-query k-NN requests are
// grouped into one BatchKNN call, amortizing the per-query fan-out
// setup and letting the engine's worker pool and per-item shared
// bounds do the heavy lifting — the batching insight of online
// similarity serving (Teodoro et al.). A group collects requests with
// the same k for at most CoalesceWindow, or until MaxBatch requests
// have joined, whichever comes first; then one BatchKNN answers them
// all. Correctness is free: BatchKNN's per-item results are exactly
// KNN's (the equivalence battery pins this), so a coalesced request is
// indistinguishable from a direct one — the property test in
// coalesce_test.go asserts byte-identical results.
//
// State machine of one group (all transitions under coalescer.mu):
//
//	open ──(request joins, size < MaxBatch)──▶ open
//	open ──(size reaches MaxBatch)──────────▶ detached, flushed by the
//	                                           filling request's goroutine
//	open ──(window timer fires)─────────────▶ detached, flushed by the
//	                                           timer goroutine
//
// Once detached a group is immutable; late requests start a fresh
// group. Flushing runs outside the lock, so a slow batch never blocks
// new arrivals from grouping.

// coalesceResult is one waiter's share of a finished batch.
type coalesceResult struct {
	neighbors []parsearch.Neighbor
	stats     parsearch.QueryStats
	err       error
}

// groupKey identifies one coalescing group: only requests with the
// same k AND the same resolved approximate-tier knobs may share a
// batch (the knobs apply batch-wide, and mixing them would silently
// change a request's recall contract).
type groupKey struct {
	k            int
	epsilon      float64
	recallTarget float64
}

// group is one open coalescing window for a single groupKey.
type group struct {
	queries [][]float64
	waiters []chan coalesceResult
	timer   *time.Timer
}

// coalescer groups single-query KNN requests by k and approx knobs.
type coalescer struct {
	ix    *parsearch.Index
	cfg   Config
	stats *serverStats
	// mu guards groups and every group's slices; flush detaches a
	// group under mu and runs the batch outside it.
	mu     sync.Mutex
	groups map[groupKey]*group
}

func newCoalescer(ix *parsearch.Index, cfg Config, stats *serverStats) *coalescer {
	return &coalescer{ix: ix, cfg: cfg, stats: stats, groups: make(map[groupKey]*group)}
}

// submit enqueues one single-query KNN request and blocks until its
// group's batch finishes or ctx expires. The returned stats are the
// request's own per-query share of the batch (BatchStats.PerQuery).
func (c *coalescer) submit(ctx context.Context, q []float64, k int, a parsearch.Approx) coalesceResult {
	ch := make(chan coalesceResult, 1)
	key := groupKey{k: k, epsilon: a.Epsilon, recallTarget: a.RecallTarget}

	c.mu.Lock()
	g := c.groups[key]
	if g == nil {
		g = &group{}
		c.groups[key] = g
		// The window timer flushes the group even if no further
		// request joins; AfterFunc runs on its own goroutine, so a
		// full group flushed early just finds itself already detached.
		g.timer = time.AfterFunc(c.cfg.CoalesceWindow, func() { c.flushTimed(key, g) })
	}
	g.queries = append(g.queries, q)
	g.waiters = append(g.waiters, ch)
	full := len(g.queries) >= c.cfg.MaxBatch
	if full {
		// Detach: the filling request runs the batch itself.
		delete(c.groups, key)
		g.timer.Stop()
	}
	c.mu.Unlock()

	if full {
		c.run(g, key)
	}
	select {
	case r := <-ch:
		return r
	case <-ctx.Done():
		// The batch still completes for the other waiters; this
		// request's buffered slot absorbs its result.
		return coalesceResult{err: ctx.Err()}
	}
}

// flushTimed is the window-expiry path: detach the group if it is
// still open, then run it.
func (c *coalescer) flushTimed(key groupKey, g *group) {
	c.mu.Lock()
	if c.groups[key] != g {
		// Already detached by a filling request; that request runs it.
		c.mu.Unlock()
		return
	}
	delete(c.groups, key)
	c.mu.Unlock()
	c.run(g, key)
}

// run executes one detached group as a single BatchKNN call and fans
// the per-item results back out to the waiters. The batch runs under a
// context of its own (carrying the configured tracer), not any single
// requester's: the group outlives each individual deadline, and
// in-flight groups must complete during drain.
func (c *coalescer) run(g *group, key groupKey) {
	c.stats.coalescedBatches.Add(1)
	c.stats.coalescedQueries.Add(int64(len(g.queries)))
	c.stats.maxCoalesced.max(int64(len(g.queries)))

	ctx := context.Background()
	if c.cfg.Tracer != nil {
		ctx = parsearch.WithTracer(ctx, c.cfg.Tracer)
	}
	a := parsearch.Approx{Epsilon: key.epsilon, RecallTarget: key.recallTarget}
	results, bs, err := c.ix.BatchKNNApproxContext(ctx, g.queries, key.k, a)
	for i, ch := range g.waiters {
		if err != nil {
			ch <- coalesceResult{err: err}
			continue
		}
		ch <- coalesceResult{neighbors: results[i], stats: bs.PerQuery[i]}
	}
}

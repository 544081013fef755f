package server

import (
	"context"
	"sync"

	"parsearch"
)

// Request coalescing: single-query k-NN requests that arrive while a
// search of their group runs are answered together by one
// BatchKNNShardContext call — the batching of online similarity serving
// (Teodoro et al.), sized by the load observed, not by a timer: "is a
// search of this key running?", the leader/follower rule of the WAL group
// commit. A batch's per-item results are KNN's (the equivalence battery),
// so a coalesced answer is a direct one.
//
// One groupKey's state machine (all transitions under coalescer.mu):
//
//	idle ─(request)────────▶ busy: the request leads; it runs at once and
//	                         alone, a batch of one under its own deadline
//	busy ─(request)────────▶ busy: the request queues behind the search
//	busy ─(MaxBatch queued)▶ busy: the filling request runs the detached
//	                         queue itself, beside the search in flight
//	busy ─(search ends)────▶ busy: the queue detaches and runs as one batch
//	                         on a goroutine of its own; idle if none queued
//
// A request waits while the engine is busy with its key: never when alone.
// The hand-off is deferred: a leader that fails or panics strands nobody.

// coalesceResult is one request's answer.
type coalesceResult struct {
	neighbors []parsearch.Neighbor
	stats     parsearch.QueryStats
	err       error
}

// groupKey identifies one coalescing group: requests share a batch only
// with the same k AND the same resolved ε (it applies batch-wide; mixing
// values would change a request's recall contract).
type groupKey struct {
	k       int
	epsilon float64
}

// group is one batch: a leader alone, or the queue behind a running
// search. The last of its live waiters to leave cancels it, once it runs.
type group struct {
	queries [][]float64
	waiters []chan coalesceResult
	live    int
	cancel  context.CancelFunc
}

// coalescer groups single-query KNN requests by groupKey. mu guards busy
// and every group's fields. busy holds a key iff a search of it is running;
// the value is the queue behind that search, nil while empty.
type coalescer struct {
	ix    *parsearch.Index
	cfg   Config
	stats *serverStats
	mu    sync.Mutex
	busy  map[groupKey]*group
}

func newCoalescer(ix *parsearch.Index, cfg Config, stats *serverStats) *coalescer {
	return &coalescer{ix: ix, cfg: cfg, stats: stats, busy: make(map[groupKey]*group)}
}

// submit answers one KNN request by the batch it leads or joins (stats: its
// PerQuery share), or by ctx's error when that comes first.
func (c *coalescer) submit(ctx context.Context, q []float64, k int, a parsearch.Approx) (res coalesceResult) {
	key := groupKey{k: k, epsilon: a.Epsilon}
	ch := make(chan coalesceResult, 1)
	c.mu.Lock()
	g, busy := c.busy[key]
	if g == nil {
		g = &group{}
	}
	g.queries, g.waiters, g.live = append(g.queries, q), append(g.waiters, ch), g.live+1
	// A leader's group of one and a full queue run now, on this goroutine,
	// and leave the key busy with nothing queued.
	runs := !busy || len(g.queries) >= c.cfg.MaxBatch
	if runs {
		c.busy[key] = nil
	} else {
		c.busy[key] = g
	}
	c.mu.Unlock()
	if !busy {
		defer c.handOff(key)
		c.run(ctx, g, key) // alone in its batch: the deadline is its own
	} else if runs {
		c.run(context.Background(), g, key)
	}
	select {
	case res = <-ch:
	case <-ctx.Done():
		// The batch still answers the others; ch's buffer absorbs this result.
		res.err = ctx.Err()
		c.mu.Lock()
		if g.live--; g.live == 0 && g.cancel != nil {
			g.cancel()
		}
		c.mu.Unlock()
	}
	return res
}

// handOff ends a search of key: its queue runs next, or the key goes idle.
func (c *coalescer) handOff(key groupKey) {
	c.mu.Lock()
	g := c.busy[key]
	if c.busy[key] = nil; g == nil {
		delete(c.busy, key)
	}
	c.mu.Unlock()
	if g != nil {
		go func() {
			defer c.handOff(key)
			c.run(context.Background(), g, key)
		}()
	}
}

// run answers one detached group by a single BatchKNNShardContext call. A batch
// outlives each requester's deadline, so its context is its own: cancelled
// when the last waiter has left, and reporting to the configured tracer
// (or none), not to the one a leader's context carries.
func (c *coalescer) run(ctx context.Context, g *group, key groupKey) {
	c.stats.coalesced(len(g.queries))
	ctx, cancel := context.WithCancel(parsearch.WithTracer(ctx, c.cfg.Tracer))
	defer cancel()
	c.mu.Lock()
	if g.cancel = cancel; g.live == 0 {
		cancel()
	}
	c.mu.Unlock()
	a := parsearch.Approx{Epsilon: key.epsilon}
	results, bs, err := c.ix.BatchKNNShardContext(ctx, g.queries, key.k, a, parsearch.ShardSpec{})
	for i, ch := range g.waiters {
		if err != nil {
			ch <- coalesceResult{err: err}
			continue
		}
		ch <- coalesceResult{neighbors: results[i], stats: bs.PerQuery[i]}
	}
}

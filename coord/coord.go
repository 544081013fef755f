// Package coord implements the multi-node scatter-gather coordinator
// of the parsearch cluster mode: it partitions the declustered disk
// set of one logical index into m shard groups (disk d → group d mod
// m), fans each query out to the parsearchd shard daemons serving
// those groups, and merges the per-group answers into results that are
// byte-identical to the single-process library.
//
// Every shard daemon serves the full snapshot (bootstrapped with the
// existing catch-up protocol; see client.CatchupDir) but restricts
// each query to its groups via the wire shard spec, so global IDs are
// preserved and any shard can stand in for any group. The coordinator
// exploits that for failover: when a shard dies, its groups are
// re-issued to the next live shard in the ring, and only a group no
// live shard can serve degrades the query — results are provably
// degraded, never silently wrong.
//
// A k-NN query runs in one round, as the paper's parallel search runs
// over all disks at once: every shard searches its groups unbounded
// and answers with its own k best, and the coordinator keeps the k
// nearest of the union. A caller's Approx.Bound is forwarded to every
// shard, which answers with its points inside it only — fewer than k,
// or none, is a normal answer — so the merged answer is the library's
// under the same bound. Shard daemons keep honoring the wire "bound"
// field that older coordinators shipped in a second round.
package coord

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parsearch"
	"parsearch/client"
	"parsearch/internal/metrics"
	"parsearch/internal/wire"
)

// Config configures a Coordinator.
type Config struct {
	// Shards is the base URL of each shard daemon; shard i primarily
	// serves group i of the disk → disk mod len(Shards) partition.
	// Required, at least one.
	Shards []string
	// Dim and Disks mirror the served index's geometry. Required;
	// Disks must be >= len(Shards) so every group is non-empty.
	Dim, Disks int
	// ClientOptions configure the per-shard HTTP clients (timeouts,
	// retries, backoff).
	ClientOptions []client.Option
}

func (c Config) validate() error {
	if len(c.Shards) == 0 {
		return fmt.Errorf("coord: no shards configured")
	}
	if c.Dim < 1 {
		return fmt.Errorf("coord: dimension %d, want >= 1", c.Dim)
	}
	if c.Disks < len(c.Shards) {
		return fmt.Errorf("coord: %d disks across %d shards leaves empty groups", c.Disks, len(c.Shards))
	}
	return nil
}

// Stats is the coordinator's per-query accounting, the cluster-level
// analogue of parsearch.QueryStats.
type Stats struct {
	// ShardsQueried counts the shard RPCs that contributed results.
	ShardsQueried int `json:"shards_queried"`
	// ShardRetries counts failover re-issues: RPCs repeated against
	// another shard after their first target failed mid-query.
	ShardRetries int `json:"shard_retries"`
	// PagesSavedByRemoteBound sums the page reads a forwarded
	// Approx.Bound pruned across the shards; 0 without a bound.
	PagesSavedByRemoteBound int `json:"pages_saved_by_remote_bound"`
	// TotalPages sums the simulated page reads across all shards.
	TotalPages int `json:"total_pages"`
	// Rerouted reports that at least one group was served by a
	// non-primary shard (cluster-level failover).
	Rerouted bool `json:"rerouted"`
	// Degraded reports that results may be incomplete: some group had
	// no live shard (see UnservedGroups), or a shard answered with its
	// own intra-index degradation.
	Degraded bool `json:"degraded"`
	// UnservedGroups lists the groups no live shard could serve.
	UnservedGroups []int `json:"unserved_groups,omitempty"`
}

// Coordinator fans queries out to a fixed set of shard daemons. Create
// with New; safe for concurrent use.
type Coordinator struct {
	cfg    Config
	shards []*shardState
	reg    *metrics.Registry // per-disk slots hold per-shard data
}

// shardState tracks one shard daemon's client and liveness.
type shardState struct {
	base string
	cl   *client.Client
	down atomic.Bool
}

// New returns a coordinator over the configured shard daemons. It
// performs no I/O; the first health view assumes every shard live.
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	co := &Coordinator{cfg: cfg, reg: metrics.NewRegistry(len(cfg.Shards))}
	for _, base := range cfg.Shards {
		co.shards = append(co.shards, &shardState{base: base, cl: client.New(base, cfg.ClientOptions...)})
	}
	return co, nil
}

// Groups returns the number of shard groups (= configured shards).
func (c *Coordinator) Groups() int { return len(c.shards) }

// Dim returns the cluster's vector dimensionality.
func (c *Coordinator) Dim() int { return c.cfg.Dim }

// Disks returns the declustered disk count of the served index.
func (c *Coordinator) Disks() int { return c.cfg.Disks }

// Metrics snapshots the coordinator registry. The per-disk slots hold
// per-shard page totals; shard_rpcs / shard_retries and the
// shard_latency_ns histogram are the cluster-specific counters.
func (c *Coordinator) Metrics() metrics.Snapshot { return c.reg.Snapshot() }

// ShardStatus is one shard daemon's place in the cluster: shard i
// primarily serves group i.
type ShardStatus struct {
	Base  string `json:"base"`
	Group int    `json:"group"`
	Down  bool   `json:"down"`
}

// Topology is the cluster layout with the current liveness view, the
// "cluster" section of the coordinator's /statusz.
type Topology struct {
	Dim    int           `json:"dim"`
	Disks  int           `json:"disks"`
	Groups int           `json:"groups"`
	Shards []ShardStatus `json:"shards"`
}

// Topology snapshots the cluster layout and per-shard liveness.
func (c *Coordinator) Topology() Topology {
	t := Topology{Dim: c.cfg.Dim, Disks: c.cfg.Disks, Groups: len(c.shards), Shards: make([]ShardStatus, len(c.shards))}
	for i, sh := range c.shards {
		t.Shards[i] = ShardStatus{Base: sh.base, Group: i, Down: sh.down.Load()}
	}
	return t
}

// owner returns the shard currently serving group g: g itself when
// live, else the next live shard in the ring. -1 when every shard is
// down.
func (c *Coordinator) owner(g int) int {
	m := len(c.shards)
	for i := 0; i < m; i++ {
		s := (g + i) % m
		if !c.shards[s].down.Load() {
			return s
		}
	}
	return -1
}

// markDown records a shard failure observed mid-query. Recovery is
// CheckHealth's job — queries only ever demote.
func (c *Coordinator) markDown(s int) { c.shards[s].down.Store(true) }

// CheckHealth probes every shard's /healthz once, in parallel, and
// updates the liveness view: a shard that answers with a non-degraded
// status is (re)admitted, one that fails the probe or reports itself
// degraded is taken out of rotation. Returns the number of live
// shards.
func (c *Coordinator) CheckHealth(ctx context.Context) int {
	var wg sync.WaitGroup
	for _, sh := range c.shards {
		wg.Add(1)
		go func(sh *shardState) {
			defer wg.Done()
			h, err := sh.cl.Health(ctx)
			// A shard whose own index is degraded cannot serve exact
			// group-restricted results; the full-snapshot partner can.
			sh.down.Store(err != nil || h.Status == "degraded")
		}(sh)
	}
	wg.Wait()
	live := 0
	for _, sh := range c.shards {
		if !sh.down.Load() {
			live++
		}
	}
	return live
}

// WatchHealth re-probes the shards every interval until ctx ends —
// the recovery path that brings restarted shards back into rotation.
func (c *Coordinator) WatchHealth(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.CheckHealth(ctx)
		}
	}
}

// Health summarizes the cluster state in the shard daemons' healthz
// vocabulary: "ok" (every group on its primary shard), "rerouted"
// (failover active, results still exact), "degraded" (some group has
// no live shard).
func (c *Coordinator) Health() wire.Health {
	h := wire.Health{Status: "ok", Disks: c.cfg.Disks}
	for g := range c.shards {
		switch owner := c.owner(g); {
		case owner < 0:
			return wire.Health{Status: "degraded", Disks: c.cfg.Disks}
		case owner != g:
			h.Status = "rerouted"
		}
	}
	return h
}

// rpcResult is one successful shard RPC's contribution.
type rpcResult struct {
	shard  int
	groups []int
	ns     []parsearch.Neighbor
	batch  [][]parsearch.Neighbor
	stats  parsearch.QueryStats
	bstats parsearch.BatchStats
	empty  bool // the shard reported an empty index
}

// shardCall runs one operation against one shard restricted to a group
// set. Implementations fill the matching rpcResult fields.
type shardCall func(ctx context.Context, cl *client.Client, spec wire.ShardSpec, out *rpcResult) error

// scatter issues do for every group against the shards currently
// serving them, all at once, failing a dead shard's groups over to the
// next live shard. It returns the successful per-shard results, the
// groups no live shard could serve, and the number of failover
// re-issues. A non-transient error (bad request, shard-internal
// failure, the caller's own deadline) aborts the query instead of
// failing over — those would return the same answer anywhere.
func (c *Coordinator) scatter(ctx context.Context, do shardCall) (results []rpcResult, unserved []int, retries int, err error) {
	pending := make([]int, len(c.shards))
	for g := range pending {
		pending[g] = g
	}
	// Each round either serves every pending group or observes at
	// least one new dead shard, so m+1 rounds always suffice.
	for round := 0; len(pending) > 0 && round <= len(c.shards); round++ {
		byShard := make(map[int][]int)
		var dead []int
		for _, g := range pending {
			s := c.owner(g)
			if s < 0 {
				dead = append(dead, g)
				continue
			}
			byShard[s] = append(byShard[s], g)
		}
		if round > 0 {
			retries += len(byShard)
			c.reg.ShardRetries.Add(int64(len(byShard)))
		}

		var (
			mu     sync.Mutex
			failed []int
			wg     sync.WaitGroup
			fatal  error
		)
		for s, gs := range byShard {
			sort.Ints(gs)
			wg.Add(1)
			go func(s int, gs []int) {
				defer wg.Done()
				spec := wire.ShardSpec{Of: len(c.shards), Groups: gs}
				out := rpcResult{shard: s, groups: gs}
				c.reg.ShardRPCs.Inc()
				start := time.Now()
				callErr := do(ctx, c.shards[s].cl, spec, &out)
				c.reg.ShardLatencyNs.Observe(time.Since(start).Nanoseconds())
				if errors.Is(callErr, parsearch.ErrEmpty) {
					// A shard whose index (or whose share of it) holds no
					// points contributes zero results; the cluster-level
					// "index is empty" verdict is the caller's once every
					// group has answered. A shard a forwarded bound pruned
					// to nothing is not this case: it answers without
					// error.
					out.empty, callErr = true, nil
				}
				mu.Lock()
				defer mu.Unlock()
				switch {
				case callErr == nil:
					results = append(results, out)
				case c.transient(ctx, callErr):
					c.markDown(s)
					failed = append(failed, gs...)
				default:
					if fatal == nil {
						fatal = callErr
					}
				}
			}(s, gs)
		}
		wg.Wait()
		if fatal != nil {
			return nil, nil, retries, fatal
		}
		pending = append(dead, failed...)
		if len(dead) > 0 && len(failed) == 0 {
			// No shard died this round, so the dead groups' ownership
			// cannot change in another: they are unserved.
			break
		}
	}
	sort.Ints(pending)
	return results, pending, retries, nil
}

// transient reports whether a shard RPC failure warrants failover:
// transport-level errors and unavailability (the shard died, drains,
// or lost disks) do — another shard holds the same snapshot; the
// caller's own deadline and request-shaped errors, a request the
// client could not even encode among them, do not.
func (c *Coordinator) transient(ctx context.Context, err error) bool {
	if ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) ||
		errors.Is(err, client.ErrEncode) {
		return false
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		return ae.Status == 503 || ae.Status == 429
	}
	return true // transport-level: connection refused, reset, ...
}

// invalid counts a query refused before any shard was asked; nil
// passes through. The coordinator applies the shards' own request
// rules, so a bad argument never reaches the wire, where it would fail
// every shard alike.
func (c *Coordinator) invalid(err error) error {
	if err != nil {
		c.reg.QueryErrors.Inc()
	}
	return err
}

// gather scatters do over every group and folds the outcome into the
// query's stats (see finish).
func (c *Coordinator) gather(ctx context.Context, do shardCall) ([]rpcResult, Stats, error) {
	var st Stats
	results, unserved, retries, err := c.scatter(ctx, do)
	if err != nil {
		c.reg.QueryErrors.Inc()
		return nil, st, err
	}
	for _, r := range results {
		st.fold(r)
	}
	return results, st, c.finish(&st, results, unserved, retries)
}

// fold accumulates one RPC's accounting into the query stats.
func (st *Stats) fold(r rpcResult) {
	st.ShardsQueried++
	st.PagesSavedByRemoteBound += r.stats.PagesSavedByRemoteBound + r.bstats.PagesSavedByRemoteBound
	st.TotalPages += r.stats.TotalPages + r.bstats.TotalPages
	st.Degraded = st.Degraded || r.stats.Degraded || r.bstats.Degraded
	for _, g := range r.groups {
		if r.shard != g {
			st.Rerouted = true
		}
	}
}

// finish applies the scatter outcome shared by every query kind and
// updates the cluster registry. It returns ErrUnavailable when no
// group could be served at all.
func (c *Coordinator) finish(st *Stats, results []rpcResult, unserved []int, retries int) error {
	st.ShardRetries = retries
	st.UnservedGroups = unserved
	if len(unserved) > 0 {
		st.Degraded = true
	}
	for _, r := range results {
		c.reg.PagesPerDisk.Add(r.shard, int64(r.stats.TotalPages+r.bstats.TotalPages))
	}
	c.reg.PagesSavedByRemoteBound.Add(int64(st.PagesSavedByRemoteBound))
	if st.Degraded {
		c.reg.DegradedQueries.Inc()
	}
	if len(results) == 0 {
		c.reg.QueryErrors.Inc()
		return parsearch.ErrUnavailable
	}
	empties := 0
	for _, r := range results {
		if r.empty {
			empties++
		}
	}
	if empties == len(results) && len(unserved) == 0 {
		return parsearch.ErrEmpty
	}
	return nil
}

// mergeTopK merges per-shard k-best lists into the global k-best. The
// per-group result sets are disjoint (each point lives on exactly one
// disk, each disk in exactly one group) and every list is ordered by
// (distance, ID), so sorting the concatenation and truncating to k
// reproduces the library's merge byte-for-byte.
func mergeTopK(results []rpcResult, k int) []parsearch.Neighbor {
	var all []parsearch.Neighbor
	for _, r := range results {
		all = append(all, r.ns...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	if len(all) == 0 {
		return nil
	}
	return all
}

// mergeByID merges disjoint per-shard box/partial-match results, which
// the engine orders by ID.
func mergeByID(results []rpcResult) []parsearch.Neighbor {
	var all []parsearch.Neighbor
	for _, r := range results {
		all = append(all, r.ns...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	if len(all) == 0 {
		return nil
	}
	return all
}

// KNNApprox finds the k nearest neighbors of q across the cluster under
// the approximate-tier knobs a, forwarded to every shard; a zero Approx
// is the exact query. The epsilon guarantee composes across the merge:
// each group's candidates are within (1+ε) of that group's exact answer,
// so the merged top-k is within (1+ε) of the exact global answer. So does
// the bound: each shard returns its k nearest inside it, and the k
// nearest of their union are the library's k nearest inside it.
func (c *Coordinator) KNNApprox(ctx context.Context, q []float64, k int, a parsearch.Approx) ([]parsearch.Neighbor, Stats, error) {
	req := wire.KNNRequest{Query: q, K: k}
	req.Epsilon, req.Bound = approxKnobs(&a)
	if err := c.invalid(req.Validate(c.cfg.Dim)); err != nil {
		return nil, Stats{}, err
	}
	c.reg.QueriesKNN.Inc()
	results, st, err := c.gather(ctx, func(ctx context.Context, cl *client.Client, spec wire.ShardSpec, out *rpcResult) error {
		r := req
		r.Shard = &spec
		ns, qs, err := cl.KNNRaw(ctx, r)
		out.ns, out.stats = ns, qs
		return err
	})
	if err != nil {
		return nil, st, err
	}
	return mergeTopK(results, k), st, nil
}

// approxKnobs returns the wire's epsilon and bound fields for a: a zero
// Approx leaves both absent, so the shard applies its index default ε;
// any other Approx is sent as the exact ε it asks for, and a bound
// only when it has one.
func approxKnobs(a *parsearch.Approx) (epsilon, bound *float64) {
	if *a != (parsearch.Approx{}) {
		epsilon = &a.Epsilon
	}
	if a.Bound != 0 {
		bound = &a.Bound
	}
	return epsilon, bound
}

// Range finds all points inside the box [min, max] across the cluster.
func (c *Coordinator) Range(ctx context.Context, min, max []float64) ([]parsearch.Neighbor, Stats, error) {
	req := wire.RangeRequest{Min: min, Max: max}
	if err := c.invalid(req.Validate(c.cfg.Dim)); err != nil {
		return nil, Stats{}, err
	}
	c.reg.QueriesRange.Inc()
	results, st, err := c.gather(ctx, func(ctx context.Context, cl *client.Client, spec wire.ShardSpec, out *rpcResult) error {
		r := req
		r.Shard = &spec
		ns, qs, err := cl.RangeRaw(ctx, r)
		out.ns, out.stats = ns, qs
		return err
	})
	if err != nil {
		return nil, st, err
	}
	return mergeByID(results), st, nil
}

// PartialMatch runs a partial-match query across the cluster; spec
// uses parsearch.Wildcard for unspecified dimensions.
func (c *Coordinator) PartialMatch(ctx context.Context, spec []float64, eps float64) ([]parsearch.Neighbor, Stats, error) {
	req := wire.PartialMatchRequest{Spec: wirePartialSpec(spec), Eps: eps}
	if err := c.invalid(req.Validate(c.cfg.Dim)); err != nil {
		return nil, Stats{}, err
	}
	c.reg.QueriesRange.Inc()
	results, st, err := c.gather(ctx, func(ctx context.Context, cl *client.Client, sp wire.ShardSpec, out *rpcResult) error {
		r := req
		r.Shard = &sp
		ns, qs, err := cl.PartialMatchRaw(ctx, r)
		out.ns, out.stats = ns, qs
		return err
	})
	if err != nil {
		return nil, st, err
	}
	return mergeByID(results), st, nil
}

// wirePartialSpec converts a Wildcard-marked spec to the wire's
// null-marked form.
func wirePartialSpec(spec []float64) []*float64 {
	ws := make([]*float64, len(spec))
	for i := range spec {
		if spec[i] == spec[i] { // not NaN
			v := spec[i]
			ws[i] = &v
		}
	}
	return ws
}

// BatchKNNApprox answers many k-NN queries in one cluster round: the
// whole batch fans out to every shard with its group restriction, and
// each item's per-shard k-bests merge independently. a is forwarded to
// every shard as in KNNApprox; a zero Approx is the exact query.
func (c *Coordinator) BatchKNNApprox(ctx context.Context, queries [][]float64, k int, a parsearch.Approx) ([][]parsearch.Neighbor, Stats, error) {
	req := wire.BatchRequest{Queries: queries, K: k}
	req.Epsilon, req.Bound = approxKnobs(&a)
	if err := c.invalid(req.Validate(c.cfg.Dim, 0)); err != nil {
		return nil, Stats{}, err
	}
	c.reg.QueriesBatch.Inc()
	c.reg.BatchQueries.Add(int64(len(queries)))
	results, st, err := c.gather(ctx, func(ctx context.Context, cl *client.Client, spec wire.ShardSpec, out *rpcResult) error {
		r := req
		r.Shard = &spec
		batch, bs, err := cl.BatchKNNRaw(ctx, r)
		out.batch, out.bstats = batch, bs
		return err
	})
	if err != nil {
		return nil, st, err
	}

	out := make([][]parsearch.Neighbor, len(queries))
	for i := range queries {
		item := make([]rpcResult, 0, len(results))
		for _, r := range results {
			if i < len(r.batch) {
				item = append(item, rpcResult{ns: r.batch[i]})
			}
		}
		out[i] = mergeTopK(item, k)
	}
	return out, st, nil
}

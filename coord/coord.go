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
// k-NN queries run the two-phase cross-network bound protocol: phase 1
// queries the shard serving the query point's home group (the group
// likeliest to hold near neighbors); if it returns a full k results,
// the k-th distance ships to the remaining shards as the wire "bound"
// field. A phase-2 shard then answers with its points inside that
// distance only (see parsearch.Approx.Bound) — fewer than k, or none,
// is a normal answer. The merged top k never depends on the bound,
// because k points at or inside it are already known from phase 1;
// what the bound saves is surfaced as Stats.PagesSavedByRemoteBound.
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
	// Kind is the declustering strategy of the served index; it drives
	// the home-group routing of the two-phase bound protocol. Optional
	// — a mismatch only degrades pruning, never correctness.
	Kind parsearch.Kind
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
	// RemoteBound is the k-th distance phase 1 shipped to the
	// remaining shards (0 = no bound was available).
	RemoteBound float64 `json:"remote_bound"`
	// PagesSavedByRemoteBound sums the page reads the shipped bound
	// pruned across phase-2 shards — the cross-network half of the
	// cooperative pruning ledger.
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
	router *parsearch.Index // empty index: deterministic home-disk routing only
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
	router, err := parsearch.Open(parsearch.Options{Dim: cfg.Dim, Disks: cfg.Disks, Kind: cfg.Kind})
	if err != nil {
		return nil, fmt.Errorf("coord: building router: %w", err)
	}
	co := &Coordinator{
		cfg:    cfg,
		router: router,
		reg:    metrics.NewRegistry(len(cfg.Shards)),
	}
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
// per-shard page totals; shard_rpcs / shard_retries /
// remote_bound_tightenings and the shard_latency_ns histogram are the
// cluster-specific counters.
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

// scatter issues do for every group in groups against the shards
// currently serving them, failing a dead shard's groups over to the
// next live shard. It returns the successful per-shard results, the
// groups no live shard could serve, and the number of failover
// re-issues. A non-transient error (bad request, shard-internal
// failure, the caller's own deadline) aborts the query instead of
// failing over — those would return the same answer anywhere.
func (c *Coordinator) scatter(ctx context.Context, groups []int, do shardCall) (results []rpcResult, unserved []int, retries int, err error) {
	pending := append([]int(nil), groups...)
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
					// group has answered. A shard the shipped bound pruned
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
// caller's own deadline and request-shaped errors do not.
func (c *Coordinator) transient(ctx context.Context, err error) bool {
	if ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return false
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		return ae.Status == 503 || ae.Status == 429
	}
	return true // transport-level: connection refused, reset, ...
}

// allGroups returns [0, m).
func (c *Coordinator) allGroups() []int {
	gs := make([]int, len(c.shards))
	for i := range gs {
		gs[i] = i
	}
	return gs
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

// KNN finds the k nearest neighbors of q across the cluster.
func (c *Coordinator) KNN(ctx context.Context, q []float64, k int) ([]parsearch.Neighbor, Stats, error) {
	return c.KNNApprox(ctx, q, k, parsearch.Approx{})
}

// KNNApprox is KNN with explicit approximate-tier knobs, forwarded to
// every shard. The epsilon guarantee composes across the merge: each
// group's candidates are within (1+ε) of that group's exact answer, so
// the merged top-k is within (1+ε) of the exact global answer.
func (c *Coordinator) KNNApprox(ctx context.Context, q []float64, k int, a parsearch.Approx) ([]parsearch.Neighbor, Stats, error) {
	var st Stats
	if len(q) != c.cfg.Dim {
		c.reg.QueryErrors.Inc()
		return nil, st, fmt.Errorf("coord: query dimension %d, want %d", len(q), c.cfg.Dim)
	}
	if k < 1 {
		c.reg.QueryErrors.Inc()
		return nil, st, fmt.Errorf("coord: k = %d, want >= 1", k)
	}
	c.reg.QueriesKNN.Inc()

	doKNN := func(bound *float64) shardCall {
		return func(ctx context.Context, cl *client.Client, spec wire.ShardSpec, out *rpcResult) error {
			req := wire.KNNRequest{Query: q, K: k, Bound: bound, Shard: &spec}
			if a != (parsearch.Approx{}) {
				req.Epsilon = &a.Epsilon
			}
			ns, qs, err := cl.KNNRaw(ctx, req)
			out.ns, out.stats = ns, qs
			return err
		}
	}

	// Phase 1: the shard serving the query's home group searches
	// unbounded. Its groups are whatever that shard currently owns, so
	// failover never queries the same shard twice.
	home, err := c.router.HomeDisk(q)
	if err != nil {
		c.reg.QueryErrors.Inc()
		return nil, st, err
	}
	hg := home % len(c.shards)
	var (
		results  []rpcResult
		unserved []int
		retries  int
	)
	phase2 := c.allGroups()
	if owner := c.owner(hg); owner >= 0 {
		var p1groups []int
		phase2 = phase2[:0]
		for _, g := range c.allGroups() {
			if c.owner(g) == owner {
				p1groups = append(p1groups, g)
			} else {
				phase2 = append(phase2, g)
			}
		}
		r1, u1, ret1, err := c.scatter(ctx, p1groups, doKNN(nil))
		if err != nil {
			c.reg.QueryErrors.Inc()
			return nil, st, err
		}
		results, unserved, retries = r1, u1, ret1
	}

	// Phase 2: the remaining shards search within the k-th distance
	// phase 1 achieved, if it found a full k.
	var bound *float64
	if len(phase2) > 0 {
		if ns := mergeTopK(results, k); len(ns) == k {
			b := ns[k-1].Dist
			bound = &b
			st.RemoteBound = b
			c.reg.RemoteBoundTightenings.Inc()
		}
		r2, u2, ret2, err := c.scatter(ctx, phase2, doKNN(bound))
		if err != nil {
			c.reg.QueryErrors.Inc()
			return nil, st, err
		}
		results = append(results, r2...)
		unserved = append(unserved, u2...)
		retries += ret2
	}

	for _, r := range results {
		st.fold(r)
	}
	sort.Ints(unserved)
	if err := c.finish(&st, results, unserved, retries); err != nil {
		return nil, st, err
	}
	return mergeTopK(results, k), st, nil
}

// Range finds all points inside the box [min, max] across the cluster.
func (c *Coordinator) Range(ctx context.Context, min, max []float64) ([]parsearch.Neighbor, Stats, error) {
	var st Stats
	c.reg.QueriesRange.Inc()
	do := func(ctx context.Context, cl *client.Client, spec wire.ShardSpec, out *rpcResult) error {
		ns, qs, err := cl.RangeRaw(ctx, wire.RangeRequest{Min: min, Max: max, Shard: &spec})
		out.ns, out.stats = ns, qs
		return err
	}
	results, unserved, retries, err := c.scatter(ctx, c.allGroups(), do)
	if err != nil {
		c.reg.QueryErrors.Inc()
		return nil, st, err
	}
	for _, r := range results {
		st.fold(r)
	}
	if err := c.finish(&st, results, unserved, retries); err != nil {
		return nil, st, err
	}
	return mergeByID(results), st, nil
}

// PartialMatch runs a partial-match query across the cluster; spec
// uses parsearch.Wildcard for unspecified dimensions.
func (c *Coordinator) PartialMatch(ctx context.Context, spec []float64, eps float64) ([]parsearch.Neighbor, Stats, error) {
	var st Stats
	c.reg.QueriesRange.Inc()
	do := func(ctx context.Context, cl *client.Client, sp wire.ShardSpec, out *rpcResult) error {
		ns, qs, err := cl.PartialMatchRaw(ctx, wire.PartialMatchRequest{Spec: wirePartialSpec(spec), Eps: eps, Shard: &sp})
		out.ns, out.stats = ns, qs
		return err
	}
	results, unserved, retries, err := c.scatter(ctx, c.allGroups(), do)
	if err != nil {
		c.reg.QueryErrors.Inc()
		return nil, st, err
	}
	for _, r := range results {
		st.fold(r)
	}
	if err := c.finish(&st, results, unserved, retries); err != nil {
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

// BatchKNN answers many k-NN queries in one cluster round: the whole
// batch fans out to every shard with its group restriction
// (single-phase — per-item home routing would shatter the batch), and
// each item's per-shard k-bests merge independently.
func (c *Coordinator) BatchKNN(ctx context.Context, queries [][]float64, k int) ([][]parsearch.Neighbor, Stats, error) {
	return c.BatchKNNApprox(ctx, queries, k, parsearch.Approx{})
}

// BatchKNNApprox is BatchKNN with explicit approximate-tier knobs.
func (c *Coordinator) BatchKNNApprox(ctx context.Context, queries [][]float64, k int, a parsearch.Approx) ([][]parsearch.Neighbor, Stats, error) {
	var st Stats
	if len(queries) == 0 {
		c.reg.QueryErrors.Inc()
		return nil, st, fmt.Errorf("coord: empty batch")
	}
	c.reg.QueriesBatch.Inc()
	c.reg.BatchQueries.Add(int64(len(queries)))
	do := func(ctx context.Context, cl *client.Client, spec wire.ShardSpec, out *rpcResult) error {
		req := wire.BatchRequest{Queries: queries, K: k, Shard: &spec}
		if a != (parsearch.Approx{}) {
			req.Epsilon = &a.Epsilon
		}
		batch, bs, err := cl.BatchKNNRaw(ctx, req)
		out.batch, out.bstats = batch, bs
		return err
	}
	results, unserved, retries, err := c.scatter(ctx, c.allGroups(), do)
	if err != nil {
		c.reg.QueryErrors.Inc()
		return nil, st, err
	}
	for _, r := range results {
		st.fold(r)
	}
	if err := c.finish(&st, results, unserved, retries); err != nil {
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

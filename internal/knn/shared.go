package knn

// Cooperative cross-disk pruning for the parallel NN algorithm: the
// shards of a declustered index share one global upper bound on the
// k-th-best distance, so every disk can stop expanding priority-queue
// nodes that only the *merged* result would discard. The bound is a
// lock-free atomic (see Bound); HSShared is the HS search consulting
// and tightening it (one traversal, HSApprox, serves every variant).
//
// Exactness argument: the shared bound only ever holds a distance that
// k candidates somewhere in the index have already achieved (each shard
// publishes its local k-th-best distance, and the global k-th-best is
// at most the minimum of the local ones). A node pruned because its
// MINDIST strictly exceeds the bound can only contain points strictly
// farther than k already-known candidates, so none of its points can
// enter the merged global top k — under any tie-breaking rule. The
// bound is monotonically non-increasing, so the argument holds even
// though other shards keep tightening it concurrently.

import (
	"math"
	"sync/atomic"

	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// Bound is a lock-free shared upper bound on the squared (rank)
// distance of the current global k-th-best candidate of one query. It
// encodes the float64 as its IEEE-754 bit pattern in an atomic uint64
// (distances are non-negative, so the encoding is order-preserving);
// Tighten lowers it with a compare-and-swap loop, making the bound
// monotonically non-increasing under any number of concurrent writers.
//
// Memory ordering: Go's sync/atomic operations are sequentially
// consistent, so a Load observing a tightened value also observes every
// write that happened before the corresponding Tighten. The algorithm
// needs far less — a stale (larger) bound only costs pruning
// opportunity, never correctness, because the bound is monotone and
// every published value is a distance k real candidates have achieved.
type Bound struct {
	bits atomic.Uint64
	// seed is the externally provided squared bound installed by Seed
	// (NaN when the bound was never seeded). It is written once before
	// the search fan-out starts and only read afterwards, so it needs no
	// atomicity; NaN compares unequal to everything, which makes the
	// attribution check below vacuously false on unseeded bounds.
	seed float64
}

// NewBound returns a bound initialized to +inf (nothing known yet).
func NewBound() *Bound {
	b := &Bound{}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	b.seed = math.NaN()
	return b
}

// Seed installs an externally known squared bound — in the distributed
// search, the k-th-best distance another shard group has already
// achieved, shipped over the wire. Seeding is exactness-preserving for
// the same reason local tightening is: the searches consulting the
// bound traverse pruned nodes in accounting-only phantom mode, so the
// candidate stream (and the results) never depend on the bound's value,
// only the attribution of visits to Saved does. A stale or even wrong
// seed therefore costs accounting precision, never correctness.
//
// Seed must be called before the search fan-out starts (it writes a
// plain field the attribution check reads).
func (b *Bound) Seed(sq float64) {
	b.seed = sq
	b.Tighten(sq)
}

// seededAt reports whether v is the seeded value: the bound in effect
// is still the external seed, no local tightening has improved on it.
func (b *Bound) seededAt(v float64) bool { return v == b.seed }

// Load returns the current bound.
func (b *Bound) Load() float64 {
	return math.Float64frombits(b.bits.Load())
}

// Tighten lowers the bound to d if d improves it and reports whether it
// did. Concurrent Tighten calls never lose the minimum: the CAS retries
// until d is installed or a smaller value is already in place.
func (b *Bound) Tighten(d float64) bool {
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) <= d {
			return false
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(d)) {
			return true
		}
	}
}

// SharedStats reports what the shared bound did for one HSShared call.
type SharedStats struct {
	// Saved accounts the nodes the shared bound pruned: visits the
	// independent HS search would have performed but the cooperative
	// search skipped. Adding Saved to the returned Accounting yields
	// exactly the independent search's Accounting.
	Saved Accounting
	// Tightened counts how many times this search lowered the shared
	// bound.
	Tightened int
	// RemotePages counts the page accesses among Saved performed while
	// the bound still held its externally seeded value (Bound.Seed):
	// pruning attributable to the remote bound rather than to local
	// tightening. Always 0 on unseeded bounds. The attribution is by the
	// bound in effect at visit time — once a local tightening improves
	// on the seed, further savings are charged to the local bound even
	// though the seed alone might still have pruned them.
	RemotePages int
}

// HSShared is HSMetric consulting a shared bound before expanding each
// priority-queue node, and tightening it whenever the local k-best
// improves — the cooperative variant of the parallel NN algorithm,
// where every disk prunes against the global candidate distance instead
// of only its own.
//
// The returned neighbors are byte-identical to HSMetric's: pruned nodes
// are still traversed in accounting-only "phantom" mode (their visits
// charged to SharedStats.Saved instead of the Accounting), so the local
// candidate stream — and with it every tie-break — matches the
// independent search exactly, and Saved is exactly the page count the
// bound saved. Once one node is pruned, every later node would be too
// (pops come in MINDIST order while the bound only decreases), so the
// phantom tail never flips back and never publishes: all its candidates
// are provably farther than the bound it was pruned by.
//
// onTighten, when non-nil, is called with the new squared bound after
// each successful tightening.
func HSShared(t *xtree.Tree, q vec.Point, k int, m vec.Metric, b *Bound, onTighten func(sqBound float64)) ([]Result, Accounting, SharedStats) {
	res, acc, as := HSApprox(t, q, k, m, ApproxSpec{Shrink: 1}, b, onTighten)
	return res, acc, as.SharedStats
}

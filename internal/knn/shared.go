package knn

// A bound shared between searches that run apart: every search stops at
// the first priority-queue node beyond the smallest k-th-best distance any
// of them has reached, and publishes its own. The bound is a lock-free
// atomic (see Bound); HSShared is the one-tree Search consulting and
// tightening it. Inside one process the engine needs none: one Search
// queue over a query's trees already stops every tree at the global k-th
// best, and a bound shipped from another process (the coordinator's)
// seeds that queue (Search.Seed).
//
// Exactness argument: the shared bound only ever holds a distance that
// k candidates somewhere have already achieved. A node pruned because its
// MINDIST strictly exceeds the bound can only contain points strictly
// farther than k already-known candidates, so none of its points can
// enter the merged global top k. The bound is monotonically
// non-increasing, so the argument holds even though other searches keep
// tightening it concurrently. The tie-break half of the argument is
// written at HSShared.

import (
	"math"
	"sync/atomic"
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
	// the searches start and only read afterwards, so it needs no
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
// achieved, shipped over the wire. A seeded search is a k-NN search
// within that distance: nodes strictly beyond the seed are never read,
// so the search may return fewer than k candidates, or none. The merged
// answer stays exact as long as the seed really is a distance k
// candidates have achieved somewhere; a seed below the true k-th
// distance narrows the answer to the seed's ball.
//
// The seed must not round below the distance it stands for: a point at
// exactly that distance is a tie the merge may need (see
// vec.Metric.ToRankCeil).
//
// Seed must be called before the searches start (it writes a plain field
// the attribution check reads).
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

// SharedStats reports what the bounds did for one tree of a search.
type SharedStats struct {
	// Saved accounts the work the tree's search abandoned when a bound
	// stopped it — the k-th best over every tree of a Search, a Seed or
	// a Shared bound: the queued nodes of the tree inside its own bound
	// (see Search.abandon and Search.own). Pages below a queued
	// directory node are not counted, so on trees of three or more
	// levels this is normally far below the pages an independent search
	// would go on to read; on a lone tree it is zero exactly when the
	// bound cut nothing.
	Saved Accounting
	// Tightened counts how many times the search lowered the Shared
	// bound.
	Tightened int
	// RemotePages is Saved.PageAccesses when the bound that stopped the
	// search still held its externally seeded value (Search.Seed,
	// Bound.Seed): pruning attributable to the remote bound rather than
	// to the search's own candidates. Always 0 without a seed, and 0 once
	// the search's own k-th best has improved on the seed, even though
	// the seed alone might still have pruned.
	RemotePages int
}

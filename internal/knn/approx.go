package knn

// Approximate k-NN: the HS search with two optional, composable
// relaxations.
//
// ε-termination (Arya et al.): the search stops as soon as the next
// priority-queue node's MINDIST exceeds kth/(1+ε) — equivalently, once
// (1+ε)·MINDIST exceeds the current k-th best distance. Every point the
// terminated search never sees is then provably farther than
// kth/(1+ε), so the returned k-th distance is at most (1+ε) times the
// true k-th distance. The comparison happens in rank space: for a
// Minkowski metric, ToRank is a power function, so scaling the metric
// distance by 1/(1+ε) is scaling the rank distance by ToRank(1/(1+ε))
// (the Shrink factor below). ε = 0 makes Shrink 1, and because the
// exact stop check runs first, the ε check can then never fire — the
// traversal is the exact one by construction.
//
// LSH probe filter: an optional per-leaf predicate (built from the
// multi-probe LSH filter over the shard's leaf layout, see package
// lsh). A popped leaf the filter rejects is skipped unscanned. The
// filter is only consulted once k candidates are known, so every shard
// still returns min(k, shard size) candidates and the merged result is
// never short — the filter can cost recall, never result cardinality.
//
// Composition with the shared cross-disk bound: the phantom mechanism
// of HSShared is unchanged — for the pages that are visited, phantom
// accounting stays exact. Pages the approximation skips (the pending
// queue at ε-termination, plus LSH-rejected leaves) are charged to
// ApproxStats.SkippedPages, never to Saved, so the shared bound's
// savings and the approximation's savings stay separately attributable.

import (
	"math"

	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// ApproxSpec configures the approximate search.
type ApproxSpec struct {
	// Shrink is the rank-space ε-termination factor,
	// Metric.ToRank(1/(1+ε)). 1 (or more) disables ε-termination.
	Shrink float64
	// Probe, when non-nil, is the LSH pre-filter: a popped leaf for
	// which it returns false is skipped without scanning. It is only
	// consulted once the local candidate set is full.
	Probe func(n *xtree.Node) bool
}

// ExactSpec reports whether the spec requests no approximation at all.
func (s ApproxSpec) ExactSpec() bool { return s.Shrink >= 1 && s.Probe == nil }

// ShrinkFor returns the rank-space termination factor for ε under m.
func ShrinkFor(epsilon float64, m vec.Metric) float64 {
	if epsilon <= 0 {
		return 1
	}
	return m.ToRank(1 / (1 + epsilon))
}

// ApproxStats reports what the approximation (and the shared bound)
// did for one HSApprox call.
type ApproxStats struct {
	SharedStats
	// SkippedPages counts pages the approximation skipped: the
	// still-reachable pending queue at ε-termination (nodes whose
	// MINDIST did not exceed the local bound — deeper pages under
	// pending directory nodes are not expanded, so this is a lower
	// bound on the work avoided) plus every LSH-rejected leaf.
	SkippedPages int
	// EpsilonFired reports whether ε-termination cut the traversal.
	EpsilonFired bool
	// ProbedPages counts leaf pages the LSH filter admitted;
	// RejectedLeaves counts leaves it refused. Both stay zero while
	// the candidate set is not yet full (the filter is not consulted).
	ProbedPages    int
	RejectedLeaves int
}

// HSApprox is the one Hjaltason–Samet priority-queue loop of the
// package: HS, HSMetric and HSShared are this traversal with parts of it
// switched off. b may be nil (no shared cross-disk bound): phantom
// accounting and tightening are then skipped, which is the independent
// search HSMetric names. With an exact spec (Shrink ≥ 1, nil Probe)
// neither relaxation can fire and the traversal and results are the
// exact ones of HSShared / HSMetric.
func HSApprox(t *xtree.Tree, q vec.Point, k int, m vec.Metric, spec ApproxSpec, b *Bound, onTighten func(sqBound float64)) ([]Result, Accounting, ApproxStats) {
	checkQuery(t, q, k)
	var acc Accounting
	var as ApproxStats
	best := kBest{k: k, metric: m}
	if t.Root() == nil {
		return nil, acc, as
	}
	var sc scratch
	pq := pqueue[nodeItem]{{node: t.Root(), sqMinDist: m.RankMinDist(t.Root().Rect(), q)}}
	phantom := false
	for len(pq) > 0 {
		item := pq.pop()
		bound := best.bound()
		if item.sqMinDist > bound {
			break
		}
		if spec.Shrink < 1 && item.sqMinDist > spec.Shrink*bound {
			// ε fires: k candidates are known (a finite bound), and every
			// pending node holds only points farther than kth/(1+ε).
			// Charge the reachable remainder of the queue as skipped —
			// nodes already beyond the local bound would never have been
			// visited (the bound only decreases), so they don't count.
			as.EpsilonFired = true
			as.SkippedPages += item.node.Super()
			for _, pend := range pq {
				if pend.sqMinDist <= bound {
					as.SkippedPages += pend.node.Super()
				}
			}
			break
		}
		if b != nil && !phantom && item.sqMinDist > b.Load() {
			phantom = true
		}
		n := item.node
		if n.IsLeaf() && spec.Probe != nil && len(best.heap) >= k {
			if !spec.Probe(n) {
				as.RejectedLeaves++
				as.SkippedPages += n.Super()
				continue
			}
			as.ProbedPages += n.Super()
		}
		if phantom {
			as.Saved.visit(n)
			if b.seededAt(b.Load()) {
				as.RemotePages += n.Super()
			}
		} else {
			acc.visit(n)
		}
		if n.IsLeaf() {
			// The SQ8 skip decisions depend only on the local candidate
			// stream (best.bound()), which phantom mode preserves, so
			// charging phantom skips to Saved keeps the exact-sum
			// invariant: acc + Saved equals the independent search's
			// accounting field for field.
			skipped := scanLeaf(n, q, m, &best, &sc)
			if phantom {
				as.Saved.DistCompsSkipped += skipped
			} else {
				acc.DistCompsSkipped += skipped
				if b != nil {
					if d := best.bound(); !math.IsInf(d, 1) && b.Tighten(d) {
						as.Tightened++
						if onTighten != nil {
							onTighten(d)
						}
					}
				}
			}
			continue
		}
		pushChildren(&pq, n, q, m, best.bound(), &sc)
	}
	return best.results(), acc, as
}

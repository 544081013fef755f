package knn

// Approximate k-NN: the HS search with one optional relaxation.
//
// ε-termination (Arya et al.): the search stops as soon as the next
// priority-queue node's MINDIST exceeds kth/(1+ε) — equivalently, once
// (1+ε)·MINDIST exceeds the current k-th best distance. Every point the
// terminated search never sees is then provably farther than
// kth/(1+ε), so the returned k-th distance is at most (1+ε) times the
// true k-th distance. The comparison happens in rank space: for a
// Minkowski metric, ToRank is a power function, so scaling the metric
// distance by 1/(1+ε) is scaling the rank distance by ToRank(1/(1+ε))
// (the shrink factor, see ShrinkFor). ε = 0 makes it 1, and because the
// exact stop check runs first, the ε check can then never fire — the
// traversal is the exact one by construction.
//
// Composition with the shared cross-disk bound: the ε check runs before
// the shared-bound check, so pages the approximation skips (the pending
// queue at ε-termination) are charged to ApproxStats.SkippedPages, never
// to Saved, and the shared bound's savings and the approximation's stay
// separately attributable.

import (
	"math"
	"sync"

	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// ShrinkFor returns the rank-space ε-termination factor for ε under m,
// Metric.ToRank(1/(1+ε)): what HSApprox takes as shrink. 1 (ε ≤ 0)
// disables ε-termination.
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
	// still-reachable pending queue at ε-termination (see queued).
	SkippedPages int
}

// HSApprox is the one Hjaltason–Samet priority-queue loop of the
// package: HS, HSMetric and HSShared are this traversal with parts of it
// switched off. b may be nil (no shared cross-disk bound), which is the
// independent search HSMetric names. With shrink ≥ 1 (see ShrinkFor) the
// search is exact: ε-termination cannot fire.
//
// Under a shared bound the search stops at the first popped node whose
// MINDIST strictly exceeds b.Load(). Why the merged answer is still the
// independent searches' answer, ties included:
//
//   - Pops come in MINDIST order and the bound only decreases, so every
//     later node would be pruned too: the traversal that stops here is a
//     prefix of the independent one, and it offered the same candidates
//     in the same order.
//   - The tail it never reads lies in nodes with MINDIST > the bound,
//     and every value a search publishes to the bound is a distance k
//     candidates of the index have already achieved. The tail therefore
//     holds only points strictly beyond the global k-th distance. (A
//     bound seeded by the caller instead defines the ball the answer is
//     taken from; see Bound.Seed.)
//   - Offering such a point to the local k-best can only evict a
//     candidate farther still, so the tail neither adds nor evicts a
//     result at or inside the global k-th distance. The comparison is
//     strict, so a node at exactly that distance — a tie — is read.
//
// What the truncated search returns beyond the bound is whatever the
// prefix had collected; the caller's merge never reaches it.
//
// log may be nil; otherwise the search records in it what its caller's
// page accounting needs (see LeafLog).
func HSApprox(t *xtree.Tree, q vec.Point, k int, m vec.Metric, shrink float64, b *Bound, log *LeafLog, onTighten func(sqBound float64)) ([]Result, Accounting, ApproxStats) {
	checkQuery(t, q, k)
	var acc Accounting
	var as ApproxStats
	if log != nil {
		log.Ranks, log.Frontier = log.Ranks[:0], math.Inf(1)
	}
	if t.Root() == nil {
		return nil, acc, as
	}
	s := searchPool.Get().(*search)
	defer s.release()
	pq, best, sc := &s.pq, &s.best, &s.sc
	best.k, best.metric = k, m
	// frontier is the smallest MINDIST of a node the search does not
	// visit: the children pushChildren prunes, and the node whose pop
	// ends the loop — by heap order no farther than anything still
	// queued.
	frontier := math.Inf(1)
	pq.push(nodeItem{node: t.Root(), sqMinDist: m.RankMinDist(t.Root().Rect(), q)})
	for len(*pq) > 0 {
		item := pq.pop()
		bound := best.bound()
		if item.sqMinDist > bound {
			frontier = min(frontier, item.sqMinDist)
			break
		}
		if shrink < 1 && item.sqMinDist > shrink*bound {
			// ε fires: k candidates are known (a finite bound), and every
			// pending node holds only points farther than kth/(1+ε).
			as.SkippedPages = queued(item, *pq, bound).PageAccesses
			frontier = min(frontier, item.sqMinDist)
			break
		}
		if b != nil {
			if shared := b.Load(); item.sqMinDist > shared {
				as.Saved = queued(item, *pq, bound)
				if b.seededAt(shared) {
					as.RemotePages = as.Saved.PageAccesses
				}
				frontier = min(frontier, item.sqMinDist)
				break
			}
		}
		n := item.node
		acc.visit(n)
		if !n.IsLeaf() {
			frontier = min(frontier, pushChildren(pq, n, q, m, best.bound(), sc))
			continue
		}
		scanLeaf(n, q, m, best, sc)
		if log != nil {
			log.Ranks = append(log.Ranks, item.sqMinDist)
		}
		if b != nil {
			if d := best.bound(); !math.IsInf(d, 1) && b.Tighten(d) {
				as.Tightened++
				if onTighten != nil {
					onTighten(d)
				}
			}
		}
	}
	if log != nil {
		log.Frontier = frontier
	}
	return best.results(), acc, as
}

// LeafLog is what one HSApprox call records for its caller's page
// accounting: the leaves it scanned, and how far its traversal reached.
// It holds numbers only — no node or entry of the tree — so a log kept
// in pooled scratch never keeps a tree alive.
type LeafLog struct {
	// Ranks holds the rank MINDIST each scanned leaf was popped with, in
	// pop order: the value pushChildren computed for it, by the same
	// kernel — batched on a packed directory page, scalar otherwise —
	// that xtree.Tree.HitLeaves evaluates, and hence bit for bit its
	// value (see xtree.Region.descendPacked).
	Ranks []float64
	// Frontier is the smallest rank MINDIST of any node the search did
	// not visit; +inf when it visited every node it did not prune. The
	// zero LeafLog (Frontier 0) logged nothing and serves no radius.
	Frontier float64
}

// Hits returns the number of leaves of the searched tree that the
// ball of rank radius rank hits — xtree.Tree.HitLeaves' count for
// Region{Rank: rank} — read off the log. ok is false when the log cannot
// tell, and the caller must descend the tree instead.
//
// The log tells iff rank < Frontier. Every node the search did not visit
// was either pruned by pushChildren, still queued when the loop ended,
// or the node whose pop ended it — so its MINDIST is at least Frontier
// — or lies below such a node, whose MINDIST is at most its own (the
// monotonicity argument at xtree.Tree.HitLeaves). With rank < Frontier
// no unvisited leaf is hit, so the hit leaves are exactly the logged
// leaves with MINDIST ≤ rank. The check needs nothing about the shared
// bound or ties; what fails it is a search that stopped inside the ball:
// ε-termination, a ball rounded past the k-th distance (ToRank), or a
// bound seeded beyond where the search stopped.
func (l *LeafLog) Hits(rank float64) (leaves int, ok bool) {
	if !(rank < l.Frontier) {
		return 0, false
	}
	for _, r := range l.Ranks {
		if r <= rank {
			leaves++
		}
	}
	return leaves, true
}

// queued accounts the work a search abandons when it stops at the popped
// node item: item itself and every node still in the queue whose MINDIST
// does not exceed the local bound — the pages the search still held
// inside its own candidate sphere. Nodes beyond the local bound would
// never have been visited (the bound only decreases), so they don't
// count. This estimates what carrying on would have read; it is not
// that count. Pages below a queued directory node are not expanded — on
// a tree of three or more levels that is most of them — while a queued
// node that a later tightening of the local bound would have ruled out
// is counted.
func queued(item nodeItem, pq pqueue[nodeItem], bound float64) (a Accounting) {
	a.visit(item.node)
	for _, pend := range pq {
		if pend.sqMinDist <= bound {
			a.visit(pend.node)
		}
	}
	return a
}

// search is the scratch of one HSApprox call — node queue, k-best heap,
// batch buffer — pooled so that a search allocates only the result slice
// it hands to its caller.
type search struct {
	pq   pqueue[nodeItem]
	best kBest
	sc   scratch
}

var searchPool = sync.Pool{New: func() any { return new(search) }}

// release returns s to the pool with no tree node or entry reachable from
// it: a pooled queue must not keep a reorganized-away tree alive.
func (s *search) release() {
	clear(s.pq[:cap(s.pq)])
	clear(s.best.heap[:cap(s.best.heap)])
	s.pq, s.best.heap = s.pq[:0], s.best.heap[:0]
	searchPool.Put(s)
}

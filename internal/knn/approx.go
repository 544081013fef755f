package knn

// The one Hjaltason–Samet loop of the package (Search.Run), over one
// tree or over every tree of a declustered query, with one optional
// relaxation.
//
// One queue across trees: the queue is seeded with every tree's root
// and every node carries its tree's number, so the loop pops the nodes of
// all trees in one global MINDIST order against one k-best. It stops at
// the first node beyond the global k-th distance, and so reads exactly
// the nodes of every tree that intersect the global NN-sphere — Hjaltason
// and Samet's optimality argument, applied across disks. Each tree keeps
// its own accounting and leaf log, because the disks are charged apart.
//
// ε-termination (Arya et al.) is per tree: a tree is no longer expanded
// once its next node's MINDIST exceeds kth/(1+ε) of that tree's own k-th
// best — equivalently, once (1+ε)·MINDIST exceeds it. Every point the
// tree's search never sees is then provably farther than kth_t/(1+ε) ≥
// kth/(1+ε), where kth ≤ kth_t is the answer's k-th distance, so the
// returned k-th distance is at most (1+ε) times the true one. (A rule on
// the global k-th best stops sooner and loses recall below the documented
// floors.) The comparison happens in rank space: for a Minkowski metric,
// ToRank is a power function, so scaling the metric distance by 1/(1+ε)
// is scaling the rank distance by ToRank(1/(1+ε)) (the shrink factor,
// see ShrinkFor). ε = 0 makes it 1, and because the exact stop check runs
// first, the ε check can then never fire — the traversal is the exact one
// by construction.

import (
	"math"

	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// ShrinkFor returns the rank-space ε-termination factor for ε under m,
// Metric.ToRank(1/(1+ε)): what Search takes as Shrink. 1 (ε ≤ 0)
// disables ε-termination.
func ShrinkFor(epsilon float64, m vec.Metric) float64 {
	if epsilon <= 0 {
		return 1
	}
	return m.ToRank(1 / (1 + epsilon))
}

// ApproxStats reports what the bounds and the approximation cut from one
// tree of a search.
type ApproxStats struct {
	// Saved accounts the work the tree's search abandoned when a bound
	// stopped it — the k-th best over every tree of the Search, or its
	// Seed: the queued nodes of the tree inside its own bound (see
	// Search.abandon and Search.own). Pages below a queued directory node
	// are not counted, so on trees of three or more levels this is
	// normally far below the pages an independent search would go on to
	// read; on a lone tree it is zero exactly when the bound cut nothing.
	Saved Accounting
	// RemotePages is Saved.PageAccesses when the Seed stopped the search:
	// pruning attributable to the remote bound rather than to the
	// search's own candidates. Always 0 without a seed, and 0 when the
	// search's own k-th best stopped it, even though the seed alone
	// might also have pruned.
	RemotePages int
	// SkippedPages counts pages the approximation skipped: the
	// still-reachable pending queue of the tree at ε-termination (see
	// Search.queued).
	SkippedPages int
}

// TreeSearch is one tree's slot of a Search: the tree, and what the
// search read in it.
type TreeSearch struct {
	// Tree is the tree to search; nil leaves the slot unsearched, with
	// the zero log.
	Tree *xtree.Tree
	// Acc counts the nodes the search visited in the tree, Stats what the
	// bounds and the approximation cut from it, and Log what the caller's
	// page accounting needs (see LeafLog).
	Acc   Accounting
	Stats ApproxStats
	Log   LeafLog

	local   kRanks // the tree's own k best rank distances, kept while ε is armed
	stopped bool   // ε-termination fired on the tree
}

// Search is one k-NN query over one or several trees: set the fields,
// size Trees with Slots, and call Run. A Search is reusable; Reset drops
// every reference into the trees it searched.
type Search struct {
	Q vec.Point
	K int
	M vec.Metric
	// Shrink is the rank-space ε-termination factor (see ShrinkFor); ≥ 1
	// is exact.
	Shrink float64
	// Seed, when > 0, is the rank bound the queue starts under: nodes
	// beyond it are never read, so the search is a k-NN within that
	// distance and may come up short of k. Stops the seed causes are
	// charged to RemotePages.
	//
	// The seed must not round below the distance it stands for: a point
	// at exactly that distance is a tie the caller's merge may need (see
	// vec.Metric.ToRankCeil).
	Seed float64
	// Done, when non-nil, is polled every 32 pops: once it reports
	// true, the search is abandoned and Run returns nil.
	Done func() bool
	// Trees holds one slot per tree.
	Trees []TreeSearch

	pq   pqueue[nodeItem]
	best kBest
	sc   scratch
	lone bool // at most one tree has a root: its own k-th best is best's
}

// Slots sizes Trees to n zeroed slots, keeping the capacity of their
// logs and k-best buffers, and returns it.
func (s *Search) Slots(n int) []TreeSearch {
	if cap(s.Trees) < n {
		s.Trees = append(s.Trees[:cap(s.Trees)], make([]TreeSearch, n-cap(s.Trees))...)
	}
	s.Trees = s.Trees[:n]
	for i := range s.Trees {
		ts := &s.Trees[i]
		*ts = TreeSearch{Log: LeafLog{Ranks: ts.Log.Ranks[:0]}, local: kRanks{heap: ts.local.heap[:0]}}
	}
	return s.Trees
}

// Reset drops every tree, node and entry the search can reach, keeping
// its buffers' capacity: a pooled Search must not keep a
// reorganized-away tree alive.
func (s *Search) Reset() {
	clear(s.pq[:cap(s.pq)])
	clear(s.best.heap[:cap(s.best.heap)])
	s.pq, s.best.heap = s.pq[:0], s.best.heap[:0]
	s.Slots(len(s.Trees))
	s.Q = nil
}

// Run answers the query: the k nearest entries over every slot's tree,
// sorted by (distance, ID), with metric distances. The trees must not
// change during the search: a caller whose trees have writers searches
// versions of them (xtree.Tree.Freeze).
//
// The loop stops at the first node whose MINDIST strictly exceeds the
// k-th best over all trees, and the answer is exactly what independent
// searches of the trees, merged, would return. Why, ties included:
//
//   - Pops come in MINDIST order and the k-th best only decreases, so
//     every node still queued would be pruned too.
//   - The nodes never read have MINDIST > the k-th best, a distance k
//     candidates have already achieved, so they hold only points
//     strictly beyond the k-th distance of the union of the trees.
//   - Offering such a point to the k-best can only evict a candidate
//     farther still, so the unread nodes neither add nor evict a result
//     at or inside that distance. The comparison is strict, so a node at
//     exactly that distance — a tie — is read, and the k-best keeps the
//     smaller ID whatever order the tie was offered in.
//
// A Seed defines the ball the answer is taken from instead: the entries
// at or inside it are the exact answer's, and beyond it the answer holds
// whatever the stopped search had collected, and may be short of k.
func (s *Search) Run() []Result {
	s.pq = s.pq[:0]
	s.best = kBest{k: s.K, metric: s.M, heap: s.best.heap[:0]}
	live := 0
	for i := range s.Trees {
		ts := &s.Trees[i]
		if ts.Tree == nil {
			continue
		}
		checkQuery(ts.Tree, s.Q, s.K)
		ts.Acc, ts.Stats, ts.stopped = Accounting{}, ApproxStats{}, false
		ts.local = kRanks{k: s.K, heap: ts.local.heap[:0]}
		ts.Log.Ranks, ts.Log.Frontier = ts.Log.Ranks[:0], math.Inf(1)
		if root := ts.Tree.Root(); root != nil {
			s.pq.push(nodeItem{node: root, sqMinDist: s.M.RankMinDist(root.Rect(), s.Q), tree: i})
			live++
		}
	}
	s.lone = live <= 1
	// frontier is the smallest MINDIST of a node the search does not
	// visit (a partial one for a child the staged kernel dropped): the
	// children pushChildren prunes, and the node whose pop ends
	// the loop — by heap order no farther than anything still queued. A
	// tree ε stopped has its own, smaller one in its log.
	frontier := math.Inf(1)
	for pops := 1; len(s.pq) > 0; pops++ {
		if s.Done != nil && pops%32 == 0 && s.Done() {
			return nil
		}
		item := s.pq.pop()
		ts := &s.Trees[item.tree]
		kth := s.best.bound()
		if item.sqMinDist > kth {
			frontier = min(frontier, item.sqMinDist)
			s.abandon(item, false)
			break
		}
		if ts.stopped {
			continue
		}
		if s.Shrink < 1 && item.sqMinDist > s.Shrink*ts.local.bound() {
			// ε fires: the tree's k candidates are known (a finite bound),
			// and every node of it still pending holds only points farther
			// than its kth/(1+ε).
			ts.stopped = true
			ts.Stats.SkippedPages = s.queued(item, item.tree).PageAccesses
			ts.Log.Frontier = item.sqMinDist
			if live--; live == 0 {
				break
			}
			continue
		}
		if s.Seed > 0 && item.sqMinDist > s.Seed {
			frontier = min(frontier, item.sqMinDist)
			s.abandon(item, true)
			break
		}
		n := item.node
		ts.Acc.visit(n)
		if !n.IsLeaf() {
			frontier = min(frontier, pushChildren(&s.pq, n, item.tree, s.Q, s.M, kth, &s.sc))
			continue
		}
		var local *kRanks
		if s.Shrink < 1 {
			local = &ts.local
		}
		scanLeaf(n, s.Q, s.M, &s.best, local, &s.sc)
		ts.Log.Ranks = append(ts.Log.Ranks, item.sqMinDist)
	}
	for i := range s.Trees {
		if ts := &s.Trees[i]; ts.Tree != nil {
			ts.Log.Frontier = min(ts.Log.Frontier, frontier)
		}
	}
	if len(s.best.heap) == 0 {
		return nil
	}
	return s.best.results(len(s.Q))
}

// abandon charges the work the loop gives up when a bound stops it at
// the popped item: per tree not ε-stopped, the pending nodes inside the
// tree's own bound (see own) — to RemotePages as well when the stopping
// bound was the Seed. With one tree and no seed it is nothing: the
// tree's own k-th best is the one that stopped it.
func (s *Search) abandon(item nodeItem, remote bool) {
	s.save(item)
	for _, pend := range s.pq {
		s.save(pend)
	}
	if !remote {
		return
	}
	for i := range s.Trees {
		s.Trees[i].Stats.RemotePages = s.Trees[i].Stats.Saved.PageAccesses
	}
}

func (s *Search) save(it nodeItem) {
	if ts := &s.Trees[it.tree]; !ts.stopped && it.sqMinDist <= s.own(ts) {
		ts.Stats.Saved.visit(it.node)
	}
}

// own returns the rank bound an independent search of the tree would
// stop at, as far as the search knows it: the tree's own k-th best while
// ε is armed, the one k-th best on a lone tree, and +inf otherwise — an
// exact search over several trees keeps no per-tree k-best, which would
// cost it a sixth of its time, so every node it still held counts.
func (s *Search) own(ts *TreeSearch) float64 {
	switch {
	case s.Shrink < 1:
		return ts.local.bound()
	case s.lone:
		return s.best.bound()
	}
	return math.Inf(1)
}

// queued accounts the work tree number tree abandons when it stops at
// the popped node item: item itself and every node of the tree still
// queued whose MINDIST does not exceed the tree's own bound — the pages
// it still held inside its own candidate sphere. Nodes beyond that bound
// would never have been visited (the bound only decreases), so they
// don't count. This estimates what carrying on would have read; it is
// not that count. Pages below a queued directory node are not expanded —
// on a tree of three or more levels that is most of them — while a
// queued node that a later tightening of the bound would have ruled out
// is counted.
func (s *Search) queued(item nodeItem, tree int) (a Accounting) {
	bound := s.Trees[tree].local.bound()
	a.visit(item.node)
	for _, pend := range s.pq {
		if pend.tree == tree && pend.sqMinDist <= bound {
			a.visit(pend.node)
		}
	}
	return a
}

// kRanks collects the k smallest rank distances offered: one tree's own
// k-th best, which its ε rule and the abandoned-work estimates read.
type kRanks struct {
	k    int
	heap pqueue[farther]
}

// farther orders a max-heap of rank distances.
type farther float64

func (a farther) before(b farther) bool { return a > b }

func (b *kRanks) offer(d float64) {
	if len(b.heap) < b.k {
		b.heap.push(farther(d))
	} else if farther(d) < b.heap[0] {
		b.heap[0] = farther(d)
		b.heap.fix(0)
	}
}

// bound returns the k-th smallest rank distance offered, or +inf while
// fewer than k were.
func (b *kRanks) bound() float64 {
	if len(b.heap) < b.k {
		return math.Inf(1)
	}
	return float64(b.heap[0])
}

// LeafLog is what a search records per tree for its caller's page
// accounting: the leaves it scanned, and how far its traversal reached.
// It holds numbers only — no node or entry of the tree — so a log kept
// in pooled scratch never keeps a tree alive.
type LeafLog struct {
	// Ranks holds the rank MINDIST each scanned leaf was popped with, in
	// pop order: the value pushChildren computed for it with the batched
	// kernel, which is bit for bit the value xtree.Tree.HitLeaves
	// evaluates (see xtree.Region.descendPacked).
	Ranks []float64
	// Frontier is a lower bound on the rank MINDIST of every node of the
	// tree the search did not visit; +inf when it visited every node it
	// did not prune. A search over several trees gives every log the one
	// global frontier — no larger than any tree's own — and an ε-stopped
	// tree the node it stopped at, if smaller. A child the staged kernel
	// dropped counts with its partial MINDIST (see pushChildren), a
	// smaller lower bound on its MINDIST but still above the k-th distance
	// that pruned it. The zero LeafLog (Frontier 0) logged nothing and
	// serves no radius.
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
// leaves with MINDIST ≤ rank. The check needs nothing about the bounds
// or ties; what fails it is a search that stopped inside the ball:
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

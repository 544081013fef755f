// Package knn implements nearest-neighbor search over the X-tree: the
// priority-queue algorithm of Hjaltason and Samet [HS 95], which visits
// partitions ordered by MINDIST and is optimal in the number of pages read
// (exactly those intersecting the NN-sphere), and the branch-and-bound
// algorithm of Roussopoulos, Kelley and Vincent [RKV 95] with MINMAXDIST
// pruning, which the paper applied to the X-tree in [BKK 96]. A linear
// scan provides ground truth for the tests.
//
// All algorithms report page-access accounting, the cost measure of the
// paper's experiments (a supernode of multiplier s costs s page accesses).
package knn

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// Result is one neighbor: the stored entry and its distance to the query
// point under the search's metric. A search's results carry their points
// in one array of their own: a result never aliases a tree's storage.
type Result struct {
	Entry xtree.Entry
	Dist  float64
}

// Accounting counts the I/O a query performed.
type Accounting struct {
	// DirAccesses and LeafAccesses count visited directory and leaf
	// nodes.
	DirAccesses, LeafAccesses int
	// PageAccesses counts disk blocks: every visited node costs its
	// supernode multiplier.
	PageAccesses int
}

// Add accumulates another query's accounting into a — the aggregation
// step of multi-disk (and multi-query) instrumentation.
func (a *Accounting) Add(o Accounting) {
	a.DirAccesses += o.DirAccesses
	a.LeafAccesses += o.LeafAccesses
	a.PageAccesses += o.PageAccesses
}

func (a *Accounting) visit(n *xtree.Node) {
	if n.IsLeaf() {
		a.LeafAccesses++
	} else {
		a.DirAccesses++
	}
	a.PageAccesses += n.Super()
}

// Compare orders results by increasing distance, ties by entry ID — the
// order of every result list and of the cross-disk merge.
func (r Result) Compare(o Result) int {
	if c := cmp.Compare(r.Dist, o.Dist); c != 0 {
		return c
	}
	return cmp.Compare(r.Entry.ID, o.Entry.ID)
}

// before orders a k-best heap last candidate first — a max-heap by
// (rank distance, ID) — so the root is the one a nearer candidate, or an
// equally near one with a smaller ID, replaces.
func (r Result) before(o Result) bool {
	return r.Dist > o.Dist || (r.Dist == o.Dist && r.Entry.ID > o.Entry.ID)
}

// candidate is a leaf entry in a k-best: its rank distance, its ID, and
// where it lies — slot slot of leaf leaf — until results copies its point.
type candidate struct {
	dist float64
	id   int
	leaf *xtree.Node
	slot int
}

func (c candidate) before(o candidate) bool {
	return c.dist > o.dist || (c.dist == o.dist && c.id > o.id)
}

// kBest collects the k nearest candidates seen so far, ordered by rank
// distance (see vec.Metric.RankDist), ties by ID: which k of several
// candidates at the k-th distance it keeps does not depend on the order
// they were offered in — across the trees of one search, the order the
// old per-disk merge sorted them by.
type kBest struct {
	k      int
	metric vec.Metric
	heap   pqueue[candidate]
}

// bound returns the squared distance of the current k-th candidate, or
// +inf while fewer than k candidates are known.
func (b *kBest) bound() float64 {
	if len(b.heap) < b.k {
		return math.Inf(1)
	}
	return b.heap[0].dist
}

// offer inserts slot i of leaf, at rank distance dist, if it improves the
// k-set.
func (b *kBest) offer(leaf *xtree.Node, i int, dist float64) {
	id := leaf.ID(i)
	if len(b.heap) < b.k {
		b.heap.push(candidate{dist, id, leaf, i})
		return
	}
	if root := &b.heap[0]; dist < root.dist || (dist == root.dist && id < root.id) {
		*root = candidate{dist, id, leaf, i}
		b.heap.fix(0)
	}
}

// results returns the collected candidates sorted by increasing distance,
// with rank distances converted to metric distances, and their points
// copied into one len × dim array. It sorts the heap in place: the
// search is over.
func (b *kBest) results(dim int) []Result {
	c := b.heap
	slices.SortFunc(c, func(x, y candidate) int {
		if v := cmp.Compare(x.dist, y.dist); v != 0 {
			return v
		}
		return cmp.Compare(x.id, y.id)
	})
	out := make([]Result, len(c))
	coords := make([]float64, len(c)*dim)
	for i, x := range c {
		p := coords[i*dim : (i+1)*dim : (i+1)*dim]
		x.leaf.PointAt(x.slot, p)
		out[i] = Result{Entry: xtree.Entry{Point: p, ID: x.id}, Dist: b.metric.FromRank(x.dist)}
	}
	return out
}

func checkQuery(t *xtree.Tree, q vec.Point, k int) {
	if k < 1 {
		panic(fmt.Sprintf("knn: k = %d < 1", k))
	}
	if len(q) != t.Config().Dim {
		panic(fmt.Sprintf("knn: %d-dimensional query on %d-dimensional tree", len(q), t.Config().Dim))
	}
}

// nodeItem is a priority-queue element for the HS algorithm: a node of
// the search's tree number tree.
type nodeItem struct {
	node      *xtree.Node
	sqMinDist float64
	tree      int
}

// before orders the node queue by increasing MINDIST.
func (a nodeItem) before(b nodeItem) bool { return a.sqMinDist < b.sqMinDist }

// HS finds the k nearest neighbors of q under the Euclidean metric with
// the Hjaltason–Samet priority-queue algorithm: nodes are visited in
// MINDIST order and the search stops as soon as the next node's MINDIST
// exceeds the k-th best distance. HS reads exactly the pages whose
// region intersects the NN-sphere, which makes it the reference
// algorithm for the paper's page-count experiments.
func HS(t *xtree.Tree, q vec.Point, k int) ([]Result, Accounting) {
	return HSMetric(t, q, k, vec.L2)
}

// HSMetric is HS under an arbitrary Minkowski metric (the NN-"sphere"
// becomes the metric's ball; the algorithm and its optimality argument
// carry over unchanged).
func HSMetric(t *xtree.Tree, q vec.Point, k int, m vec.Metric) ([]Result, Accounting) {
	res, acc, _ := HSShared(t, q, k, m, nil, nil)
	return res, acc
}

// RKV finds the k nearest neighbors with the depth-first branch-and-bound
// algorithm of Roussopoulos et al.: children are visited in MINDIST order,
// branches whose MINDIST exceeds the current k-th best distance are
// pruned, and for k = 1 the MINMAXDIST of each sibling additionally
// tightens the upper bound before any point has been seen (the pruning
// rule does not generalize to k > 1, where it is skipped).
func RKV(t *xtree.Tree, q vec.Point, k int) ([]Result, Accounting) {
	checkQuery(t, q, k)
	var acc Accounting
	best := kBest{k: k, metric: vec.L2}
	if t.Root() == nil {
		return nil, acc
	}
	var sc scratch
	var visit func(n *xtree.Node)
	visit = func(n *xtree.Node) {
		acc.visit(n)
		if n.IsLeaf() {
			scanLeaf(n, q, vec.L2, &best, nil, &sc)
			return
		}
		children := n.Children()
		type branch struct {
			node      *xtree.Node
			sqMinDist float64
		}
		abl := make([]branch, 0, len(children))
		upper := math.Inf(1)
		for _, c := range children {
			abl = append(abl, branch{node: c, sqMinDist: c.Rect().SqMinDist(q)})
			if k == 1 {
				// MINMAXDIST guarantees a data point within
				// that distance inside the child MBR.
				if mm := c.Rect().SqMinMaxDist(q); mm < upper {
					upper = mm
				}
			}
		}
		sort.Slice(abl, func(i, j int) bool { return abl[i].sqMinDist < abl[j].sqMinDist })
		for _, b := range abl {
			if b.sqMinDist > best.bound() || b.sqMinDist > upper {
				continue
			}
			visit(b.node)
		}
	}
	visit(t.Root())
	return best.results(len(q)), acc
}

// Linear scans entries directly — the ground truth for correctness tests
// and the no-index baseline. Ties are broken by entry ID, matching the
// tree algorithms.
func Linear(entries []xtree.Entry, q vec.Point, k int) []Result {
	return LinearMetric(entries, q, k, vec.L2)
}

// LinearMetric is Linear under an arbitrary Minkowski metric. The results
// are the given entries; their points are the caller's.
func LinearMetric(entries []xtree.Entry, q vec.Point, k int, m vec.Metric) []Result {
	if k < 1 {
		panic(fmt.Sprintf("knn: k = %d < 1", k))
	}
	var best pqueue[Result]
	for _, e := range entries {
		r := Result{Entry: e, Dist: m.RankDist(q, e.Point)}
		if len(best) < k {
			best.push(r)
		} else if best[0].before(r) {
			best[0] = r
			best.fix(0)
		}
	}
	out := slices.Clone(best)
	slices.SortFunc(out, Result.Compare)
	for i := range out {
		out[i].Dist = m.FromRank(out[i].Dist)
	}
	return out
}

// SphereLeafPages counts the leaf pages of the tree whose MBR intersects
// the Euclidean sphere of (non-squared) radius r around q — the pages
// any NN-algorithm must read (paper §2.1, the NN-sphere). Supernode
// leaves count their multiplier. The second result is the number of
// leaves.
func SphereLeafPages(t *xtree.Tree, q vec.Point, r float64) (pages, leaves int) {
	t.HitLeaves(&xtree.Region{Q: q, M: vec.L2, Rank: r * r}, func(l *xtree.Node) {
		pages += l.Super()
		leaves++
	})
	return pages, leaves
}

// KthDistance returns the distance of the k-th nearest neighbor of q, or
// +inf when the tree holds fewer than k entries. It runs HS.
func KthDistance(t *xtree.Tree, q vec.Point, k int) float64 {
	res, _ := HS(t, q, k)
	if len(res) < k {
		return math.Inf(1)
	}
	return res[k-1].Dist
}

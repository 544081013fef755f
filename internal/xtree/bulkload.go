package xtree

import (
	"fmt"
	"math"
	"slices"

	"parsearch/internal/vec"
)

// BulkLoad builds the tree from scratch over the given entries, replacing
// any previous content. It uses a recursive median partition (a
// sort-tile-recursive variant): the entry set is repeatedly sorted along
// the dimension of largest spread and cut at a block-aligned median, which
// yields leaves with zero overlap; directory levels are built bottom-up
// the same way over the node centers. Bulk loading is how the experiments
// construct their per-disk trees.
//
// The entries slice is reordered in place (into leaf order) but not
// retained: every leaf copies its entries' IDs and points into its own
// block (rounding them to float32), so the caller may
// reuse or drop the slice and the points afterwards. It is
// BulkLoadGrouped with a single group.
func (t *Tree) BulkLoad(entries []Entry) {
	t.BulkLoadGrouped([][]Entry{entries})
}

// BulkLoadGrouped builds the tree like BulkLoad but with the guarantee
// that no leaf page spans two of the given groups: each group's entries
// are partitioned into their own leaves, and only the directory levels
// are built across groups. The parallel engine uses this to keep every
// data page inside a single declustering bucket — the storage layout of
// the paper, where the buckets of the quadrant grid are the storage
// units. Empty groups are permitted. The group slices are reordered in
// place and not retained (see BulkLoad); loading the reordered groups
// again yields the tree the engine's replicas hold.
func (t *Tree) BulkLoadGrouped(groups [][]Entry) {
	total, largest := 0, 0
	for _, g := range groups {
		for _, e := range g {
			if len(e.Point) != t.cfg.Dim {
				panic(fmt.Sprintf("xtree: bulk loading %d-dimensional point into %d-dimensional tree", len(e.Point), t.cfg.Dim))
			}
			checkID(e.ID)
		}
		total += len(g)
		largest = max(largest, len(g))
	}
	t.mutable()
	t.root = nil
	t.size = total
	t.stats = Stats{}
	if total == 0 {
		return
	}

	// Build the leaf level, then directory levels bottom-up until a
	// single root remains.
	s := &loadScratch{cfg: t.cfg, gen: t.gen, runMin: make(vec.Point, t.cfg.Dim), runMax: make(vec.Point, t.cfg.Dim)}
	s.reserve(largest)
	s.entries = make([]Entry, largest)
	for _, g := range groups {
		if len(g) > 0 {
			s.partitionEntries(g, 0)
		}
	}
	for len(s.level) > 1 {
		nodes := s.level
		s.level = nil
		s.reserve(len(nodes))
		if cap(s.nodes) < len(nodes) {
			s.nodes = make([]*Node, len(nodes))
		}
		s.partitionNodes(nodes, 0)
	}
	t.root = s.level[0]
	t.packSubtree(t.root)
}

// sortKey is one row of the key table the partition steps sort in place
// of the items themselves: the item's coordinate along the cut dimension
// and its position in the unsorted sequence. Sixteen pointer-free bytes
// move per swap instead of an Entry and its write barriers.
type sortKey struct {
	key float64
	pos int
}

// loadScratch is the working memory of one BulkLoadGrouped call: sized by
// the call's largest partition, reused by every recursion step, garbage
// on return, and never shared — concurrent loads need no synchronization.
type loadScratch struct {
	cfg   Config
	gen   uint64  // the tree's generation, which the new nodes carry
	level []*Node // the nodes emitted for the level being built

	keys       []sortKey
	entries    []Entry     // staging for permuting entries
	nodes      []*Node     // staging for permuting nodes
	mins, maxs []vec.Point // item bounds in sorted order, for bestCut
	suffixVol  []float64   // bestCut's suffix volumes over the cut window
	// Running bounds: of bestCut's growing sides, and of the spread pass.
	runMin, runMax vec.Point
}

// reserve grows the per-item scratch to hold n items.
func (s *loadScratch) reserve(n int) {
	if cap(s.keys) < n {
		s.keys = make([]sortKey, n)
		s.mins, s.maxs = make([]vec.Point, n), make([]vec.Point, n)
		s.suffixVol = make([]float64, n)
	}
}

// partitionEntries recursively splits entries into leaves of at most
// LeafCapacity, cutting along the dimension of largest spread at a
// block-aligned median. history accumulates the split dimensions, matching
// the split history maintained by dynamic inserts.
func (s *loadScratch) partitionEntries(entries []Entry, history uint64) {
	if len(entries) <= s.cfg.LeafCapacity {
		n := &Node{leaf: true, history: history, super: 1, gen: s.gen}
		s.cfg.setLeaf(n, entries)
		n.recomputeRect()
		s.level = append(s.level, n)
		return
	}
	dim := s.widestEntryDim(entries)
	keys := s.keys[:len(entries)]
	for i := range entries {
		keys[i] = sortKey{entries[i].Point[dim], i}
	}
	sortByKeys(keys, entries, s.entries)
	points := s.mins[:len(entries)]
	for i := range entries {
		points[i] = entries[i].Point
	}
	cut := s.bestCut(points, points)
	h := history | 1<<uint(dim)
	s.partitionEntries(entries[:cut], h)
	s.partitionEntries(entries[cut:], h)
}

// partitionNodes is partitionEntries over node centers, emitting
// directory nodes of at most DirCapacity children.
func (s *loadScratch) partitionNodes(nodes []*Node, history uint64) {
	if len(nodes) <= s.cfg.DirCapacity {
		own := make([]*Node, len(nodes))
		copy(own, nodes)
		n := &Node{leaf: false, children: own, history: history, super: 1, gen: s.gen}
		n.recomputeRect()
		s.level = append(s.level, n)
		return
	}
	dim := s.widestNodeDim(nodes)
	keys := s.keys[:len(nodes)]
	for i, n := range nodes {
		keys[i] = sortKey{n.rect.Min[dim] + n.rect.Max[dim], i}
	}
	sortByKeys(keys, nodes, s.nodes)
	mins, maxs := s.mins[:len(nodes)], s.maxs[:len(nodes)]
	for i, n := range nodes {
		mins[i], maxs[i] = n.rect.Min, n.rect.Max
	}
	cut := s.bestCut(mins, maxs)
	h := history | 1<<uint(dim)
	s.partitionNodes(nodes[:cut], h)
	s.partitionNodes(nodes[cut:], h)
}

// sortByKeys sorts the key table (keys[i] describes items[i]) and applies
// the permutation to items through the staging buffer. The order is the
// one package sort's Slice produces on the items themselves under
// key(i) < key(j), ties included: both are instances of one generated
// pattern-defeating quicksort, which for the same length and the same
// less outcomes performs the same swaps, and the comparator is less
// exactly when < is, NaN keys included.
func sortByKeys[T any](keys []sortKey, items, stage []T) {
	slices.SortFunc(keys, func(a, b sortKey) int {
		if a.key < b.key {
			return -1
		}
		if b.key < a.key {
			return 1
		}
		return 0
	})
	stage = stage[:len(items)]
	for i, k := range keys {
		stage[i] = items[k.pos]
	}
	copy(items, stage)
}

// bestCut returns the cut index in the middle 40% of a sorted sequence
// that minimizes the summed MBR volume of the two sides (ties: closest to
// the middle). Volume-minimal cuts fall between the data's natural
// clusters (e.g. quadrant boundaries), keeping page MBRs tight — what a
// dynamically built R*/X-tree achieves with its overlap-minimizing
// splits. mins and maxs hold the per-item bounds (the same slice for
// points). Both sides' bounds grow over every item, but a volume is
// computed only where a cut may fall.
func (s *loadScratch) bestCut(mins, maxs []vec.Point) int {
	n := len(mins)
	lo := n * 3 / 10
	if lo < 1 {
		lo = 1
	}
	hi := n - lo
	if hi < lo {
		return n / 2
	}
	runMin, runMax := s.runMin, s.runMax

	// suffixVol[k-lo] = volume of the MBR of items [k, n), lo <= k <= hi.
	suffixVol := s.suffixVol[:hi-lo+1]
	copy(runMin, mins[n-1])
	copy(runMax, maxs[n-1])
	for i := n - 1; i >= lo; i-- {
		extend(runMin, runMax, mins[i], maxs[i])
		if i <= hi {
			suffixVol[i-lo] = volume(runMin, runMax)
		}
	}

	// The prefix MBR of items [0, k) grows alongside the scan for the
	// best k.
	best, bestVol, bestDist := n/2, math.Inf(1), n
	copy(runMin, mins[0])
	copy(runMax, maxs[0])
	for k := 1; k <= hi; k++ {
		extend(runMin, runMax, mins[k-1], maxs[k-1])
		if k < lo {
			continue
		}
		v := volume(runMin, runMax) + suffixVol[k-lo]
		dist := k - n/2
		if dist < 0 {
			dist = -dist
		}
		if v < bestVol || (v == bestVol && dist < bestDist) {
			best, bestVol, bestDist = k, v, dist
		}
	}
	return best
}

// extend grows the running bounds to cover the item bounds.
func extend(runMin, runMax, itemMin, itemMax vec.Point) {
	// One bounds check a slice instead of one an element.
	runMax, itemMin, itemMax = runMax[:len(runMin)], itemMin[:len(runMin)], itemMax[:len(runMin)]
	for j := range runMin {
		if v := itemMin[j]; v < runMin[j] {
			runMin[j] = v
		}
		if v := itemMax[j]; v > runMax[j] {
			runMax[j] = v
		}
	}
}

// volume returns the product of the side lengths.
func volume(min, max vec.Point) float64 {
	v := 1.0
	for j := range min {
		v *= max[j] - min[j]
	}
	return v
}

// widestEntryDim returns the dimension with the largest coordinate
// spread, from one pass over the entries.
func (s *loadScratch) widestEntryDim(entries []Entry) int {
	lo, hi := s.runMin, s.runMax
	copy(lo, entries[0].Point)
	copy(hi, entries[0].Point)
	for _, e := range entries[1:] {
		extend(lo, hi, e.Point, e.Point)
	}
	return widest(lo, hi)
}

// widestNodeDim returns the dimension with the largest center spread,
// from one pass over the nodes.
func (s *loadScratch) widestNodeDim(nodes []*Node) int {
	lo, hi := s.runMin, s.runMax
	for j := range lo {
		lo[j] = nodes[0].rect.Min[j] + nodes[0].rect.Max[j]
		hi[j] = lo[j]
	}
	for _, n := range nodes[1:] {
		for j := range lo {
			v := n.rect.Min[j] + n.rect.Max[j]
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	return widest(lo, hi)
}

// widest returns the first dimension of largest extent hi - lo.
func widest(lo, hi vec.Point) int {
	best, bestSpread := 0, -1.0
	for dim := range lo {
		if s := hi[dim] - lo[dim]; s > bestSpread {
			best, bestSpread = dim, s
		}
	}
	return best
}

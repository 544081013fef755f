package knn

import (
	"fmt"

	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// Browser performs incremental nearest-neighbor ranking ("distance
// browsing", the second contribution of Hjaltason and Samet [HS 95]): it
// returns the neighbors of a query point one at a time in increasing
// distance order, without a k fixed in advance. Interactive similarity
// search uses this to fetch more results on demand at no extra cost.
//
// A Browser holds a single priority queue of nodes and data entries;
// Next pops entries in globally correct order because a data entry is
// only emitted once no remaining node could contain anything closer.
type Browser struct {
	query  vec.Point
	metric vec.Metric
	queue  pqueue[browseItem]
	acc    Accounting
	sc     scratch
}

// browseItem is either a tree node or a data entry, keyed by (squared)
// distance.
type browseItem struct {
	node   *xtree.Node // nil for data entries
	entry  xtree.Entry
	sqDist float64
}

// before orders the browse queue by increasing distance; at equal
// distance entries come before nodes, then lower IDs first, for a
// deterministic emission order.
func (a browseItem) before(b browseItem) bool {
	if a.sqDist != b.sqDist {
		return a.sqDist < b.sqDist
	}
	an, bn := a.node != nil, b.node != nil
	if an != bn {
		return !an
	}
	return a.entry.ID < b.entry.ID
}

// NewBrowser starts an incremental ranking of the tree's entries around
// q under the Euclidean metric.
func NewBrowser(t *xtree.Tree, q vec.Point) *Browser {
	return NewBrowserMetric(t, q, vec.L2)
}

// NewBrowserMetric is NewBrowser under an arbitrary Minkowski metric.
func NewBrowserMetric(t *xtree.Tree, q vec.Point, m vec.Metric) *Browser {
	if len(q) != t.Config().Dim {
		panic(fmt.Sprintf("knn: %d-dimensional query on %d-dimensional tree", len(q), t.Config().Dim))
	}
	b := &Browser{query: vec.Clone(q), metric: m}
	if root := t.Root(); root != nil {
		b.queue = pqueue[browseItem]{{node: root, sqDist: m.RankMinDist(root.Rect(), q)}}
	}
	return b
}

// Next returns the next-nearest entry and its distance, or false when the
// ranking is exhausted.
func (b *Browser) Next() (Result, bool) {
	for len(b.queue) > 0 {
		item := b.queue.pop()
		if item.node == nil {
			return Result{Entry: item.entry, Dist: b.metric.FromRank(item.sqDist)}, true
		}
		b.acc.visit(item.node)
		if item.node.IsLeaf() {
			entries := item.node.Entries()
			if s := item.node.PageSlab(); s != nil {
				// Packed leaf: batch all entry distances in one kernel
				// call; the values (and so the emission order) are
				// bitwise identical to the scalar path.
				out := b.sc.grow(s.Len())
				s.DistsToPage(b.query, b.metric, out)
				for i, e := range entries {
					b.queue.push(browseItem{entry: e, sqDist: out[i]})
				}
				continue
			}
			for _, e := range entries {
				b.queue.push(browseItem{entry: e, sqDist: b.metric.RankDist(b.query, e.Point)})
			}
			continue
		}
		children := item.node.Children()
		if rs := item.node.ChildRects(); rs != nil {
			out := b.sc.grow(rs.Len())
			rs.MinDistsToPage(b.query, b.metric, out)
			for i, c := range children {
				b.queue.push(browseItem{node: c, sqDist: out[i]})
			}
			continue
		}
		for _, c := range children {
			b.queue.push(browseItem{node: c, sqDist: b.metric.RankMinDist(c.Rect(), b.query)})
		}
	}
	return Result{}, false
}

// Accounting returns the page accesses performed so far.
func (b *Browser) Accounting() Accounting { return b.acc }

// MergedBrowser is the k-way merge of several Browsers — the per-disk
// rankings of one query — into a single ranking in Result.Compare order.
type MergedBrowser struct {
	browsers []*Browser
	heads    pqueue[mergeHead]
}

// mergeHead is the current head of one browser's ranking.
type mergeHead struct {
	src    int
	result Result
}

func (a mergeHead) before(b mergeHead) bool { return a.result.Compare(b.result) < 0 }

// MergeBrowsers starts the merged ranking of the given browsers, which
// it advances from then on.
func MergeBrowsers(browsers []*Browser) *MergedBrowser {
	m := &MergedBrowser{browsers: browsers}
	for src := range browsers {
		m.advance(src)
	}
	return m
}

// advance queues the next result of browser src, if it has one.
func (m *MergedBrowser) advance(src int) {
	if res, ok := m.browsers[src].Next(); ok {
		m.heads.push(mergeHead{src: src, result: res})
	}
}

// Next returns the next-nearest entry over all browsers, or false when
// every ranking is exhausted.
func (m *MergedBrowser) Next() (Result, bool) {
	if len(m.heads) == 0 {
		return Result{}, false
	}
	top := m.heads.pop()
	m.advance(top.src)
	return top.result, true
}

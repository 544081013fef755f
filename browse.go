package parsearch

import (
	"fmt"

	"parsearch/internal/knn"
)

// Browser returns the stored vectors in increasing distance from a query
// point, one at a time, without fixing k in advance — the "distance
// browsing" mode of Hjaltason and Samet [HS 95]. Interactive similarity
// search uses it to fetch further results on demand.
//
// A Browser pins the index structure (the cutover read lock) and holds
// every disk's read lock until Close is called: inserts, deletes, and
// rebuilds block meanwhile, and other queries keep running — though once
// a writer is waiting, new queries on the contested disk queue behind it
// (RWMutex writer fairness). Keep browsing sessions short under
// write-heavy load.
type Browser struct {
	ix     *Index
	st     *state
	merge  *knn.MergedBrowser
	closed bool
}

// Browse starts an incremental ranking of all stored vectors around q.
// Call Close when done.
func (ix *Index) Browse(q []float64) (*Browser, error) {
	ix.mu.RLock()
	if len(q) != ix.opts.Dim {
		ix.mu.RUnlock()
		return nil, fmt.Errorf("parsearch: query dimension %d, want %d", len(q), ix.opts.Dim)
	}
	st := ix.st
	// Hold every disk's read lock for the browser's lifetime: the
	// incremental ranking walks the trees lazily in Next, so the trees
	// must not mutate until Close.
	for _, sh := range st.shards {
		sh.mu.RLock()
	}
	m := ix.metric()
	browsers := make([]*knn.Browser, len(st.shards))
	for d, sh := range st.shards {
		browsers[d] = knn.NewBrowserMetric(sh.tree, q, m)
	}
	return &Browser{ix: ix, st: st, merge: knn.MergeBrowsers(browsers)}, nil
}

// Next returns the next-nearest vector, or ok = false when every stored
// vector has been returned (or the browser is closed).
func (b *Browser) Next() (Neighbor, bool) {
	if b.closed {
		return Neighbor{}, false
	}
	res, ok := b.merge.Next()
	if !ok {
		return Neighbor{}, false
	}
	return Neighbor{ID: res.Entry.ID, Point: res.Entry.Point, Dist: res.Dist}, true
}

// Close releases the disk read locks and the index's structure lock. The
// browser must not be used afterwards; Close is idempotent.
func (b *Browser) Close() {
	if b.closed {
		return
	}
	b.closed = true
	for _, sh := range b.st.shards {
		sh.mu.RUnlock()
	}
	b.ix.mu.RUnlock()
}

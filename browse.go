package parsearch

import (
	"errors"
	"slices"
)

// Browser returns the stored vectors in increasing distance from a query
// point, one at a time, without fixing k in advance — the "distance
// browsing" mode of Hjaltason and Samet [HS 95]. Interactive similarity
// search uses it to fetch further results on demand.
//
// A Browser is a cursor over ordinary exact k-NN pages: each refill runs
// one k-NN query for twice the previous page's k and keeps the results
// strictly after the last one returned in (distance, ID) order, so every
// page is routed, failure-planned, charged and traced like any k-NN. It
// holds no lock between calls and needs no Close; an abandoned Browser
// is garbage like any other value. Under concurrent writes each page is
// one consistent k-NN answer, and a point inserted behind the cursor is
// not returned.
type Browser struct {
	ix *Index
	q  []float64
	// k is the size of the next page; page holds the results of the
	// last one still to be returned.
	k    int
	page []Neighbor
	// last is the most recently returned result, the cursor; before
	// the first it sorts ahead of every result.
	last     Neighbor
	done     bool
	err      error
	degraded bool
}

// firstPage is the k of a browse's first page; every later page doubles
// it, so the total search work stays within about twice one k-NN at the
// final depth.
const firstPage = 16

// Browse starts an incremental ranking of all stored vectors around q.
// It checks q as a k-NN query point and searches nothing until the first
// Next.
func (ix *Index) Browse(q []float64) (*Browser, error) {
	qr := query{op: opKNN, point: q, k: firstPage}
	if err := qr.validate(ix.opts.Dim, ix.opts.Disks); err != nil {
		return nil, err
	}
	return &Browser{ix: ix, q: slices.Clone(q), k: firstPage, last: Neighbor{Dist: -1}}, nil
}

// Next returns the next-nearest vector, or ok = false once the ranking
// has ended: every stored vector was returned, or a page failed (see
// Err).
func (b *Browser) Next() (Neighbor, bool) {
	for len(b.page) == 0 && !b.done {
		b.refill()
	}
	if len(b.page) == 0 {
		return Neighbor{}, false
	}
	b.last = b.page[0]
	b.page = b.page[1:]
	return b.last, true
}

// refill runs the next page and keeps its results after the cursor. A
// page shorter than its k holds everything left, so it is the last.
func (b *Browser) refill() {
	res, stats, err := b.ix.KNNApprox(b.q, b.k, Approx{})
	b.degraded = b.degraded || stats.Degraded
	if err != nil {
		if !errors.Is(err, ErrEmpty) {
			b.err = err
		}
		b.done = true
		return
	}
	b.done = len(res) < b.k
	b.k *= 2
	i := 0
	for i < len(res) && !after(res[i], b.last) {
		i++
	}
	b.page = res[i:]
}

// after reports whether a comes strictly after b in (distance, ID) order.
func after(a, b Neighbor) bool {
	return a.Dist > b.Dist || (a.Dist == b.Dist && a.ID > b.ID)
}

// Err returns the error of the page that ended the ranking early, or nil
// if the ranking ran to its end (an empty index included).
func (b *Browser) Err() error { return b.err }

// Degraded reports whether any page so far was answered degraded (see
// QueryStats.Degraded): the ranking may then miss points whose every
// copy is on a failed disk.
func (b *Browser) Degraded() bool { return b.degraded }

package knn

import (
	"sync"

	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// Bound is an ignored stand-in for the shared bound HSShared once
// consulted: one Search queue over a query's trees stops every tree at
// the global k-th best, so no search shares a bound with another. It
// stays only because the benchmark's probes pass one; ROADMAP item 9
// retires it with HSShared.
type Bound struct{}

// NewBound returns a Bound, which HSShared ignores.
func NewBound() *Bound { return &Bound{} }

// HSShared is Search.Run over the one tree t: an exact k-NN search under
// m. b and onTighten are ignored. It stays only for the benchmark's
// probes, which time it as the product's one-tree search; ROADMAP item 9
// retires it with Bound.
func HSShared(t *xtree.Tree, q vec.Point, k int, m vec.Metric, b *Bound, onTighten func(sqBound float64)) ([]Result, Accounting, ApproxStats) {
	checkQuery(t, q, k)
	s := searchPool.Get().(*Search)
	defer s.release()
	s.Q, s.K, s.M, s.Shrink, s.Seed = q, k, m, 1, 0
	ts := &s.Slots(1)[0]
	ts.Tree = t
	res := s.Run()
	return res, ts.Acc, ts.Stats
}

// searchPool holds the Searches of HSShared, so that a search allocates
// only what it hands to its caller: the result slice and its points.
var searchPool = sync.Pool{New: func() any { return new(Search) }}

func (s *Search) release() {
	s.Reset()
	searchPool.Put(s)
}

package parsearch

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"parsearch/internal/xtree"
)

// raceEnabled is set by race_test.go: under the race detector sync.Pool
// drops pooled objects at random, so allocation counts mean nothing.
var raceEnabled bool

// TestQueryAllocations pins what a query allocates, so the count cannot
// drift back unnoticed. The ceilings sit one or two above the level
// measured on a 16-disk index (KNN 50, a batch of one 63, RangeQuery
// 95). Sixteen per-disk searches and their merge took KNN to 98 and a
// batch of one to 81; the accounting once descended every routed tree
// again and grew its page list read by read, at 106, 89, 105 and 187.
func TestQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const dim = 10
	q := uniformPoints(1, dim, 92)[0]
	lo, hi := make([]float64, dim), make([]float64, dim)
	for i := range lo {
		lo[i], hi[i] = 0.3, 0.7
	}
	ix, err := Open(Options{Dim: dim, Disks: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(rawPoints(20000, dim, 91)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		run     func() error
	}{
		{"KNN", 51, func() error { _, _, err := ix.KNN(q, 10); return err }},
		{"BatchKNN item", 64, func() error { _, _, err := ix.BatchKNNContext(context.Background(), [][]float64{q}, 10); return err }},
		{"RangeQuery", 97, func() error { _, _, err := ix.RangeQueryContext(context.Background(), lo, hi); return err }},
	} {
		if err := c.run(); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(50, func() { _ = c.run() }); got > c.ceiling {
			t.Errorf("%s: %v allocations, ceiling %v", c.name, got, c.ceiling)
		}
	}
}

// TestPooledSearchKeepsNoTree: once Build replaces the trees that
// queries searched, every leaf of the old trees is collected while the
// pooled search scratch is still alive: the pool keeps nothing of the
// old trees reachable.
func TestPooledSearchKeepsNoTree(t *testing.T) {
	const dim = 6
	ix, err := Open(Options{Dim: dim, Disks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(rawPoints(3000, dim, 93)); err != nil {
		t.Fatal(err)
	}
	queries := rawPoints(8, dim, 94)
	for _, q := range queries {
		if _, _, err := ix.KNN(q, 50); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := ix.BatchKNNContext(context.Background(), queries, 50); err != nil {
		t.Fatal(err)
	}
	var watched, freed atomic.Int32
	watch := func(obj any) {
		watched.Add(1)
		runtime.SetFinalizer(obj, func(any) { freed.Add(1) })
	}
	// Only leaves are watched: an object with a finalizer keeps what it
	// references alive for one more collection.
	var walk func(n *xtree.Node)
	walk = func(n *xtree.Node) {
		if n.IsLeaf() {
			watch(n)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	for _, tree := range ix.pub.Load().shards {
		walk(tree.Root())
	}
	if err := ix.Build(rawPoints(3000, dim, 95)); err != nil {
		t.Fatal(err)
	}
	// One collection, which leaves the pools' contents in their victim
	// caches, must find every old tree and node unreachable.
	runtime.GC()
	for i := 0; i < 100 && freed.Load() < watched.Load(); i++ {
		time.Sleep(time.Millisecond)
	}
	if freed.Load() != watched.Load() {
		t.Errorf("%d of %d old leaves collected", freed.Load(), watched.Load())
	}
}

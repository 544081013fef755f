package parsearch

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"parsearch/internal/data"
	"parsearch/internal/vec"
)

// drainBrowser returns every result b yields, in order.
func drainBrowser(b *Browser) []Neighbor {
	var out []Neighbor
	for nb, ok := b.Next(); ok; nb, ok = b.Next() {
		out = append(out, nb)
	}
	return out
}

func TestBrowseFullRanking(t *testing.T) {
	const d, n = 4, 1000
	pts := data.Uniform(n, d, 61)
	raw := make([][]float64, n)
	for i, p := range pts {
		raw[i] = p
	}
	ix, err := Open(Options{Dim: d, Disks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}
	q := data.Uniform(1, d, 62)[0]

	want := make([]float64, n)
	for i, p := range pts {
		want[i] = vec.Dist(q, rounded(p))
	}
	sort.Float64s(want)

	b, err := ix.Browse(q)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		nb, ok := b.Next()
		if !ok {
			t.Fatalf("ranking ended after %d of %d", i, n)
		}
		if math.Abs(nb.Dist-want[i]) > 1e-9 {
			t.Fatalf("rank %d: dist %v, want %v", i, nb.Dist, want[i])
		}
		if seen[nb.ID] {
			t.Fatalf("id %d returned twice", nb.ID)
		}
		seen[nb.ID] = true
	}
	if _, ok := b.Next(); ok {
		t.Fatal("ranking longer than the data set")
	}
	if b.Err() != nil || b.Degraded() {
		t.Fatalf("healthy drain: Err %v, Degraded %v", b.Err(), b.Degraded())
	}
}

func TestBrowseMatchesKNNPrefix(t *testing.T) {
	const d, n, k = 6, 2000, 15
	ix := buildTestIndex(t, Options{Dim: d, Disks: 8}, n)
	q := data.Uniform(1, d, 63)[0]
	knnRes, _, err := ix.KNN(q, k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ix.Browse(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		nb, ok := b.Next()
		if !ok {
			t.Fatal("browser exhausted early")
		}
		if nb.ID != knnRes[i].ID || math.Abs(nb.Dist-knnRes[i].Dist) > 1e-12 {
			t.Fatalf("rank %d: browser %+v vs KNN %+v", i, nb, knnRes[i])
		}
	}
}

func TestBrowseValidation(t *testing.T) {
	ix := buildTestIndex(t, Options{Dim: 3, Disks: 2}, 10)
	if _, err := ix.Browse([]float64{0.5}); err == nil {
		t.Error("expected dimension error")
	}
}

func TestBrowseEmptyIndex(t *testing.T) {
	ix, _ := Open(Options{Dim: 2, Disks: 2})
	b, err := ix.Browse([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Next(); ok {
		t.Error("empty index produced a ranking entry")
	}
	if b.Err() != nil {
		t.Errorf("an empty index is plain exhaustion, got Err %v", b.Err())
	}
}

// TestBrowseMatchesLinearScan: a full drain is the linear scan's
// (distance, ID) ranking under every metric, under an approximate index
// default, through the ties of duplicated points: around raw[0] its 21
// copies tie across the first page boundary. A subtest's packed= says
// whether the points are float32 values already; else the index rounds
// them at ingest.
func TestBrowseMatchesLinearScan(t *testing.T) {
	const d, n, dups = 5, 3000, 20
	raw := make([][]float64, 0, n+dups)
	for _, p := range data.Uniform(n, d, 64) {
		raw = append(raw, p)
	}
	for range dups {
		raw = append(raw, raw[0])
	}
	points := builtPoints(raw)
	queries := [][]float64{data.Uniform(1, d, 65)[0], raw[0]}
	type config struct {
		opts    Options
		rounded bool
	}
	var configs []config
	for _, metric := range []Metric{Euclidean, Manhattan, Maximum} {
		for _, rounded := range []bool{false, true} {
			configs = append(configs, config{Options{Dim: d, Disks: 8, Metric: metric}, rounded})
		}
	}
	// The index's default ε does not make the ranking approximate.
	configs = append(configs, config{Options{Dim: d, Disks: 8, Metric: Euclidean, Epsilon: 1}, false})
	for _, c := range configs {
		opts := c.opts
		t.Run(fmt.Sprintf("%s/packed=%v/eps=%v", opts.Metric, c.rounded, opts.Epsilon), func(t *testing.T) {
			ix, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			pts := raw
			if c.rounded {
				pts = roundF32(raw)
			}
			if err := ix.Build(pts); err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				b, err := ix.Browse(q)
				if err != nil {
					t.Fatal(err)
				}
				requireScan(t, "drain", drainBrowser(b), scanKNN(points, q, len(points), ix.metric()))
				if b.Err() != nil || b.Degraded() {
					t.Fatalf("Err %v, Degraded %v", b.Err(), b.Degraded())
				}
			}
		})
	}
}

// TestBrowseFailedDisk: with a replica the ranking survives a failed
// disk whole and undegraded; without one it is the reachable points'
// ranking, flagged Degraded.
func TestBrowseFailedDisk(t *testing.T) {
	const dim, disks, n, dead = 5, 6, 2000, 2
	q := data.Uniform(1, dim, 66)[0]
	m, err := Euclidean.vecMetric()
	if err != nil {
		t.Fatal(err)
	}

	ix, expected := buildFaultIndex(t, Options{Dim: dim, Disks: disks, Replication: 1}, n)
	if err := ix.FailDisk(dead); err != nil {
		t.Fatal(err)
	}
	b, _ := ix.Browse(q)
	requireScan(t, "replicated drain", drainBrowser(b), scanKNN(expected, q, n, m))
	if b.Err() != nil || b.Degraded() {
		t.Fatalf("replicated: Err %v, Degraded %v", b.Err(), b.Degraded())
	}

	ix, _ = buildFaultIndex(t, Options{Dim: dim, Disks: disks}, n)
	if err := ix.FailDisk(dead); err != nil {
		t.Fatal(err)
	}
	live := liveIDs(t, ix, dim)
	if len(live) == n {
		t.Fatal("the failed disk held no data — test is vacuous")
	}
	b, _ = ix.Browse(q)
	requireScan(t, "unreplicated drain", drainBrowser(b), scanKNN(live, q, n, m))
	if b.Err() != nil || !b.Degraded() {
		t.Fatalf("unreplicated: Err %v, Degraded %v", b.Err(), b.Degraded())
	}
}

// TestBrowseUnderConcurrentWrites drains a cursor while one writer
// inserts and another deletes a fixed set of the built points: no ID
// comes back twice, the order is strictly increasing in (distance, ID),
// and every point live for the whole drain is returned.
func TestBrowseUnderConcurrentWrites(t *testing.T) {
	const d, n = 4, 2000
	ix := buildTestIndex(t, Options{Dim: d, Disks: 4}, n)
	doomed := map[int]bool{}
	for id := 0; id < n; id += 7 {
		doomed[id] = true
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(67))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ix.Insert(randPoint(rng, d)); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for id := range doomed {
			if err := ix.Delete(id); err != nil {
				t.Errorf("Delete(%d): %v", id, err)
				return
			}
		}
	}()

	b, err := ix.Browse(make([]float64, d))
	if err != nil {
		t.Fatal(err)
	}
	got := drainBrowser(b)
	close(stop)
	wg.Wait()
	if b.Err() != nil {
		t.Fatalf("Err %v", b.Err())
	}
	seen := make(map[int]bool, len(got))
	for i, nb := range got {
		if seen[nb.ID] {
			t.Fatalf("id %d returned twice", nb.ID)
		}
		seen[nb.ID] = true
		if i > 0 && !after(nb, got[i-1]) {
			t.Fatalf("rank %d: (%v, %d) after (%v, %d)", i, nb.Dist, nb.ID, got[i-1].Dist, got[i-1].ID)
		}
	}
	for id := range n {
		if !doomed[id] && !seen[id] {
			t.Fatalf("point %d, live for the whole drain, was not returned", id)
		}
	}
}

// TestOpenBrowserStallsNoQuery: a cursor holds no lock between calls, so
// a writer and an unrelated k-NN both finish while it is open — a lock
// held from Browse to Close once queued every new reader behind the
// waiting writer. The cursor then still drains in order.
func TestOpenBrowserStallsNoQuery(t *testing.T) {
	const d = 4
	ix := buildTestIndex(t, Options{Dim: d, Disks: 4}, 1000)
	b, err := ix.Browse(make([]float64, d))
	if err != nil {
		t.Fatal(err)
	}
	prev, ok := b.Next()
	if !ok {
		t.Fatal("no first result")
	}

	done := make(chan error, 2)
	go func() {
		_, err := ix.Insert([]float64{0.3, 0.3, 0.3, 0.3})
		done <- err
	}()
	go func() {
		_, _, err := ix.KNN([]float64{0.9, 0.9, 0.9, 0.9}, 5)
		done <- err
	}()
	deadline := time.After(2 * time.Second)
	for range 2 {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("an open cursor stalled a writer or a query")
		}
	}

	for nb, ok := b.Next(); ok; nb, ok = b.Next() {
		if !after(nb, prev) {
			t.Fatalf("(%v, %d) after (%v, %d)", nb.Dist, nb.ID, prev.Dist, prev.ID)
		}
		prev = nb
	}
	if b.Err() != nil {
		t.Fatal(b.Err())
	}
}

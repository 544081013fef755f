package parsearch_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"parsearch"
	"parsearch/coord"
	"parsearch/server"
)

// Tests of the bounded k-NN semantics behind the cooperative bound (see
// DESIGN.md "Cooperative pruning"): a search under a bound answers with
// the k nearest points inside it, ties on the k-th distance survive the
// per-disk pruning and the metric↔rank round trip of a shipped bound,
// and the coordinator's merge over short and empty shard answers is the
// single index's answer. Every comparison is against a linear scan,
// bit for bit. They live in the external test package because the
// cluster half needs coord, which imports parsearch.

// scanKNN is the oracle (parsearch.ScanKNN): the k nearest of the
// points keep admits, at distance <= bound, ordered by (dist, id).
func scanKNN(pts [][]float64, q []float64, k int, m parsearch.Metric, bound float64, keep func(id int) bool) []parsearch.Neighbor {
	live := make(map[int][]float64, len(pts))
	for id, p := range pts {
		if keep == nil || keep(id) {
			live[id] = p
		}
	}
	hits := parsearch.ScanKNN(live, q, k, m)
	for i, h := range hits {
		if h.Dist > bound {
			return hits[:i]
		}
	}
	return hits
}

func sortNeighbors(ns []parsearch.Neighbor) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].Dist != ns[j].Dist {
			return ns[i].Dist < ns[j].Dist
		}
		return ns[i].ID < ns[j].ID
	})
}

func buildIndex(t *testing.T, opts parsearch.Options, pts [][]float64) *parsearch.Index {
	t.Helper()
	ix, err := parsearch.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(pts); err != nil {
		t.Fatal(err)
	}
	return ix
}

// newCoordinator serves shards identically built indexes — full replicas,
// as the catch-up bootstrap leaves them — behind a coordinator.
func newCoordinator(t *testing.T, opts parsearch.Options, pts [][]float64, shards int) *coord.Coordinator {
	t.Helper()
	urls := make([]string, shards)
	for i := range urls {
		srv, err := server.New(buildIndex(t, opts, pts), server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	co, err := coord.New(coord.Config{Shards: urls, Dim: opts.Dim, Disks: opts.Disks})
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// Offsets of the tie ring: q ± (ringA, ringB, 0) in any arrangement lies
// at one distance from q under L2, L1 and L∞ alike, and every
// coordinate is a dyadic rational, so the distances are equal to the
// bit and survive the float32 rounding at ingest. Under L2 the
// squared distance ringA² + ringB² is one that the square of its own
// square root rounds below — the case a shipped bound must survive.
const ringA, ringB = 1.0 / 64, 1.0 / 8

// tieWorkload returns the query point and a shuffled point set: three
// points inside the ring, one ring point on every disk the ring reaches,
// and filler that is farther than the ring from q in every single
// dimension. One ring point a disk, because a disk's own k-best keeps
// the first of two equal candidates it meets, not the lower ID — the
// tie-break under test is the one across disks. With rounded, the filler
// is float32 already; else the index rounds it at ingest.
func tieWorkload(t *testing.T, opts parsearch.Options, rounded bool) (q []float64, pts [][]float64) {
	t.Helper()
	router, err := parsearch.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	q = []float64{0.5, 0.5, 0.5}
	at := func(dx, dy, dz float64) []float64 { return []float64{q[0] + dx, q[1] + dy, q[2] + dz} }
	pts = append(pts, at(1.0/32, 0, 0), at(0, -1.0/16, 0), at(0, 0, 3.0/32))
	taken := map[int]bool{}
	for _, sa := range []float64{ringA, -ringA} {
		for _, sb := range []float64{ringB, -ringB} {
			for _, p := range [][]float64{at(sa, sb, 0), at(sb, sa, 0), at(sa, 0, sb), at(sb, 0, sa), at(0, sa, sb), at(0, sb, sa)} {
				d, err := router.HomeDisk(p)
				if err != nil {
					t.Fatal(err)
				}
				if !taken[d] {
					taken[d] = true
					pts = append(pts, p)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for len(pts) < 700 {
		p := make([]float64, 3)
		for j := range p {
			// |p[j] - 0.5| in [0.2, 0.5).
			off := 0.2 + 0.3*rng.Float64()
			if rng.Intn(2) == 0 {
				off = -off
			}
			p[j] = 0.5 + off
			if rounded {
				p[j] = float64(float32(p[j]))
			}
		}
		pts = append(pts, p)
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return q, pts
}

func TestKNNTiesOnKthDistance(t *testing.T) {
	const disks, groups = 6, 3
	if r := ringA*ringA + ringB*ringB; math.Sqrt(r)*math.Sqrt(r) >= r {
		t.Fatal("the ring's squared distance survives the round trip through its square root: pick other offsets")
	}
	ctx := context.Background()
	// The storage names say whether the filler is float32 already.
	storage := []struct {
		name    string
		rounded bool
	}{{"float64", false}, {"packed", true}}
	for _, m := range []parsearch.Metric{parsearch.Euclidean, parsearch.Manhattan, parsearch.Maximum} {
		for _, st := range storage {
			t.Run(fmt.Sprintf("%s/%s", m, st.name), func(t *testing.T) {
				opts := parsearch.Options{Dim: 3, Disks: disks, Metric: m}
				q, pts := tieWorkload(t, opts, st.rounded)
				ix := buildIndex(t, opts, pts)
				co := newCoordinator(t, opts, pts, groups)

				// The ring must really straddle disks and shard groups,
				// one point a disk.
				all := scanKNN(pts, q, len(pts), m, math.Inf(1), nil)
				var ring []parsearch.Neighbor
				onDisks, inGroups := map[int]bool{}, map[int]bool{}
				for _, n := range all[3:] {
					if n.Dist != all[3].Dist {
						break
					}
					ring = append(ring, n)
					d, err := ix.HomeDisk(n.Point)
					if err != nil {
						t.Fatal(err)
					}
					onDisks[d], inGroups[d%groups] = true, true
				}
				if len(ring) < 4 || len(onDisks) != len(ring) || len(inGroups) < groups {
					t.Fatalf("ring of %d points on disks %v, groups %v", len(ring), onDisks, inGroups)
				}

				// k cuts the ring after one, two and all of its points.
				for _, k := range []int{4, 5, 3 + len(ring)} {
					want := scanKNN(pts, q, k, m, math.Inf(1), nil)
					check := func(path string, got []parsearch.Neighbor, err error) {
						t.Helper()
						if err != nil {
							t.Fatalf("k=%d %s: %v", k, path, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("k=%d %s differs from the linear scan:\n got  %v\n want %v", k, path, got, want)
						}
					}
					got, _, err := ix.KNN(q, k)
					check("KNN", got, err)
					batch, _, err := ix.BatchKNN([][]float64{pts[0], q}, k)
					if err == nil {
						got = batch[1]
					}
					check("BatchKNN", got, err)
					got, _, err = co.KNN(ctx, q, k)
					check("Coordinator.KNN", got, err)

					// The coordinator's phase 2 by hand: every shard group
					// searched under the k-th distance itself, the bound
					// sitting exactly on the tie.
					var merged []parsearch.Neighbor
					for g := 0; g < groups; g++ {
						part, _, err := ix.KNNShardContext(ctx, q, k, parsearch.Approx{Bound: want[k-1].Dist},
							parsearch.ShardSpec{Of: groups, Groups: []int{g}})
						if err != nil {
							t.Fatalf("k=%d group %d: %v", k, g, err)
						}
						merged = append(merged, part...)
					}
					sortNeighbors(merged)
					if len(merged) > k {
						merged = merged[:k]
					}
					check("merged KNNShardContext under the k-th distance", merged, nil)
				}
			})
		}
	}
}

// TestBoundedKNNSemantics: KNNShardContext and BatchKNNShardContext under
// an arbitrary finite Approx.Bound return the top k of (linear scan ∩
// ball), short or empty without error, over the whole index and over
// every shard group; Degraded is set exactly when unreachable pages reach
// into the ball.
func TestBoundedKNNSemantics(t *testing.T) {
	const dim, disks, groups, n, k = 4, 6, 3, 900, 7
	rng := rand.New(rand.NewSource(11))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			pts[i][j] = rng.Float64()
		}
	}
	queries := make([][]float64, 6)
	for i := range queries {
		queries[i] = make([]float64, dim)
		for j := range queries[i] {
			queries[i][j] = rng.Float64()
		}
	}
	ctx := context.Background()
	const m = parsearch.Euclidean

	scenarios := []struct {
		name string
		repl int
		fail int // disk to fail, -1 for none
	}{
		{"healthy", 0, -1},
		{"replicated-failed-disk", 1, 2},
		{"unreplicated-failed-disk", 0, 2},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			ix := buildIndex(t, parsearch.Options{Dim: dim, Disks: disks, Replication: sc.repl}, pts)
			diskOf := make([]int, n)
			for id, p := range pts {
				var err error
				if diskOf[id], err = ix.HomeDisk(p); err != nil {
					t.Fatal(err)
				}
			}
			if sc.fail >= 0 {
				if err := ix.FailDisk(sc.fail); err != nil {
					t.Fatal(err)
				}
			}
			lost := sc.fail >= 0 && sc.repl == 0 // the failed disk's points are gone
			specs := []parsearch.ShardSpec{{}}
			for g := 0; g < groups; g++ {
				specs = append(specs, parsearch.ShardSpec{Of: groups, Groups: []int{g}})
			}
			shortClean, degraded := 0, 0
			for _, spec := range specs {
				selected := func(id int) bool { return !spec.Enabled() || diskOf[id]%groups == spec.Groups[0] }
				reachable := func(id int) bool { return selected(id) && !(lost && diskOf[id] == sc.fail) }
				// Bounds relative to each query's true k-th distance over
				// the selected disks: far below (an empty ball), below
				// (short), exactly on it, and above.
				for _, f := range []float64{0.01, 0.6, 1, 1.7} {
					bounds := make([]float64, len(queries))
					for qi, q := range queries {
						bounds[qi] = f * scanKNN(pts, q, k, m, math.Inf(1), selected)[k-1].Dist
					}
					// One bound serves a whole batch, so the batch runs
					// under the first query's.
					batch, bs, err := ix.BatchKNNShardContext(ctx, queries, k, parsearch.Approx{Bound: bounds[0]}, spec)
					if err != nil {
						t.Fatalf("%+v f=%v: batch: %v", spec, f, err)
					}
					for qi, q := range queries {
						label := fmt.Sprintf("%+v f=%v q%d", spec, f, qi)
						got, st, err := ix.KNNShardContext(ctx, q, k, parsearch.Approx{Bound: bounds[qi]}, spec)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						want := scanKNN(pts, q, k, m, bounds[qi], reachable)
						if !sameAnswer(got, want) {
							t.Fatalf("%s:\n got  %v\n want %v", label, got, want)
						}
						if wantB := scanKNN(pts, q, k, m, bounds[0], reachable); !sameAnswer(batch[qi], wantB) {
							t.Fatalf("%s: batch item:\n got  %v\n want %v", label, batch[qi], wantB)
						}
						if f < 1 && len(got) >= k {
							t.Fatalf("%s: a bound below the k-th distance returned a full answer", label)
						}
						// Never silently narrow: a lost point inside the
						// sphere the answer depends on — the k-th distance
						// of a full answer, the bound of a short one — must
						// flag it.
						radius := bounds[qi]
						if len(got) == k {
							radius = got[k-1].Dist
						}
						lostInBall := len(scanKNN(pts, q, 1, m, radius, func(id int) bool {
							return selected(id) && !reachable(id)
						})) > 0
						if lostInBall && !st.Degraded {
							t.Fatalf("%s: a lost point lies inside the answer's sphere, answer not flagged degraded", label)
						}
						if st.Degraded != (st.Unreachable > 0) {
							t.Fatalf("%s: degraded %v with %d unreachable pages in the ball", label, st.Degraded, st.Unreachable)
						}
						if st.Degraded {
							degraded++
						} else if lost && len(got) < k {
							shortClean++
						}
					}
					if bs.Degraded && !lost {
						t.Fatalf("%+v f=%v: batch flagged degraded with every point reachable", spec, f)
					}
				}
			}
			if lost && (shortClean == 0 || degraded == 0) {
				t.Errorf("with a lost disk, %d short answers stayed clean and %d were flagged: want both kinds", shortClean, degraded)
			}
			if !lost && degraded != 0 {
				t.Errorf("%d answers flagged degraded with every point reachable", degraded)
			}
		})
	}
}

// sameAnswer compares two answers bit for bit; an empty answer is nil on
// one side and empty on the other.
func sameAnswer(got, want []parsearch.Neighbor) bool {
	return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
}

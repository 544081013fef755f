package parsearch

// Metamorphic tests for the k-NN engine: transformations of the input
// vector set with a known, provable effect on query answers. Each
// relation runs with and without replication, since the replicated
// read path routes through different shards.
//
//   - Permuting the input order changes IDs but not the answer set.
//   - Duplicating every point doubles each neighbor distance's
//     multiplicity in a 2k query.
//   - The disk count is a pure layout choice: answers are identical
//     (IDs included) for any number of disks.
//   - For k ∈ {1, 5, n} the engine equals the brute-force linear scan.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"parsearch/internal/data"
)

// buildFrom builds an index over the given points (IDs = positions).
func buildFrom(t *testing.T, opts Options, pts [][]float64) *Index {
	t.Helper()
	ix, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(pts); err != nil {
		t.Fatal(err)
	}
	return ix
}

// uniformPoints converts data.Uniform output to the Build input type.
func uniformPoints(n, dim int, seed int64) [][]float64 {
	pts := data.Uniform(n, dim, seed)
	raw := make([][]float64, n)
	for i := range pts {
		raw[i] = pts[i]
	}
	return raw
}

// replicationVariants names the two read paths every relation must
// hold on.
var replicationVariants = []struct {
	name  string
	value int
}{
	{"replication=0", 0},
	{"replication=1", 1},
}

func TestMetamorphicPermutationInvariance(t *testing.T) {
	const dim, disks, n, k = 5, 4, 900, 8
	for _, rv := range replicationVariants {
		t.Run(rv.name, func(t *testing.T) {
			pts := uniformPoints(n, dim, 61)
			perm := make([][]float64, n)
			order := rand.New(rand.NewSource(7)).Perm(n)
			for i, j := range order {
				perm[j] = pts[i]
			}
			opts := Options{Dim: dim, Disks: disks, Replication: rv.value}
			orig := buildFrom(t, opts, pts)
			shuf := buildFrom(t, opts, perm)

			for qi, q := range data.Uniform(6, dim, 62) {
				a, _, err := orig.KNN(q, k)
				if err != nil {
					t.Fatal(err)
				}
				b, _, err := shuf.KNN(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(a) != k || len(b) != k {
					t.Fatalf("query %d: %d/%d neighbors, want %d", qi, len(a), len(b), k)
				}
				// IDs are positions, so they differ; the (distance,
				// point) sequence must not. Uniform random coordinates
				// make exact distance ties impossible outside
				// duplicates, so the sorted orders align one-to-one.
				for j := range a {
					if a[j].Dist != b[j].Dist {
						t.Fatalf("query %d neighbor %d: dist %v vs %v after permutation",
							qi, j, a[j].Dist, b[j].Dist)
					}
					for c := range a[j].Point {
						if a[j].Point[c] != b[j].Point[c] {
							t.Fatalf("query %d neighbor %d: points differ after permutation", qi, j)
						}
					}
				}
			}
		})
	}
}

func TestMetamorphicDuplicateInsertion(t *testing.T) {
	const dim, disks, n, k = 4, 3, 500, 6
	for _, rv := range replicationVariants {
		t.Run(rv.name, func(t *testing.T) {
			pts := uniformPoints(n, dim, 63)
			doubled := append(append([][]float64{}, pts...), pts...)
			opts := Options{Dim: dim, Disks: disks, Replication: rv.value}
			single := buildFrom(t, opts, pts)
			dup := buildFrom(t, opts, doubled)

			for qi, q := range data.Uniform(5, dim, 64) {
				a, _, err := single.KNN(q, k)
				if err != nil {
					t.Fatal(err)
				}
				b, _, err := dup.KNN(q, 2*k)
				if err != nil {
					t.Fatal(err)
				}
				if len(b) != 2*k {
					t.Fatalf("query %d: %d neighbors from doubled index, want %d", qi, len(b), 2*k)
				}
				// Every distance of the k nearest appears exactly twice
				// in the 2k nearest of the doubled set.
				for j := 0; j < k; j++ {
					if b[2*j].Dist != a[j].Dist || b[2*j+1].Dist != a[j].Dist {
						t.Fatalf("query %d: dists %v/%v at doubled rank %d, want %v twice",
							qi, b[2*j].Dist, b[2*j+1].Dist, j, a[j].Dist)
					}
				}
			}
		})
	}
}

func TestMetamorphicDiskCountInvariance(t *testing.T) {
	const dim, n, k = 5, 700, 7
	for _, rv := range replicationVariants {
		t.Run(rv.name, func(t *testing.T) {
			pts := uniformPoints(n, dim, 65)
			diskCounts := []int{2, 3, 5, 8, 16}
			queries := data.Uniform(5, dim, 66)

			type answer struct {
				id   int
				dist float64
			}
			var want [][]answer
			for ci, disks := range diskCounts {
				ix := buildFrom(t, Options{Dim: dim, Disks: disks, Replication: rv.value}, pts)
				for qi, q := range queries {
					res, _, err := ix.KNN(q, k)
					if err != nil {
						t.Fatal(err)
					}
					got := make([]answer, len(res))
					for j, nb := range res {
						got[j] = answer{nb.ID, nb.Dist}
					}
					if ci == 0 {
						want = append(want, got)
						continue
					}
					// IDs are input positions, independent of the
					// layout — ties break by ID, so equality is exact.
					for j := range got {
						if got[j] != want[qi][j] {
							t.Fatalf("disks=%d query %d neighbor %d: %+v, want %+v (from disks=%d)",
								disks, qi, j, got[j], want[qi][j], diskCounts[0])
						}
					}
				}
			}
		})
	}
}

// TestMetamorphicIncrementalEqualsRebuild is the live-mutation
// relation: Build(A) + InsertBatch(B) + incremental Reorganize must be
// indistinguishable from Build(A ∪ B) — same IDs, same answers (byte
// for byte), clean integrity, and disk loads within the incremental
// balance threshold of the from-scratch build. It runs across
// declustering strategies (including round-robin, whose arrival-order
// layout a reorganize leaves as it is), replication variants, quantile
// splits, and points that are float32 already ("packed"), where the
// others are rounded at ingest.
func TestMetamorphicIncrementalEqualsRebuild(t *testing.T) {
	const dim, disks = 4, 6
	nA, nB := 500, 400
	if testing.Short() {
		nA, nB = 250, 200
	}
	variants := []struct {
		name    string
		mod     func(*Options)
		rounded bool
	}{
		{"base", func(o *Options) {}, false},
		{"quantile", func(o *Options) { o.QuantileSplits = true }, false},
		{"packed", func(o *Options) {}, true},
	}
	for _, kind := range []Kind{NearOptimal, Hilbert, RoundRobin} {
		for _, rv := range replicationVariants {
			for _, v := range variants {
				t.Run(fmt.Sprintf("%s/%s/%s", kind, rv.name, v.name), func(t *testing.T) {
					// Small pages so the overload check (slack: one
					// leaf's capacity) bites at this workload size.
					opts := Options{Dim: dim, Disks: disks, Kind: kind,
						Replication: rv.value, PageSize: 256}
					v.mod(&opts)

					a := uniformPoints(nA, dim, 71)
					b := uniformPoints(nB, dim, 72)
					for _, p := range b {
						for j := range p {
							p[j] *= 0.2 // clustered: forces real splits
						}
					}
					if v.rounded {
						a, b = roundF32(a), roundF32(b)
					}

					incr := buildFrom(t, opts, a)
					ids, err := incr.InsertBatch(b)
					if err != nil {
						t.Fatal(err)
					}
					for i, id := range ids {
						if id != nA+i {
							t.Fatalf("batch id %d is %d, want %d", i, id, nA+i)
						}
					}
					stats, err := incr.ReorganizeStats()
					if err != nil {
						t.Fatal(err)
					}
					if kind == RoundRobin && stats.Steps != 0 {
						t.Fatalf("round-robin reorganize has nothing to split, got %+v", stats)
					}

					ref := buildFrom(t, opts, append(append([][]float64{}, a...), b...))

					for _, ix := range []*Index{incr, ref} {
						if err := ix.CheckIntegrity(); err != nil {
							t.Fatal(err)
						}
					}
					rng := rand.New(rand.NewSource(73))
					for qi := 0; qi < 8; qi++ {
						q := make([]float64, dim)
						for j := range q {
							q[j] = rng.Float64()
						}
						k := 1 + rng.Intn(9)
						got, _, err := incr.KNN(q, k)
						if err != nil {
							t.Fatal(err)
						}
						want, _, err := ref.KNN(q, k)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("query %d: %d neighbors vs %d from rebuild", qi, len(got), len(want))
						}
						for j := range got {
							if got[j].ID != want[j].ID || got[j].Dist != want[j].Dist {
								t.Fatalf("query %d neighbor %d: (id %d, %v) vs rebuild (id %d, %v)",
									qi, j, got[j].ID, got[j].Dist, want[j].ID, want[j].Dist)
							}
						}
					}

					// Balance: the incremental result must be within the
					// reorganizer's own stop threshold, or no worse than
					// what a from-scratch build produces on this data.
					maxIncr := maxOf(incr.DiskLoads())
					maxRef := maxOf(ref.DiskLoads())
					ideal := float64(nA+nB) / float64(disks)
					slack := float64(incr.treeConfig().LeafCapacity)
					if float64(maxIncr) > 2*ideal+slack && maxIncr > maxRef {
						t.Fatalf("incremental max load %d exceeds threshold %v and rebuild's %d",
							maxIncr, 2*ideal+slack, maxRef)
					}
				})
			}
		}
	}
}

// TestMetamorphicApproxZeroIsExact is the approximate tier's
// metamorphic anchor: ε=0 is byte-identical to plain KNN — which the
// relations above pin to the linear scan — for any disk count,
// replication setting, and the batch path. Composed with TestMetamorphicDiskCountInvariance this
// makes the zero-knob approximate path layout-invariant too.
func TestMetamorphicApproxZeroIsExact(t *testing.T) {
	const dim, n, k = 5, 700, 7
	zero := Approx{Epsilon: 0}
	for _, rv := range replicationVariants {
		t.Run(rv.name, func(t *testing.T) {
			pts := uniformPoints(n, dim, 81)
			queries := data.Uniform(5, dim, 82)
			for _, disks := range []int{2, 5, 16} {
				ix := buildFrom(t, Options{Dim: dim, Disks: disks,
					Replication: rv.value}, pts)
				for qi, q := range queries {
					want, _, err := ix.KNN(q, k)
					if err != nil {
						t.Fatal(err)
					}
					got, stats, err := ix.KNNApprox(q, k, zero)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("disks=%d query %d: zero-knob approx differs from exact", disks, qi)
					}
					if stats.PagesSkippedApprox != 0 || stats.EffectiveEpsilon != 0 {
						t.Fatalf("disks=%d query %d: zero-knob approx reported activity: %+v",
							disks, qi, stats)
					}
				}
				wantB, _, err := ix.BatchKNN(queries, k)
				if err != nil {
					t.Fatal(err)
				}
				gotB, bs, err := ix.BatchKNNApprox(queries, k, zero)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotB, wantB) {
					t.Fatalf("disks=%d: zero-knob batch differs from exact batch", disks)
				}
				if bs.PagesSkippedApprox != 0 {
					t.Fatalf("disks=%d: zero-knob batch reported approx activity: %+v", disks, bs)
				}
			}
		})
	}
}

func TestMetamorphicBruteForceEquality(t *testing.T) {
	const dim, disks, n = 6, 4, 400
	m, err := Euclidean.vecMetric()
	if err != nil {
		t.Fatal(err)
	}
	for _, rv := range replicationVariants {
		for _, k := range []int{1, 5, n} {
			t.Run(fmt.Sprintf("%s/k=%d", rv.name, k), func(t *testing.T) {
				pts := uniformPoints(n, dim, 67)
				truth := make(map[int][]float64, n)
				for id, p := range pts {
					truth[id] = p
				}
				ix := buildFrom(t, Options{Dim: dim, Disks: disks, Replication: rv.value}, pts)
				for qi, q := range data.Uniform(4, dim, 68) {
					got, _, err := ix.KNN(q, k)
					if err != nil {
						t.Fatal(err)
					}
					requireScan(t, fmt.Sprintf("query %d", qi), got, scanKNN(truth, q, k, m))
				}
			})
		}
	}
}

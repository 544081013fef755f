package parsearch

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"parsearch/internal/data"
)

// mergeGroups is the coordinator's k-NN merge: the top k of the groups'
// answers by (distance, id).
func mergeGroups(groups [][]Neighbor, k int) []Neighbor {
	var all []Neighbor
	for _, g := range groups {
		all = append(all, g...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// concatGroups is the coordinator's range merge: the groups' disjoint
// answers concatenated and sorted by id.
func concatGroups(groups [][]Neighbor) []Neighbor {
	var all []Neighbor
	for _, g := range groups {
		all = append(all, g...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// TestShardUnionParity is the library-level contract the coordinator is
// built on: partition the disks into Of shard groups, query every group
// through the *ShardContext methods, and the union of the answers is the
// unrestricted answer byte for byte — on a healthy index and through a
// replicated disk failure — while every group accounts only the disks
// that serve its own data.
func TestShardUnionParity(t *testing.T) {
	const dim, disks, n, k = 6, 6, 2000, 10
	ctx := context.Background()
	pts := data.Uniform(n, dim, 31)
	raw := make([][]float64, n)
	for i, p := range pts {
		raw[i] = p
	}
	var queries [][]float64
	for _, q := range data.Uniform(5, dim, 32) {
		queries = append(queries, q)
	}
	lo, hi := make([]float64, dim), make([]float64, dim)
	for i := range lo {
		lo[i], hi[i] = 0.2, 0.7
	}
	spec := []float64{0.5, Wildcard, 0.4, Wildcard, Wildcard, Wildcard}

	for _, cfg := range []struct {
		name   string
		opts   Options
		failed int // disk to fail, -1 for none
	}{
		{"healthy", Options{Dim: dim, Disks: disks}, -1},
		{"replicated-failure", Options{Dim: dim, Disks: disks, Replication: 1}, 1},
	} {
		ix, err := Open(cfg.opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Build(raw); err != nil {
			t.Fatal(err)
		}
		// servedBy[d] is the physical disk charged for logical disk d.
		servedBy := make([]int, disks)
		for d := range servedBy {
			servedBy[d] = d
		}
		if cfg.failed >= 0 {
			if err := ix.FailDisk(cfg.failed); err != nil {
				t.Fatal(err)
			}
			servedBy[cfg.failed] = ix.ReplicaDisk(cfg.failed)
		}

		for _, of := range []int{2, 3, disks} {
			label := fmt.Sprintf("%s/of=%d", cfg.name, of)
			// checkGroup asserts one group's answer is exact over its own
			// disks and charges no other disk.
			checkGroup := func(what string, g int, st QueryStats) {
				t.Helper()
				if st.Degraded {
					t.Errorf("%s/%s: group %d is degraded", label, what, g)
				}
				own := make([]bool, disks)
				for d := 0; d < disks; d++ {
					if d%of == g {
						own[servedBy[d]] = true
					}
				}
				for d, pages := range st.PagesPerDisk {
					if !own[d] && pages != 0 {
						t.Errorf("%s/%s: group %d charges %d pages to disk %d, which serves none of its data",
							label, what, g, pages, d)
					}
				}
			}
			// sumPages adds one group's per-disk pages into the union's.
			sumPages := func(sum []int, st QueryStats) {
				for d, pages := range st.PagesPerDisk {
					sum[d] += pages
				}
			}

			// Box queries: the box does not depend on the group, so the
			// groups' per-disk pages sum exactly to the unrestricted ones.
			// (Answers compare by bit pattern, sameNeighbors: a partial
			// match's Dist is NaN, the center of a box with unbounded sides.)
			type boxQuery struct {
				what  string
				full  func() ([]Neighbor, QueryStats, error)
				group func(ShardSpec) ([]Neighbor, QueryStats, error)
			}
			for _, bq := range []boxQuery{
				{"range",
					func() ([]Neighbor, QueryStats, error) { return ix.RangeQueryContext(context.Background(), lo, hi) },
					func(s ShardSpec) ([]Neighbor, QueryStats, error) { return ix.RangeQueryShardContext(ctx, lo, hi, s) }},
				{"partial-match",
					func() ([]Neighbor, QueryStats, error) { return ix.PartialMatchContext(context.Background(), spec, 0.1) },
					func(s ShardSpec) ([]Neighbor, QueryStats, error) {
						return ix.PartialMatchShardContext(ctx, spec, 0.1, s)
					}},
			} {
				want, wantStats, err := bq.full()
				if err != nil {
					t.Fatalf("%s/%s: %v", label, bq.what, err)
				}
				if len(want) == 0 {
					t.Fatalf("%s/%s: the unrestricted query matched nothing", label, bq.what)
				}
				var parts [][]Neighbor
				sum := make([]int, disks)
				for g := 0; g < of; g++ {
					res, st, err := bq.group(ShardSpec{Of: of, Groups: []int{g}})
					if err != nil {
						t.Fatalf("%s/%s: group %d: %v", label, bq.what, g, err)
					}
					checkGroup(bq.what, g, st)
					sumPages(sum, st)
					parts = append(parts, res)
				}
				if got := concatGroups(parts); !sameNeighbors(got, want) {
					t.Errorf("%s/%s: union of the groups has %d results, unrestricted %d — not identical",
						label, bq.what, len(got), len(want))
				}
				if !reflect.DeepEqual(sum, wantStats.PagesPerDisk) {
					t.Errorf("%s/%s: groups' pages sum to %v, unrestricted %v", label, bq.what, sum, wantStats.PagesPerDisk)
				}
			}

			// k-NN, single and batched: each group's NN-sphere radius is
			// its own k-th distance, never smaller than the global one, so
			// every disk is charged at least what the unrestricted query
			// charges it.
			wantBatch, _, err := ix.BatchKNNContext(context.Background(), queries, k)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			batchParts := make([][][]Neighbor, len(queries))
			for g := 0; g < of; g++ {
				res, bs, err := ix.BatchKNNShardContext(ctx, queries, k, Approx{}, ShardSpec{Of: of, Groups: []int{g}})
				if err != nil {
					t.Fatalf("%s/batch: group %d: %v", label, g, err)
				}
				for i := range queries {
					checkGroup(fmt.Sprintf("batch[%d]", i), g, bs.PerQuery[i])
					batchParts[i] = append(batchParts[i], res[i])
				}
			}
			for i, q := range queries {
				want, wantStats, err := ix.KNN(q, k)
				if err != nil {
					t.Fatalf("%s/knn[%d]: %v", label, i, err)
				}
				var parts, approxParts [][]Neighbor
				sum := make([]int, disks)
				for g := 0; g < of; g++ {
					shards := ShardSpec{Of: of, Groups: []int{g}}
					res, st, err := ix.KNNShardContext(ctx, q, k, Approx{}, shards)
					if err != nil {
						t.Fatalf("%s/knn[%d]: group %d: %v", label, i, g, err)
					}
					checkGroup(fmt.Sprintf("knn[%d]", i), g, st)
					sumPages(sum, st)
					parts = append(parts, res)
					res, _, err = ix.KNNShardContext(ctx, q, k, Approx{Epsilon: 0.1}, shards)
					if err != nil {
						t.Fatalf("%s/knn-eps[%d]: group %d: %v", label, i, g, err)
					}
					approxParts = append(approxParts, res)
				}
				if got := mergeGroups(parts, k); !sameNeighbors(got, want) {
					t.Errorf("%s/knn[%d]: merged groups differ from the unrestricted answer", label, i)
				}
				if got := mergeGroups(batchParts[i], k); !sameNeighbors(got, wantBatch[i]) {
					t.Errorf("%s/batch[%d]: merged groups differ from the unrestricted batch answer", label, i)
				}
				for d := range sum {
					if sum[d] < wantStats.PagesPerDisk[d] {
						t.Errorf("%s/knn[%d]: the groups charge disk %d %d pages, the unrestricted query %d",
							label, i, d, sum[d], wantStats.PagesPerDisk[d])
					}
				}
				// With ε > 0 the groups terminate independently; only the
				// contract holds: k results, the k-th within (1+ε) of exact.
				got := mergeGroups(approxParts, k)
				if len(got) != k {
					t.Fatalf("%s/knn-eps[%d]: %d merged results, want %d", label, i, len(got), k)
				}
				if limit := 1.1 * want[k-1].Dist; got[k-1].Dist > limit {
					t.Errorf("%s/knn-eps[%d]: merged k-th distance %v exceeds (1+ε)·exact = %v",
						label, i, got[k-1].Dist, limit)
				}
			}
		}
	}
}

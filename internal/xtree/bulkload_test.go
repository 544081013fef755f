package xtree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"parsearch/internal/vec"
)

// The bulk loader's kernels are checked against the code they replaced,
// kept here as the oracle: sort.Slice over the items themselves, and the
// closure-taking cut search that computed every prefix and suffix volume.
// The trees the engine builds are pinned to that code's output (see
// TestBuildDigest at the module root); these tests say which kernel broke
// when the digest does.

// keyPatterns are the key sequences the sort property runs over.
var keyPatterns = []struct {
	name string
	gen  func(r *rand.Rand, n int) []float64
}{
	{"random", func(r *rand.Rand, n int) []float64 {
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = r.Float64()
		}
		return keys
	}},
	{"few-distinct", func(r *rand.Rand, n int) []float64 {
		distinct := 1 + r.Intn(3)
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = float64(r.Intn(distinct))
		}
		return keys
	}},
	{"sorted", func(r *rand.Rand, n int) []float64 {
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = float64(i / 3)
		}
		return keys
	}},
	{"reversed", func(r *rand.Rand, n int) []float64 {
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = float64((n - i) / 2)
		}
		return keys
	}},
	{"with-nan", func(r *rand.Rand, n int) []float64 {
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = math.Round(r.Float64()*16) / 16
			if r.Intn(5) == 0 {
				keys[i] = math.NaN()
			}
		}
		return keys
	}},
}

// TestSortByKeysMatchesSortSlice: sorting the (key, position) table and
// permuting the items gives the permutation sort.Slice gives on the items
// with the comparison the loader used to make — ties, NaNs and all.
func TestSortByKeysMatchesSortSlice(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	lengths := []int{0, 1, 2, 3, 11, 12, 13, 49, 50, 51, 333, 1000, 5000}
	for i := 0; i < 40; i++ {
		lengths = append(lengths, r.Intn(5001))
	}
	for _, p := range keyPatterns {
		for _, n := range lengths {
			keyOf := p.gen(r, n)
			want := make([]Entry, n)
			for i := range want {
				want[i] = Entry{Point: vec.Point{keyOf[i]}, ID: i}
			}
			got := append([]Entry(nil), want...)

			sort.Slice(want, func(i, j int) bool { return want[i].Point[0] < want[j].Point[0] })

			keys := make([]sortKey, n)
			for i := range got {
				keys[i] = sortKey{got[i].Point[0], i}
			}
			sortByKeys(keys, got, make([]Entry, n))

			for i := range want {
				if got[i].ID != want[i].ID {
					t.Fatalf("%s, n = %d: position %d holds item %d, sort.Slice put %d there", p.name, n, i, got[i].ID, want[i].ID)
				}
			}
		}
	}
}

// oracleBestCut is the cut search as it was before the windowed version.
func oracleBestCut(n int, min, max func(i int) vec.Point, d int) int {
	lo := n * 3 / 10
	if lo < 1 {
		lo = 1
	}
	hi := n - lo
	if hi < lo {
		return n / 2
	}
	prefixVol := make([]float64, n+1)
	suffixVol := make([]float64, n+1)
	runMin := make(vec.Point, d)
	runMax := make(vec.Point, d)

	copy(runMin, min(0))
	copy(runMax, max(0))
	prefixVol[1] = volume(runMin, runMax)
	for i := 1; i < n; i++ {
		extend(runMin, runMax, min(i), max(i))
		prefixVol[i+1] = volume(runMin, runMax)
	}
	copy(runMin, min(n-1))
	copy(runMax, max(n-1))
	suffixVol[n-1] = volume(runMin, runMax)
	for i := n - 2; i >= 0; i-- {
		extend(runMin, runMax, min(i), max(i))
		suffixVol[i] = volume(runMin, runMax)
	}

	best, bestVol, bestDist := n/2, math.Inf(1), n
	for k := lo; k <= hi; k++ {
		v := prefixVol[k] + suffixVol[k]
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

// cutCoord draws a coordinate for the cut property: mostly a coarse grid
// (duplicates, zero-extent sides, equal volumes), sometimes an infinity
// (infinite and NaN volumes).
func cutCoord(r *rand.Rand, infinities bool) float64 {
	if infinities && r.Intn(40) == 0 {
		return math.Inf(r.Intn(2)*2 - 1)
	}
	return float64(r.Intn(6)) / 4
}

// TestBestCutMatchesOracle: same cut as the full prefix/suffix search, for
// points and for rectangles, sorted along a dimension as the loader has
// them.
func TestBestCutMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	const d = 3
	s := &loadScratch{runMin: make(vec.Point, d), runMax: make(vec.Point, d)}
	s.reserve(400)
	for n := 2; n <= 400; n++ {
		for _, infinities := range []bool{false, true} {
			for _, rects := range []bool{false, true} {
				items := make([]vec.Rect, n)
				for i := range items {
					items[i] = vec.Rect{Min: make(vec.Point, d), Max: make(vec.Point, d)}
					for j := 0; j < d; j++ {
						items[i].Min[j] = cutCoord(r, infinities)
						items[i].Max[j] = items[i].Min[j]
						if rects {
							items[i].Max[j] += float64(r.Intn(3)) / 4
						}
					}
					if n%5 == 0 {
						// One flat dimension: every volume is zero.
						items[i].Min[1], items[i].Max[1] = 0.5, 0.5
					}
				}
				sort.SliceStable(items, func(i, j int) bool { return items[i].Min[0]+items[i].Max[0] < items[j].Min[0]+items[j].Max[0] })
				mins, maxs := make([]vec.Point, n), make([]vec.Point, n)
				for i, it := range items {
					mins[i], maxs[i] = it.Min, it.Max
				}
				want := oracleBestCut(n, func(i int) vec.Point { return mins[i] }, func(i int) vec.Point { return maxs[i] }, d)
				if got := s.bestCut(mins, maxs); got != want {
					t.Fatalf("n = %d, rects %v, infinities %v: cut at %d, oracle cuts at %d", n, rects, infinities, got, want)
				}
			}
		}
	}
}

// oraclePartition is the leaf-level partition as it was: sort.Slice on the
// entries, per-dimension spread scans, the oracle cut.
func oraclePartition(entries []Entry, cap, d int, history uint64, emit func([]Entry, uint64)) {
	if len(entries) <= cap {
		emit(entries, history)
		return
	}
	dim, bestSpread := 0, -1.0
	for j := 0; j < d; j++ {
		lo, hi := entries[0].Point[j], entries[0].Point[j]
		for _, e := range entries[1:] {
			v := e.Point[j]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if s := hi - lo; s > bestSpread {
			dim, bestSpread = j, s
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Point[dim] < entries[j].Point[dim] })
	at := func(i int) vec.Point { return entries[i].Point }
	cut := oracleBestCut(len(entries), at, at, d)
	h := history | 1<<uint(dim)
	oraclePartition(entries[:cut], cap, d, h, emit)
	oraclePartition(entries[cut:], cap, d, h, emit)
}

// TestBulkLoadLeavesMatchOracle: the loader emits the oracle's leaves —
// same entries in the same order with the same split history — and leaves
// the caller's slice in the same order, which is what a second load (the
// engine's replica) starts from.
func TestBulkLoadLeavesMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const d = 5
	for _, n := range []int{1, 7, 8, 9, 100, 1000, 4321} {
		for _, grid := range []bool{false, true} {
			entries := make([]Entry, n)
			for i, p := range uniformPoints(r, n, d) {
				if grid && i%2 == 0 {
					for j := range p {
						p[j] = math.Round(p[j]*8) / 8
					}
				}
				entries[i] = Entry{Point: p, ID: i}
			}
			ref := append([]Entry(nil), entries...)
			cfg := smallConfig(d)

			var want []string
			oraclePartition(ref, cfg.LeafCapacity, d, 0, func(group []Entry, history uint64) {
				ids := make([]int, len(group))
				for i, e := range group {
					ids[i] = e.ID
				}
				want = append(want, fmt.Sprint(history, ids))
			})
			tr := New(cfg)
			tr.BulkLoad(entries)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, leaf := range tr.Leaves() {
				ids := make([]int, leaf.Len())
				for i, e := range leaf.Entries() {
					ids[i] = e.ID
				}
				got = append(got, fmt.Sprint(leaf.history, ids))
			}
			// The directory levels reorder the leaves; compare as sets.
			sort.Strings(got)
			sort.Strings(want)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("n = %d, grid %v: leaves differ from the oracle's\n got %v\nwant %v", n, grid, got, want)
			}
			for i := range ref {
				if entries[i].ID != ref[i].ID {
					t.Fatalf("n = %d, grid %v: caller's slice holds item %d at %d, oracle leaves %d", n, grid, entries[i].ID, i, ref[i].ID)
				}
			}
		}
	}
}

// BenchmarkBulkLoad times one tree's bulk load — the kernels alone, one
// goroutine whatever -cpu says.
func BenchmarkBulkLoad(b *testing.B) {
	for _, shape := range []struct{ n, d int }{{50_000, 10}, {20_000, 16}} {
		b.Run(fmt.Sprintf("%dk-d%d", shape.n/1000, shape.d), func(b *testing.B) {
			pts := uniformPoints(rand.New(rand.NewSource(1)), shape.n, shape.d)
			entries := make([]Entry, len(pts))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, p := range pts {
					entries[j] = Entry{Point: p, ID: j}
				}
				New(DefaultConfig(shape.d)).BulkLoad(entries)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(shape.n), "ns/point")
		})
	}
}

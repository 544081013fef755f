package slab

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"parsearch/internal/data"
	"parsearch/internal/vec"
)

// BenchmarkStagedSplit measures the staged kernels at every split point
// h of the dimensions, which is how split was chosen. It replays the
// kernel calls, each at the bound in force when it was made, of
// best-first k-NN searches (k = 10, L2) over 4-KByte pages: a kd
// partition of one disk's share of the lib-scale data (62,500 uniform
// points, d = 10) and of 50,000 Fourier descriptors (d = 16), with
// directory pages over runs of consecutive leaves. h = d is the dense
// kernel with the filter. Every row runs on the Go loops (go) and, where
// the CPU has AVX2, on the assembly (asm).
func BenchmarkStagedSplit(b *testing.B) {
	fourier := roundAll(data.Fourier(50_000, 16, 12, 0.15, 1))
	workloads := []struct {
		name    string
		pts, qs []vec.Point
	}{
		{"uniform-d10", roundAll(data.Uniform(62_500, 10, 1)), roundAll(data.Uniform(64, 10, 2))},
		{"fourier-d16", fourier, roundAll(data.QueriesFromData(fourier, 64, 0.02, 2))},
	}
	for _, wl := range workloads {
		dim := len(wl.qs[0])
		w := traceSearches(wl.pts, wl.qs, 4096/(8*dim+4), 4096/(16*dim+8), 10)
		for h := 1; h <= dim; h++ {
			for _, path := range kernelPaths() {
				b.Run(fmt.Sprintf("%s/leaf/h=%d/%s", wl.name, h, path.name), func(b *testing.B) {
					var out []float64
					var keep []int32
					path.run(func() {
						for i := 0; i < b.N; i++ {
							for _, c := range w.calls {
								if c.leaf {
									s := w.leaves[c.page]
									out = grow(out, s.Len())
									keep = s.distsWithin(c.q, vec.L2, c.bound, out, keep, h)
								}
							}
						}
					})
				})
				b.Run(fmt.Sprintf("%s/dir/h=%d/%s", wl.name, h, path.name), func(b *testing.B) {
					var out []float64
					var keep []int32
					path.run(func() {
						for i := 0; i < b.N; i++ {
							for _, c := range w.calls {
								if !c.leaf {
									rs := w.dirs[c.page]
									out = grow(out, rs.Len())
									keep = rs.minDistsWithin(c.q, vec.L2, c.bound, out, keep, h)
								}
							}
						}
					})
				})
			}
		}
	}
}

func roundAll(pts []vec.Point) []vec.Point {
	for i, p := range pts {
		pts[i] = r32(p)
	}
	return pts
}

func grow(out []float64, n int) []float64 {
	if cap(out) < n {
		return make([]float64, n)
	}
	return out[:n]
}

// searchTrace is a page set and the kernel calls k-NN searches over it
// made.
type searchTrace struct {
	leaves []*Slab
	dirs   []*RectSlab
	calls  []kernelCall
}

type kernelCall struct {
	q     vec.Point
	leaf  bool
	page  int
	bound float64
}

// traceSearches partitions pts into leaves of at most leafCap points
// (kd splits at the median of the widest dimension), groups runs of
// dirCap leaves under a directory page, and records the calls of a
// best-first k-NN search for every query.
func traceSearches(pts, queries []vec.Point, leafCap, dirCap, k int) *searchTrace {
	dim := len(pts[0])
	w := &searchTrace{}
	var leafRects, dirRects []vec.Rect
	for _, pg := range kdPages(pts, leafCap) {
		w.leaves = append(w.leaves, Build(dim, pg, false))
		leafRects = append(leafRects, vec.MBR(pg))
	}
	for i := 0; i < len(leafRects); i += dirCap {
		run := leafRects[i:min(i+dirCap, len(leafRects))]
		w.dirs = append(w.dirs, BuildRects(dim, run))
		var corners []vec.Point
		for _, r := range run {
			corners = append(corners, r.Min, r.Max)
		}
		dirRects = append(dirRects, vec.MBR(corners))
	}
	type item struct {
		d    float64
		leaf bool
		page int
	}
	for _, q := range queries {
		var queue []item
		for i, r := range dirRects {
			queue = append(queue, item{vec.L2.RankMinDist(r, q), false, i})
		}
		var best []float64 // the k smallest distances, ascending
		kth := func() float64 {
			if len(best) < k {
				return math.Inf(1)
			}
			return best[k-1]
		}
		for len(queue) > 0 {
			next := 0
			for i := range queue {
				if queue[i].d < queue[next].d {
					next = i
				}
			}
			it := queue[next]
			queue[next] = queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if it.d > kth() {
				break
			}
			w.calls = append(w.calls, kernelCall{q, it.leaf, it.page, kth()})
			if !it.leaf {
				rs := w.dirs[it.page]
				out := make([]float64, rs.Len())
				rs.MinDistsToPage(q, vec.L2, out)
				for c, d := range out {
					if d <= kth() {
						queue = append(queue, item{d, true, it.page*dirCap + c})
					}
				}
				continue
			}
			s := w.leaves[it.page]
			out := make([]float64, s.Len())
			s.DistsToPage(q, vec.L2, out)
			best = append(best, out...)
			sort.Float64s(best)
			best = best[:min(k, len(best))]
		}
	}
	return w
}

// kdPages splits pts at the median of its widest dimension until every
// part holds at most leafCap points, and returns the parts in order.
func kdPages(pts []vec.Point, leafCap int) [][]vec.Point {
	if len(pts) <= leafCap {
		return [][]vec.Point{pts}
	}
	r := vec.MBR(pts)
	widest := 0
	for j := range r.Min {
		if r.Max[j]-r.Min[j] > r.Max[widest]-r.Min[widest] {
			widest = j
		}
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a][widest] < pts[b][widest] })
	mid := len(pts) / 2
	return append(kdPages(pts[:mid], leafCap), kdPages(pts[mid:], leafCap)...)
}

// BenchmarkInside measures the containment kernel as a range query calls
// it: over a kd partition of one disk's share of the lib-scale data
// (62,500 uniform points, d = 10, 4-KByte pages), on every leaf page
// (Slab.Inside) and every directory page of the leaves' MBRs
// (RectSlab.Meets) whose MBR meets one of 64 boxes of half-side 0.2
// (box), and of the same boxes with three dimensions in four left
// unbounded (partial). Every row runs on the Go loops (go) and, where
// the CPU has AVX2, on the assembly (asm); ns/op is per page scanned.
func BenchmarkInside(b *testing.B) {
	const dim = 10
	pts := roundAll(data.Uniform(62_500, dim, 1))
	type page struct {
		mbr  vec.Rect
		scan func(min, max vec.Point, keep []int32) []int32
	}
	var leaves, dirs []page
	for _, pg := range kdPages(pts, 4096/(8*dim+4)) {
		leaves = append(leaves, page{vec.MBR(pg), Build(dim, pg, false).Inside})
	}
	for i := 0; i < len(leaves); i += 4096 / (16*dim + 8) {
		run := leaves[i:min(i+4096/(16*dim+8), len(leaves))]
		var rects []vec.Rect
		var corners []vec.Point
		for _, l := range run {
			rects = append(rects, l.mbr)
			corners = append(corners, l.mbr.Min, l.mbr.Max)
		}
		dirs = append(dirs, page{vec.MBR(corners), BuildRects(dim, rects).Meets})
	}
	type call struct {
		box  vec.Rect
		scan func(min, max vec.Point, keep []int32) []int32
	}
	calls := map[string][]call{}
	for _, c := range data.Uniform(64, dim, 2) {
		box, partial := vec.Rect{Min: make(vec.Point, dim), Max: make(vec.Point, dim)}, vec.Rect{Min: make(vec.Point, dim), Max: make(vec.Point, dim)}
		for j, x := range c {
			box.Min[j], box.Max[j] = x-0.2, x+0.2
			partial.Min[j], partial.Max[j] = math.Inf(-1), math.Inf(1)
			if j%4 == 0 {
				partial.Min[j], partial.Max[j] = box.Min[j], box.Max[j]
			}
		}
		for name, r := range map[string]vec.Rect{"box": box, "partial": partial} {
			for kind, pages := range map[string][]page{"leaf": leaves, "dir": dirs} {
				for _, pg := range pages {
					if pg.mbr.Intersects(r) {
						calls[kind+"/"+name] = append(calls[kind+"/"+name], call{r, pg.scan})
					}
				}
			}
		}
	}
	for _, name := range []string{"leaf/box", "leaf/partial", "dir/box", "dir/partial"} {
		cs := calls[name]
		for _, path := range kernelPaths() {
			b.Run(fmt.Sprintf("uniform-d10/%s/%s", name, path.name), func(b *testing.B) {
				keep := make([]int32, 64)
				path.run(func() {
					for i := 0; i < b.N; i++ {
						c := cs[i%len(cs)]
						keep = c.scan(c.box.Min, c.box.Max, keep)
					}
				})
			})
		}
	}
}

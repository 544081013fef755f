package slab

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"parsearch/internal/vec"
)

// onGo runs f with the L2 kernels on the Go loops, whatever the CPU.
func onGo(f func()) {
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	useAVX2 = false
	f()
}

// kernelPath is one implementation of the kernels: run calls f on it.
type kernelPath struct {
	name string
	run  func(f func())
}

// kernelPaths are the kernels the tests and benchmarks run: the Go loops, and
// the assembly where the CPU runs it.
func kernelPaths() []kernelPath {
	paths := []kernelPath{{"go", onGo}}
	if useAVX2 {
		paths = append(paths, kernelPath{"asm", func(f func()) { f() }})
	}
	return paths
}

// sameRun fails unless two runs of a kernel wrote the same bits into out
// and the same keep list.
func sameRun(t testing.TB, label string, out, goOut []float64, keep, goKeep []int32) {
	t.Helper()
	for i := range goOut {
		if math.Float64bits(out[i]) != math.Float64bits(goOut[i]) {
			t.Fatalf("%s: entry %d is %v (%#x), the Go kernel's %v (%#x)",
				label, i, out[i], math.Float64bits(out[i]), goOut[i], math.Float64bits(goOut[i]))
		}
	}
	if !slices.Equal(keep, goKeep) {
		t.Fatalf("%s: keep %v, the Go kernel's %v", label, keep, goKeep)
	}
}

// poisoned returns n NaNs, so that an entry a kernel leaves unwritten
// shows.
func poisoned(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.NaN()
	}
	return out
}

// kernelCoords are the coordinates the differential test draws from:
// signed zeros, float32 denormals, ±float32 max, ties and plain values.
var kernelCoords = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40,
	math.MaxFloat32, -math.MaxFloat32,
	0.25, -0.25, 1, -1, 3.5,
}

// kernelPoints returns n float32-representable points of dimension dim:
// coordinates from kernelCoords or random, every column j with j%4 == 1
// repeating one value, and every fifth point a copy of the one before.
func kernelPoints(rng *rand.Rand, dim, n int) []vec.Point {
	pts := make([]vec.Point, n)
	for i := range pts {
		if i%5 == 4 {
			pts[i] = slices.Clone(pts[i-1])
			continue
		}
		p := make(vec.Point, dim)
		for j := range p {
			if rng.Intn(2) == 0 {
				p[j] = kernelCoords[rng.Intn(len(kernelCoords))]
			} else {
				p[j] = float64(float32(rng.NormFloat64()))
			}
		}
		pts[i] = p
	}
	for j := 1; j < dim; j += 4 {
		for _, p := range pts {
			p[j] = pts[0][j]
		}
	}
	return pts
}

// kernelBounds are the bounds the differential test stages at: +0, the
// exact partial of an entry (a tie at the bound, on the staged split),
// the exact value of another, the median value and +Inf.
func kernelBounds(partial, dense []float64) []float64 {
	sorted := slices.Clone(dense)
	sort.Float64s(sorted)
	return []float64{0, partial[len(partial)/2], dense[len(dense)/3], sorted[len(sorted)/2], math.Inf(1)}
}

// TestKernelsMatchGo checks every kernel on the assembly path against
// the Go loops, the oracle, bit for bit: every entry of out, the dropped
// ones' partials included, and every keep list, the containment
// kernel's too (checkInside). Page lengths 1 to 64 cover every tail
// width of the 8- and 4-wide blocks.
func TestKernelsMatchGo(t *testing.T) {
	if !useAVX2 {
		t.Log("no AVX2 kernels on this machine: both sides run the Go loops")
	}
	rng := rand.New(rand.NewSource(50))
	for _, dim := range []int{1, 2, 3, 10, 16} {
		for n := 1; n <= 64; n++ {
			pts := kernelPoints(rng, dim, 2*n)
			s, rs := Build(dim, pts[:n], false), BuildRects(dim, pairRects(pts)[:n])
			queries := []vec.Point{kernelPoints(rng, dim, 1)[0], r32(pts[0]), make(vec.Point, dim)}
			for _, m := range metrics {
				for qi, q := range queries {
					label := fmt.Sprintf("d=%d n=%d %v query %d", dim, n, m, qi)
					checkPaths(t, label+" points", leafPage{s}, q, m, kernelBounds)
					checkPaths(t, label+" rects", dirPage{rs}, q, m, kernelBounds)
				}
			}
			var rects []vec.Rect // as rs stores them
			for _, r := range pairRects(pts)[:n] {
				rects = append(rects, vec.Rect{Min: r32(r.Min), Max: r32(r.Max)})
			}
			for bi, box := range kernelBoxes(rng, pts[:n]) {
				checkInside(t, fmt.Sprintf("d=%d n=%d box %d", dim, n, bi), s, pts[:n], rs, rects, box)
			}
		}
	}
}

// kernelBoxes are the boxes the containment kernel is checked on, over
// the points of a page: their MBR (every point inside, bounds on
// coordinates); a point box (lo == hi); a box between two points, with
// bounds on coordinates, and moved off them to float64s that are not
// float32 values (to the next float64, or halfway to the next float32);
// that box with every other dimension a wildcard (±Inf), and with all of
// them; bounds beyond float32's range, holding all or nothing of a
// dimension; denormal bounds; a box holding none of the points; and a
// NaN bound, which Contains and the kernels treat as no bound.
func kernelBoxes(rng *rand.Rand, pts []vec.Point) []vec.Rect {
	dim := len(pts[0])
	inf := math.Inf(1)
	between := func() vec.Rect {
		a, b := pts[rng.Intn(len(pts))], pts[rng.Intn(len(pts))]
		r := vec.Rect{Min: make(vec.Point, dim), Max: make(vec.Point, dim)}
		for j := range r.Min {
			r.Min[j], r.Max[j] = min(a[j], b[j]), max(a[j], b[j])
		}
		return r
	}
	boxes := []vec.Rect{vec.MBR(pts), vec.PointRect(pts[len(pts)/2]), between()}
	off := between()
	for j := range off.Min {
		switch rng.Intn(4) {
		case 0:
			off.Min[j] = math.Nextafter(off.Min[j], -inf)
		case 1:
			off.Min[j] = math.Nextafter(off.Min[j], inf)
			off.Max[j] = math.Nextafter(off.Max[j], inf)
		case 2:
			up := float64(math.Nextafter32(float32(off.Min[j]), float32(inf)))
			off.Min[j] = off.Min[j]/2 + up/2
			off.Max[j] = math.Nextafter(off.Max[j], -inf)
		}
	}
	boxes = append(boxes, off)
	partial, wild := between(), between()
	for j := range partial.Min {
		if j%2 == 1 {
			partial.Min[j], partial.Max[j] = -inf, inf
		}
		wild.Min[j], wild.Max[j] = -inf, inf
	}
	boxes = append(boxes, partial, wild)
	huge, denormal, none, nan := between(), between(), between(), between()
	for j := range huge.Min {
		switch j % 3 {
		case 0:
			huge.Min[j], huge.Max[j] = -1e39, math.MaxFloat64
		case 1:
			huge.Min[j], huge.Max[j] = 1e39, inf
		case 2:
			huge.Min[j] = -math.MaxFloat32 * (1 + 0x1p-30)
		}
		denormal.Min[j], denormal.Max[j] = -math.SmallestNonzeroFloat32/2, math.SmallestNonzeroFloat32*1.5
		none.Min[j], none.Max[j] = 2, 1.5
	}
	nan.Min[0] = math.NaN()
	nan.Max[dim-1] = math.NaN()
	return append(boxes, huge, denormal, none, nan)
}

// checkBox runs the containment kernel on both paths, as a page's
// Inside or a directory page's Meets (kernel), and fails unless each
// keeps exactly the entries of want, ascending. The first path reuses a
// keep buffer of junk, the Go path gets none.
func checkBox(t testing.TB, label string, n int, want []int32, kernel func(keep []int32) []int32) {
	t.Helper()
	junk := make([]int32, n)
	for i := range junk {
		junk[i] = -1
	}
	keep := kernel(junk)
	var goKeep []int32
	onGo(func() { goKeep = kernel(nil) })
	if !slices.Equal(goKeep, want) {
		t.Fatalf("%s: the Go kernel keeps %v, want %v", label, goKeep, want)
	}
	if !slices.Equal(keep, goKeep) {
		t.Fatalf("%s: keep %v, the Go kernel's %v", label, keep, goKeep)
	}
}

// checkInside checks the containment kernel on a leaf page against
// vec.Rect.Contains over its points as the page stores them, and on a
// directory page of rects against vec.Rect.Intersects; InRect must flag
// the points Inside keeps.
func checkInside(t testing.TB, label string, s *Slab, pts []vec.Point, rs *RectSlab, rects []vec.Rect, box vec.Rect) {
	t.Helper()
	label = fmt.Sprintf("%s %v", label, box)
	var want, meet []int32
	for i, p := range pts {
		if box.Contains(r32(p)) {
			want = append(want, int32(i))
		}
	}
	for i, r := range rects {
		if r.Intersects(box) {
			meet = append(meet, int32(i))
		}
	}
	checkBox(t, label+" points", len(pts), want, func(keep []int32) []int32 { return s.Inside(box.Min, box.Max, keep) })
	checkBox(t, label+" rects", len(rects), meet, func(keep []int32) []int32 { return rs.Meets(box.Min, box.Max, keep) })
	flags := make([]bool, len(pts))
	s.InRect(box.Min, box.Max, flags)
	for i, in := range flags {
		if in != slices.Contains(want, int32(i)) {
			t.Fatalf("%s: InRect flags point %d %v", label, i, in)
		}
	}
}

// page is a leaf's Slab or a directory's RectSlab, with its dense and
// staged kernels.
type page interface {
	Len() int
	dense(q vec.Point, m vec.Metric, out []float64)
	staged(q vec.Point, m vec.Metric, bound float64, out []float64, keep []int32) []int32
}

type leafPage struct{ *Slab }

func (p leafPage) dense(q vec.Point, m vec.Metric, out []float64) { p.DistsToPage(q, m, out) }
func (p leafPage) staged(q vec.Point, m vec.Metric, bound float64, out []float64, keep []int32) []int32 {
	return p.DistsWithin(q, m, bound, out, keep)
}

type dirPage struct{ *RectSlab }

func (p dirPage) dense(q vec.Point, m vec.Metric, out []float64) { p.MinDistsToPage(q, m, out) }
func (p dirPage) staged(q vec.Point, m vec.Metric, bound float64, out []float64, keep []int32) []int32 {
	return p.MinDistsWithin(q, m, bound, out, keep)
}

// checkPaths runs a page's dense and staged kernels on both paths: the
// staged one at every bound that bounds draws from the Go path's
// partials (its staged split at bound -Inf) and dense values. The staged
// kernel must keep the contract of checkStaged, and both paths must
// write the same bits and keep the same entries. The first path reuses
// a keep buffer of junk, the Go path gets none.
func checkPaths(t testing.TB, label string, pg page, q vec.Point, m vec.Metric, bounds func(partial, dense []float64) []float64) {
	t.Helper()
	n := pg.Len()
	want, goWant := poisoned(n), poisoned(n)
	pg.dense(q, m, want)
	onGo(func() { pg.dense(q, m, goWant) })
	sameRun(t, label+" dense", want, goWant, nil, nil)
	partial := poisoned(n)
	onGo(func() { pg.staged(q, m, math.Inf(-1), partial, nil) })
	junk := make([]int32, n)
	for _, bound := range bounds(partial, goWant) {
		l := fmt.Sprintf("%s bound %v", label, bound)
		for i := range junk {
			junk[i] = -1
		}
		out, goOut := poisoned(n), poisoned(n)
		keep := pg.staged(q, m, bound, out, junk)
		checkStaged(t, l, want, out, keep, bound)
		var goKeep []int32
		onGo(func() { goKeep = pg.staged(q, m, bound, goOut, nil) })
		sameRun(t, l, out, goOut, keep, goKeep)
	}
}

// TestStagedKernelsAllocateNothing pins the staged kernels, the
// containment kernel included, at zero allocations over reused scratch,
// so that neither path's scratch escapes; InRect, on a page of up to
// 256 points, needs none.
func TestStagedKernelsAllocateNothing(t *testing.T) {
	const dim = 16
	pts := kernelPoints(rand.New(rand.NewSource(51)), dim, 61)
	s, rs := Build(dim, pts, false), BuildRects(dim, pairRects(pts))
	q := r32(pts[3])
	out, keep := make([]float64, s.Len()), make([]int32, s.Len())
	lo, hi := vec.MBR(pts[:4]).Min, vec.MBR(pts[:4]).Max
	big := Build(dim, kernelPoints(rand.New(rand.NewSource(52)), dim, 256), false)
	flags := make([]bool, big.Len())
	for _, path := range kernelPaths() {
		path.run(func() {
			if n := testing.AllocsPerRun(100, func() { s.DistsWithin(q, vec.L2, 1, out, keep) }); n != 0 {
				t.Errorf("%s: DistsWithin allocates %v times a call", path.name, n)
			}
			if n := testing.AllocsPerRun(100, func() { rs.MinDistsWithin(q, vec.L2, 1, out, keep) }); n != 0 {
				t.Errorf("%s: MinDistsWithin allocates %v times a call", path.name, n)
			}
			if n := testing.AllocsPerRun(100, func() { s.Inside(lo, hi, keep) }); n != 0 {
				t.Errorf("%s: Inside allocates %v times a call", path.name, n)
			}
			if n := testing.AllocsPerRun(100, func() { rs.Meets(lo, hi, keep) }); n != 0 {
				t.Errorf("%s: Meets allocates %v times a call", path.name, n)
			}
			if n := testing.AllocsPerRun(100, func() { big.InRect(lo, hi, flags) }); n != 0 {
				t.Errorf("%s: InRect allocates %v times a call on %d points", path.name, n, big.Len())
			}
		})
	}
}

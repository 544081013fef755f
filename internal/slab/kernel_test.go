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

// TestKernelsMatchGo checks all four kernels on the assembly path
// against the Go loops, the oracle, bit for bit: every entry of out,
// the dropped ones' partials included, and every keep list. Page
// lengths 1 to 64 cover every tail width of the 8- and 4-wide blocks.
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

// TestStagedKernelsAllocateNothing pins the staged kernels at zero
// allocations over reused scratch, so that neither path's scratch
// escapes.
func TestStagedKernelsAllocateNothing(t *testing.T) {
	const dim = 16
	pts := kernelPoints(rand.New(rand.NewSource(51)), dim, 61)
	s, rs := Build(dim, pts, false), BuildRects(dim, pairRects(pts))
	q := r32(pts[3])
	out, keep := make([]float64, s.Len()), make([]int32, s.Len())
	for _, path := range kernelPaths() {
		path.run(func() {
			if n := testing.AllocsPerRun(100, func() { s.DistsWithin(q, vec.L2, 1, out, keep) }); n != 0 {
				t.Errorf("%s: DistsWithin allocates %v times a call", path.name, n)
			}
			if n := testing.AllocsPerRun(100, func() { rs.MinDistsWithin(q, vec.L2, 1, out, keep) }); n != 0 {
				t.Errorf("%s: MinDistsWithin allocates %v times a call", path.name, n)
			}
		})
	}
}

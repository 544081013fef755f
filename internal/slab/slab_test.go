package slab

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"parsearch/internal/vec"
)

var metrics = []vec.Metric{vec.L2, vec.L1, vec.LInf}

// r32 rounds a point to float32-representable coordinates — the ingest
// contract every slab input satisfies.
func r32(p vec.Point) vec.Point {
	out := make(vec.Point, len(p))
	for j, x := range p {
		out[j] = float64(float32(x))
	}
	return out
}

// adversarialPoints builds point sets designed to expose any divergence
// between the batched kernels and the scalar reference: denormals,
// extreme magnitudes, exact ties, negative zero, and plain random data.
// All coordinates are float32-representable by construction.
func adversarialPoints(dim int) [][]vec.Point {
	rng := rand.New(rand.NewSource(7))
	randset := func(n int, scale float64) []vec.Point {
		pts := make([]vec.Point, n)
		for i := range pts {
			p := make(vec.Point, dim)
			for j := range p {
				p[j] = (rng.Float64() - 0.5) * scale
			}
			pts[i] = r32(p)
		}
		return pts
	}
	constant := func(n int, v float64) []vec.Point {
		pts := make([]vec.Point, n)
		for i := range pts {
			p := make(vec.Point, dim)
			for j := range p {
				p[j] = v
			}
			pts[i] = r32(p)
		}
		return pts
	}
	sets := [][]vec.Point{
		randset(33, 1),
		randset(7, 1e30),                  // extreme magnitudes: d*d overflows to +Inf
		randset(7, 1e-40),                 // float32 denormals
		constant(9, 0.25),                 // exact ties across all points
		constant(3, math.Copysign(0, -1)), // negative zero
		{r32(fill(dim, math.MaxFloat32, -math.MaxFloat32, 1))},
	}
	// One mixed set: denormal, huge, tied, and random points together.
	mixed := append(append(randset(5, 1), randset(2, 1e-40)...), constant(2, 0.25)...)
	return append(sets, mixed)
}

// fill returns a point of dimension dim holding vals, cut or padded with
// zeros.
func fill(dim int, vals ...float64) vec.Point {
	p := make(vec.Point, dim)
	copy(p, vals)
	return p
}

func queriesFor(dim int) []vec.Point {
	rng := rand.New(rand.NewSource(8))
	qs := make([]vec.Point, 6)
	for i := range qs {
		q := make(vec.Point, dim)
		for j := range q {
			q[j] = (rng.Float64() - 0.5) * 2
		}
		qs[i] = r32(q)
	}
	// Queries that hit the adversarial regimes directly.
	qs = append(qs,
		r32(fill(dim, 1e30, -1e30, 1e-40, 0, 0.25, -0.25, 1, -1)),
		make(vec.Point, dim), // origin
	)
	return qs
}

// kernelDims are the dimensionalities the kernel tests run at: the
// degenerate ones, both sides of the staged split, and the workloads' 10
// and 16.
var kernelDims = []int{1, 2, 3, 8, 10, 16}

// stagedBounds are the bounds the staged kernels are checked at, drawn
// from the dense outputs: zero, an exact value (a tie), the median and
// +Inf.
func stagedBounds(dense []float64) []float64 {
	sorted := append([]float64(nil), dense...)
	sort.Float64s(sorted)
	return []float64{0, dense[len(dense)/3], sorted[len(sorted)/2], math.Inf(1)}
}

// checkStaged checks a staged kernel's out and keep at bound against the
// dense kernel's values: every entry whose value is not above bound is
// kept, in ascending order; a kept value is the dense one bit for bit; a
// dropped entry's partial is above bound and not above its value.
func checkStaged(t testing.TB, label string, dense, out []float64, keep []int32, bound float64) {
	t.Helper()
	kept := make([]bool, len(dense))
	for k, i := range keep {
		if k > 0 && i <= keep[k-1] {
			t.Fatalf("%s bound %v: keep %v not ascending", label, bound, keep)
		}
		kept[i] = true
		if math.Float64bits(out[i]) != math.Float64bits(dense[i]) {
			t.Fatalf("%s bound %v: kept entry %d is %v, dense %v", label, bound, i, out[i], dense[i])
		}
	}
	for i, d := range dense {
		switch {
		case kept[i]:
		case d <= bound:
			t.Fatalf("%s bound %v: entry %d at %v dropped", label, bound, i, d)
		case !(out[i] > bound) || out[i] > d:
			t.Fatalf("%s bound %v: dropped entry %d has partial %v, value %v", label, bound, i, out[i], d)
		}
	}
}

// TestDistsToPageMatchesScalar checks the batched distance kernel is
// bitwise identical to the scalar vec.Metric.RankDist on every
// adversarial input, and the staged kernel against it at every bound of
// stagedBounds. PointAt must restore every built point exactly.
func TestDistsToPageMatchesScalar(t *testing.T) {
	for _, dim := range kernelDims {
		for si, pts := range adversarialPoints(dim) {
			s := Build(dim, pts, false)
			p := make([]float64, dim)
			for i, want := range pts {
				s.PointAt(i, p)
				for j := range p {
					if math.Float64bits(p[j]) != math.Float64bits(want[j]) {
						t.Fatalf("d=%d set %d point %d dim %d: PointAt %v, built %v", dim, si, i, j, p[j], want[j])
					}
				}
			}
			dense, out := make([]float64, s.Len()), make([]float64, s.Len())
			var keep []int32
			for _, m := range metrics {
				for qi, q := range queriesFor(dim) {
					s.DistsToPage(q, m, dense)
					for i, p := range pts {
						if got, want := dense[i], m.RankDist(q, p); got != want {
							t.Fatalf("d=%d set %d metric %v query %d point %d: batched %v, scalar %v",
								dim, si, m, qi, i, got, want)
						}
					}
					for _, bound := range stagedBounds(dense) {
						keep = s.DistsWithin(q, m, bound, out, keep)
						checkStaged(t, fmt.Sprintf("d=%d set %d metric %v query %d", dim, si, m, qi), dense, out, keep, bound)
					}
				}
			}
		}
	}
}

// TestMinDistsToPageMatchesScalar checks the batched MINDIST kernel
// against vec.Metric.RankMinDist on rectangles drawn from the
// adversarial point sets (MBRs of point pairs, plus degenerate
// point-rects), and the staged kernel against it at every bound of
// stagedBounds.
func TestMinDistsToPageMatchesScalar(t *testing.T) {
	for _, dim := range kernelDims {
		for si, pts := range adversarialPoints(dim) {
			rects := pairRects(pts)
			rs := BuildRects(dim, rects)
			dense, out := make([]float64, rs.Len()), make([]float64, rs.Len())
			var keep []int32
			for _, m := range metrics {
				for qi, q := range queriesFor(dim) {
					rs.MinDistsToPage(q, m, dense)
					for i, r := range rects {
						if got, want := dense[i], m.RankMinDist(r, q); got != want {
							t.Fatalf("d=%d set %d metric %v query %d rect %d: batched %v, scalar %v",
								dim, si, m, qi, i, got, want)
						}
					}
					for _, bound := range stagedBounds(dense) {
						keep = rs.MinDistsWithin(q, m, bound, out, keep)
						checkStaged(t, fmt.Sprintf("d=%d set %d metric %v query %d", dim, si, m, qi), dense, out, keep, bound)
					}
				}
			}
		}
	}
}

// pairRects returns the MBRs of consecutive point pairs plus the
// degenerate rectangle of the first point.
func pairRects(pts []vec.Point) []vec.Rect {
	var rects []vec.Rect
	for i := 0; i+1 < len(pts); i += 2 {
		rects = append(rects, vec.MBR([]vec.Point{pts[i], pts[i+1]}))
	}
	return append(rects, vec.PointRect(pts[0]))
}

// TestRectSlabRoundTrip checks RectAt restores the built rectangles
// exactly (float32 widening is lossless on pre-rounded coordinates).
func TestRectSlabRoundTrip(t *testing.T) {
	const dim = 4
	pts := adversarialPoints(dim)[0]
	rects := []vec.Rect{vec.MBR(pts), vec.PointRect(pts[3])}
	rs := BuildRects(dim, rects)
	min, max := make([]float64, dim), make([]float64, dim)
	for i, r := range rects {
		rs.RectAt(i, min, max)
		for j := 0; j < dim; j++ {
			if min[j] != r.Min[j] || max[j] != r.Max[j] {
				t.Fatalf("rect %d dim %d: got [%v,%v], want [%v,%v]",
					i, j, min[j], max[j], r.Min[j], r.Max[j])
			}
		}
	}
}

// TestInRectMatchesContains checks the batched containment kernel
// against vec.Rect.Contains, including exact-boundary points.
func TestInRectMatchesContains(t *testing.T) {
	const dim = 5
	for si, pts := range adversarialPoints(dim) {
		s := Build(dim, pts, false)
		out := make([]bool, s.Len())
		// Boxes: the full MBR (everything inside, boundaries exercised),
		// a sub-box, and a disjoint box.
		mbr := vec.MBR(pts)
		boxes := []vec.Rect{mbr, vec.PointRect(pts[0])}
		sub := mbr.Clone()
		for j := range sub.Max {
			sub.Max[j] = (sub.Min[j] + sub.Max[j]) / 2
		}
		boxes = append(boxes, sub)
		for bi, box := range boxes {
			s.InRect(box.Min, box.Max, out)
			for i, p := range pts {
				if out[i] != box.Contains(p) {
					t.Fatalf("set %d box %d point %d: batched %v, Contains %v",
						si, bi, i, out[i], box.Contains(p))
				}
			}
		}
	}
}

// TestBuildEmpty checks the nil-slab contract for empty pages.
func TestBuildEmpty(t *testing.T) {
	if s := Build(4, nil, false); s != nil {
		t.Fatalf("Build of empty page = %+v, want nil", s)
	}
	if rs := BuildRects(4, nil); rs != nil {
		t.Fatalf("BuildRects of empty page = %+v, want nil", rs)
	}
}

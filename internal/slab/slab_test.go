package slab

import (
	"math"
	"math/rand"
	"testing"

	"parsearch/internal/vec"
)

var metrics = []vec.Metric{vec.L2, vec.L1, vec.LInf}

// r32 rounds a point to float32-representable coordinates — the packed
// ingest contract every slab input satisfies.
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
		{r32(vec.Point{math.MaxFloat32, -math.MaxFloat32, 1, 0, 0, 0, 0, 0}[:dim])},
	}
	// One mixed set: denormal, huge, tied, and random points together.
	mixed := append(append(randset(5, 1), randset(2, 1e-40)...), constant(2, 0.25)...)
	return append(sets, mixed)
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
		r32(vec.Point{1e30, -1e30, 1e-40, 0, 0.25, -0.25, 1, -1}[:dim]),
		make(vec.Point, dim), // origin
	)
	return qs
}

// TestDistsToPageMatchesScalar checks the batched distance kernel is
// bitwise identical to the scalar vec.Metric.RankDist on every
// adversarial input, and that DistTo agrees with the batched value.
func TestDistsToPageMatchesScalar(t *testing.T) {
	const dim = 8
	for si, pts := range adversarialPoints(dim) {
		s := Build(dim, pts, false)
		out := make([]float64, s.Len())
		for _, m := range metrics {
			for qi, q := range queriesFor(dim) {
				s.DistsToPage(q, m, out)
				for i, p := range pts {
					want := m.RankDist(q, p)
					if got := out[i]; got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("set %d metric %v query %d point %d: batched %v, scalar %v",
							si, m, qi, i, got, want)
					}
					if got := s.DistTo(i, q, m); got != out[i] && !(math.IsNaN(got) && math.IsNaN(out[i])) {
						t.Fatalf("set %d metric %v query %d point %d: DistTo %v, batched %v",
							si, m, qi, i, got, out[i])
					}
				}
			}
		}
	}
}

// TestMinDistsToPageMatchesScalar checks the batched MINDIST kernel
// against vec.Metric.RankMinDist on rectangles drawn from the
// adversarial point sets (MBRs of point pairs, plus degenerate
// point-rects).
func TestMinDistsToPageMatchesScalar(t *testing.T) {
	const dim = 8
	for si, pts := range adversarialPoints(dim) {
		var rects []vec.Rect
		for i := 0; i+1 < len(pts); i += 2 {
			rects = append(rects, vec.MBR([]vec.Point{pts[i], pts[i+1]}))
		}
		rects = append(rects, vec.PointRect(pts[0]))
		rs := BuildRects(dim, rects)
		out := make([]float64, rs.Len())
		for _, m := range metrics {
			for qi, q := range queriesFor(dim) {
				rs.MinDistsToPage(q, m, out)
				for i, r := range rects {
					want := m.RankMinDist(r, q)
					if got := out[i]; got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("set %d metric %v query %d rect %d: batched %v, scalar %v",
							si, m, qi, i, got, want)
					}
				}
			}
		}
	}
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

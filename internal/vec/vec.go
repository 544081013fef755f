// Package vec provides the geometric primitives used throughout parsearch:
// d-dimensional points, hyperrectangles (minimum bounding rectangles), the
// standard Minkowski metrics, and the MINDIST / MINMAXDIST / MAXDIST
// functions between points and rectangles on which all nearest-neighbor
// algorithms rely.
//
// All functions treat points as []float64 of equal length; length mismatches
// are programming errors and panic, mirroring the behaviour of slice
// indexing itself.
package vec

import (
	"fmt"
	"math"
	"strings"
)

// Point is a position in d-dimensional space. The data space of the paper is
// the unit hypercube [0,1]^d, but nothing in this package assumes it.
type Point = []float64

// Clone returns a copy of p that shares no memory with it.
func Clone(p Point) Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether a and b have the same dimensionality and identical
// coordinates.
func Equal(a, b Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Format renders p with the given precision, e.g. "(0.25, 0.50)".
func Format(p Point, prec int) string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, x := range p {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%.*f", prec, x)
	}
	sb.WriteByte(')')
	return sb.String()
}

// Metric identifies one of the Minkowski metrics L_p.
type Metric int

const (
	// L2 is the Euclidean metric, the similarity measure used by the paper
	// for feature vectors.
	L2 Metric = iota
	// L1 is the Manhattan metric.
	L1
	// LInf is the maximum metric.
	LInf
)

// String returns the conventional name of the metric.
func (m Metric) String() string {
	switch m {
	case L2:
		return "L2"
	case L1:
		return "L1"
	case LInf:
		return "Linf"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Dist returns the distance between a and b under metric m.
func (m Metric) Dist(a, b Point) float64 {
	switch m {
	case L2:
		return math.Sqrt(SqDist(a, b))
	case L1:
		var s float64
		for i := range a {
			s += math.Abs(a[i] - b[i])
		}
		return s
	case LInf:
		var s float64
		for i := range a {
			if d := math.Abs(a[i] - b[i]); d > s {
				s = d
			}
		}
		return s
	default:
		panic(fmt.Sprintf("vec: unknown metric %d", int(m)))
	}
}

// SqDist returns the squared Euclidean distance between a and b. Euclidean
// k-NN search compares squared distances to avoid square roots on the hot
// path. Each square is added as float64(d*d): the explicit conversion
// rounds the product, so no compiler may fuse it into the sum (gc does
// on arm64, ppc64le, s390x, riscv64 and loong64), and every architecture
// sums amd64's bits. SqMinDist and SqMaxDist add their squares so too.
func SqDist(a, b Point) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}

// Dist is shorthand for L2.Dist.
func Dist(a, b Point) float64 {
	return math.Sqrt(SqDist(a, b))
}

// Rect is an axis-aligned hyperrectangle, the minimum bounding rectangle
// (MBR) of index structures. Min[i] <= Max[i] must hold in every dimension
// for a valid rectangle.
type Rect struct {
	Min, Max Point
}

// NewRect returns a rectangle with its own copies of min and max. It panics
// if the slices have different lengths or min exceeds max anywhere.
func NewRect(min, max Point) Rect {
	if len(min) != len(max) {
		panic("vec: NewRect with mismatched dimensions")
	}
	for i := range min {
		if min[i] > max[i] {
			panic(fmt.Sprintf("vec: NewRect with min > max in dimension %d", i))
		}
	}
	return Rect{Min: Clone(min), Max: Clone(max)}
}

// PointRect returns the degenerate rectangle containing exactly p.
func PointRect(p Point) Rect {
	return Rect{Min: Clone(p), Max: Clone(p)}
}

// UnitCube returns [0,1]^d, the data space assumed by the paper.
func UnitCube(d int) Rect {
	min := make(Point, d)
	max := make(Point, d)
	for i := range max {
		max[i] = 1
	}
	return Rect{Min: min, Max: max}
}

// Dim returns the dimensionality of r.
func (r Rect) Dim() int { return len(r.Min) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	return Rect{Min: Clone(r.Min), Max: Clone(r.Max)}
}

// Valid reports whether Min <= Max holds in every dimension.
func (r Rect) Valid() bool {
	if len(r.Min) != len(r.Max) {
		return false
	}
	for i := range r.Min {
		if r.Min[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	for i := range r.Min {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	for i := range r.Min {
		if s.Min[i] < r.Min[i] || s.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Min {
		if r.Max[i] < s.Min[i] || s.Max[i] < r.Min[i] {
			return false
		}
	}
	return true
}

// Center returns the centroid of r.
func (r Rect) Center() Point {
	c := make(Point, len(r.Min))
	for i := range c {
		c[i] = (r.Min[i] + r.Max[i]) / 2
	}
	return c
}

// Area returns the d-dimensional volume of r. Degenerate rectangles have
// area zero.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Min {
		a *= r.Max[i] - r.Min[i]
	}
	return a
}

// Margin returns the sum of the edge lengths of r, the "margin" criterion of
// the R*-tree split algorithm.
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Min {
		m += r.Max[i] - r.Min[i]
	}
	return m
}

// Extend grows r in place so that it contains p.
func (r *Rect) Extend(p Point) {
	for i := range r.Min {
		if p[i] < r.Min[i] {
			r.Min[i] = p[i]
		}
		if p[i] > r.Max[i] {
			r.Max[i] = p[i]
		}
	}
}

// ExtendRect grows r in place so that it contains s.
func (r *Rect) ExtendRect(s Rect) {
	for i := range r.Min {
		if s.Min[i] < r.Min[i] {
			r.Min[i] = s.Min[i]
		}
		if s.Max[i] > r.Max[i] {
			r.Max[i] = s.Max[i]
		}
	}
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	u := r.Clone()
	u.ExtendRect(s)
	return u
}

// Intersection returns the overlap of r and s and true, or a zero Rect and
// false if they are disjoint.
func (r Rect) Intersection(s Rect) (Rect, bool) {
	if !r.Intersects(s) {
		return Rect{}, false
	}
	out := Rect{Min: make(Point, len(r.Min)), Max: make(Point, len(r.Min))}
	for i := range r.Min {
		out.Min[i] = max(r.Min[i], s.Min[i])
		out.Max[i] = min(r.Max[i], s.Max[i])
	}
	return out, true
}

// OverlapArea returns the volume of the intersection of r and s, or 0 if
// they are disjoint. The builtin min and max give math.Min's and
// math.Max's results for NaN, ±0 and ±Inf, inline.
func (r Rect) OverlapArea(s Rect) float64 {
	a := 1.0
	for i := range r.Min {
		lo := max(r.Min[i], s.Min[i])
		hi := min(r.Max[i], s.Max[i])
		if hi <= lo {
			return 0
		}
		a *= hi - lo
	}
	return a
}

// SqMinDist returns MINDIST(q, r)^2 under the Euclidean metric: the squared
// distance from q to the closest point of r, zero if q lies inside r
// [RKV 95]. Every NN algorithm uses this as its optimistic bound.
func (r Rect) SqMinDist(q Point) float64 {
	var s float64
	for i := range r.Min {
		switch {
		case q[i] < r.Min[i]:
			d := r.Min[i] - q[i]
			s += float64(d * d)
		case q[i] > r.Max[i]:
			d := q[i] - r.Max[i]
			s += float64(d * d)
		}
	}
	return s
}

// MinDist returns MINDIST(q, r) under the Euclidean metric.
func (r Rect) MinDist(q Point) float64 {
	return math.Sqrt(r.SqMinDist(q))
}

// SqMaxDist returns the squared distance from q to the farthest point of r,
// the pessimistic bound: every point inside r is at most this far from q.
func (r Rect) SqMaxDist(q Point) float64 {
	var s float64
	for i := range r.Min {
		d := math.Max(math.Abs(q[i]-r.Min[i]), math.Abs(q[i]-r.Max[i]))
		s += float64(d * d)
	}
	return s
}

// MaxDist returns the distance from q to the farthest point of r.
func (r Rect) MaxDist(q Point) float64 {
	return math.Sqrt(r.SqMaxDist(q))
}

// SqMinMaxDist returns MINMAXDIST(q, r)^2 [RKV 95]: the smallest distance
// within which a data point inside r is guaranteed to exist, provided r is a
// minimum bounding rectangle (every face of an MBR touches at least one data
// object). The RKV pruning rule discards any rectangle whose MINDIST exceeds
// another rectangle's MINMAXDIST.
func (r Rect) SqMinMaxDist(q Point) float64 {
	d := len(r.Min)
	// S = sum over all dimensions of the squared distance to the *far*
	// face; for each candidate dimension k we swap the far-face term for
	// the near-face term in k.
	var total float64
	far := make([]float64, d)
	near := make([]float64, d)
	for i := 0; i < d; i++ {
		// rM: the far edge coordinate in dimension i.
		rm := r.Min[i]
		if q[i] >= (r.Min[i]+r.Max[i])/2 {
			rm = r.Min[i]
		} else {
			rm = r.Max[i]
		}
		f := q[i] - rm
		far[i] = f * f

		// rm_k: the near edge coordinate in dimension i.
		rn := r.Max[i]
		if q[i] <= (r.Min[i]+r.Max[i])/2 {
			rn = r.Min[i]
		} else {
			rn = r.Max[i]
		}
		n := q[i] - rn
		near[i] = n * n
		total += far[i]
	}
	best := math.Inf(1)
	for k := 0; k < d; k++ {
		if v := total - far[k] + near[k]; v < best {
			best = v
		}
	}
	return best
}

// MinMaxDist returns MINMAXDIST(q, r).
func (r Rect) MinMaxDist(q Point) float64 {
	return math.Sqrt(r.SqMinMaxDist(q))
}

// SqDistSphereIntersects reports whether the sphere of squared radius sqR
// around q intersects r. The NN-sphere test of the paper (Fig. 4): a page
// must be read iff its region intersects the NN-sphere.
func (r Rect) SqDistSphereIntersects(q Point, sqR float64) bool {
	return r.SqMinDist(q) <= sqR
}

// String renders r as "[min .. max]" with 3 digits of precision.
func (r Rect) String() string {
	return fmt.Sprintf("[%s .. %s]", Format(r.Min, 3), Format(r.Max, 3))
}

// MBR returns the minimum bounding rectangle of the given points. It panics
// on an empty input.
func MBR(points []Point) Rect {
	if len(points) == 0 {
		panic("vec: MBR of no points")
	}
	r := PointRect(points[0])
	for _, p := range points[1:] {
		r.Extend(p)
	}
	return r
}

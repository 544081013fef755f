// Package slab implements the storage layout of the engine's leaf pages:
// one contiguous, dimension-major coordinate block per X-tree page, with
// batched distance kernels that compute all distances of a page in one
// tight loop. A leaf's block is the only copy of its points.
//
// A block holds float32 coordinates. Exactness contract: the index
// rounds every coordinate to float32 at ingest, so a block holds the
// stored values exactly. The batched kernels widen each coordinate to
// float64 and accumulate per point in ascending dimension order — the
// same floating-point operation sequence as the scalar
// vec.Metric.RankDist — so batched and scalar distances are bitwise
// identical. The Go loops add each square as float64(d*d): the explicit
// conversion rounds the product, so no compiler may fuse it into the
// sum with one rounding, as gc otherwise does on arm64, ppc64le, s390x,
// riscv64 and loong64 (TestNoFusedMultiplyAdd), and every architecture
// computes amd64's bits.
//
// The staged kernels (Slab.DistsWithin, RectSlab.MinDistsWithin) stop a
// page's distances at a bound. They accumulate a prefix of the
// dimensions for every entry and finish only the entries whose partial
// is not above the bound. A finished entry runs the same summation in
// the same order, so its value is the full kernel's bit for bit. A
// dropped entry's full value is above the bound too: every term is
// non-negative and IEEE addition is monotone, so the finished sum is at
// least the partial (under LInf a running maximum, likewise). Ties are
// kept — the filter is <=, never < — because an entry at exactly the
// k-th distance can still enter a k-best on its smaller ID. Inputs are
// finite, as at ingest, so no distance is NaN.
//
// The containment kernel (Slab.Inside, RectSlab.Meets) returns the
// entries of a page that lie inside a box, for a range or partial-match
// query, staged by dimension: the first bounded dimension keeps the
// entries inside its interval, each later one drops the kept entries
// outside its own, and the scan stops once none is left. Its tests are
// comparisons, which do not round: an entry is kept exactly when every
// dimension keeps it. So the order in which the dimensions are scanned,
// skipping a dimension bounded by -Inf and +Inf (a partial match's
// wildcard, which holds every entry) and the width of a lane cannot
// change the set, and the keep list is ascending whatever the path.
//
// On amd64, when CPUID and XGETBV report AVX2 and POPCNT with the YMM
// state saved by the OS, the L2 kernels — leaf distances and directory
// MINDISTs, dense and staged — and the containment kernel run the
// assembly of kernel_amd64.s. The containment kernel compares 8 float32
// entries to a register against the bounds rounded inward to float32,
// which keeps the float64 comparison's set, and builds the keep list from
// the mask bits without a branch. The distance kernels' lanes are
// entries, four to a register: each lane runs the Go loop's operation
// sequence in ascending dimension order (widen, subtract, multiply, add;
// never a fused multiply-add) from a +0 accumulator, so it writes the Go
// loop's bits, dropped entries' partials included, and the same keep
// list. The directory kernel takes max(lo−q, q−hi, +0) branchless, which
// squares to the branching kernel's term. Everywhere else — another
// architecture, the purego build tag, a CPU without AVX2, the L1 and
// L∞ metrics — the Go loops run; they are also the tests' oracle
// (TestKernelsMatchGo, FuzzStagedKernels), and vec.Rect.Contains and
// vec.Rect.Intersects are the containment kernel's.
package slab

import (
	"math"

	"parsearch/internal/vec"
)

// Slab is one leaf page's points: n points of dimension dim stored as
// float32, dimension-major (coordinate j of point i at data[j*n+i]), so
// the batched kernels stream each dimension's column contiguously. A
// slab is filled (Set) before it is shared and never written after: a
// leaf mutation writes a new slab.
type Slab struct {
	dim, n int
	data   []float32
}

// New returns a zeroed slab of n points for Set to fill.
func New(dim, n int) *Slab {
	return &Slab{dim: dim, n: n, data: make([]float32, dim*n)}
}

// Build packs the given points (all of dimension dim, coordinates
// float32-representable) into a slab. Build(_, nil/empty, _)
// returns nil. The third parameter is ignored: the fixed benchmark
// instrument (bench/probe.go) passes it, and ROADMAP item 9's benchmark
// PR drops it.
func Build(dim int, pts []vec.Point, _ bool) *Slab {
	if len(pts) == 0 {
		return nil
	}
	s := New(dim, len(pts))
	for i, p := range pts {
		s.Set(i, p)
	}
	return s
}

// Set writes point i's coordinates, rounded to float32.
func (s *Slab) Set(i int, p vec.Point) {
	for j, x := range p[:s.dim] {
		s.data[j*s.n+i] = float32(x)
	}
}

// SetRow writes point i's float32 coordinates as they are.
func (s *Slab) SetRow(i int, p []float32) {
	for j, x := range p[:s.dim] {
		s.data[j*s.n+i] = x
	}
}

// RowAt writes point i's float32 coordinates into p, which must have
// length Dim.
func (s *Slab) RowAt(i int, p []float32) {
	for j := range p[:s.dim] {
		p[j] = s.data[j*s.n+i]
	}
}

// Equal reports whether point i's coordinates are p's.
func (s *Slab) Equal(i int, p vec.Point) bool {
	for j, x := range p[:s.dim] {
		if float64(s.data[j*s.n+i]) != x {
			return false
		}
	}
	return true
}

// Bounds writes the page's MBR into min and max (length Dim): per
// dimension the first minimum and the first maximum in slot order, which
// is what vec.Rect.Extend makes of the points in slot order, bit for bit.
// The page must not be empty.
func (s *Slab) Bounds(min, max []float64) {
	for j := 0; j < s.dim; j++ {
		col := s.data[j*s.n : (j+1)*s.n]
		lo, hi := col[0], col[0]
		for _, v := range col[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		min[j], max[j] = float64(lo), float64(hi)
	}
}

// Len returns the number of points in the slab.
func (s *Slab) Len() int { return s.n }

// Dim returns the dimensionality of the slab's points.
func (s *Slab) Dim() int { return s.dim }

// DistsToPage computes the rank distance (vec.Metric.RankDist) from q to
// every point of the page into out[:s.Len()], one dimension-major pass
// per dimension. The per-point accumulation order is ascending dimension
// order, matching the scalar kernels bit for bit.
func (s *Slab) DistsToPage(q vec.Point, m vec.Metric, out []float64) {
	out = out[:s.n]
	clear(out)
	s.addDims(q, m, out, 0, s.dim)
}

// addDims is the dense kernel: it folds dimensions [from, to) of every
// point's rank distance into out, streaming one column per dimension.
func (s *Slab) addDims(q vec.Point, m vec.Metric, out []float64, from, to int) {
	n := s.n
	out = out[:n] // lets the compiler drop the bounds checks on out[i]
	switch m {
	case vec.L2:
		if useAVX2 && n > 0 {
			addDimsL2(&out[0], &s.data[0], &q[0], n, from, to)
			return
		}
		for j := from; j < to; j++ {
			qj := q[j]
			col := s.data[j*n : (j+1)*n]
			for i, v := range col {
				d := qj - float64(v)
				out[i] += float64(d * d)
			}
		}
	case vec.L1:
		for j := from; j < to; j++ {
			qj := q[j]
			col := s.data[j*n : (j+1)*n]
			for i, v := range col {
				out[i] += math.Abs(qj - float64(v))
			}
		}
	case vec.LInf:
		for j := from; j < to; j++ {
			qj := q[j]
			col := s.data[j*n : (j+1)*n]
			for i, v := range col {
				if d := math.Abs(qj - float64(v)); d > out[i] {
					out[i] = d
				}
			}
		}
	default:
		panic("slab: unknown metric")
	}
}

// DistsWithin is DistsToPage staged at bound: it accumulates the first
// split(Dim) dimensions of every point, keeps the points whose partial
// is not above bound, finishes only those, and returns their indices in
// ascending order, in keep's storage when it is large enough. A kept
// point's out[i] is DistsToPage's value bit for bit; a dropped point's
// out[i] is a partial above bound, and so is its full distance (see the
// package comment). An infinite bound keeps every point.
func (s *Slab) DistsWithin(q vec.Point, m vec.Metric, bound float64, out []float64, keep []int32) []int32 {
	return s.distsWithin(q, m, bound, out, keep, split(s.dim))
}

func (s *Slab) distsWithin(q vec.Point, m vec.Metric, bound float64, out []float64, keep []int32, h int) []int32 {
	out = out[:s.n]
	if m == vec.L2 && useAVX2 && s.n > 0 {
		keep = grown(keep, s.n)
		return keep[:distsWithinL2(&out[0], &keep[0], &s.data[0], &q[0], s.n, h, s.dim, bound)]
	}
	clear(out)
	s.addDims(q, m, out, 0, h)
	if keep = within(out, bound, keep); len(keep) == s.n {
		s.addDims(q, m, out, h, s.dim)
		return keep
	}
	n := s.n
	switch m {
	case vec.L2:
		for j := h; j < s.dim; j++ {
			qj := q[j]
			col := s.data[j*n : (j+1)*n]
			for _, i := range keep {
				d := qj - float64(col[i])
				out[i] += float64(d * d)
			}
		}
	case vec.L1:
		for j := h; j < s.dim; j++ {
			qj := q[j]
			col := s.data[j*n : (j+1)*n]
			for _, i := range keep {
				out[i] += math.Abs(qj - float64(col[i]))
			}
		}
	case vec.LInf:
		for j := h; j < s.dim; j++ {
			qj := q[j]
			col := s.data[j*n : (j+1)*n]
			for _, i := range keep {
				if d := math.Abs(qj - float64(col[i])); d > out[i] {
					out[i] = d
				}
			}
		}
	}
	return keep
}

// split is the number of dimensions the staged kernels accumulate for
// every entry before they drop the ones above the bound: half, rounded
// up, which was the fastest leaf split at both d = 10 and d = 16
// (BenchmarkStagedSplit).
func split(dim int) int { return (dim + 1) / 2 }

// within returns, in keep's storage when it is large enough, the index
// of every partial of out that is not above bound. A tie is kept: an
// entry at exactly the bound can still enter a k-best on its ID. The
// filter stores every index and advances only past the kept ones, so
// it does not branch on the comparison.
func within(out []float64, bound float64, keep []int32) []int32 {
	keep = grown(keep, len(out))
	k := 0
	for i, d := range out {
		keep[k] = int32(i)
		if d <= bound {
			k++
		}
	}
	return keep[:k]
}

// grown returns keep with length n, in its storage when it is large
// enough.
func grown(keep []int32, n int) []int32 {
	if cap(keep) < n {
		return make([]int32, n)
	}
	return keep[:n]
}

// PointAt writes point i's coordinates (widened to float64) into p,
// which must have length Dim.
func (s *Slab) PointAt(i int, p []float64) {
	for j := 0; j < s.dim; j++ {
		p[j] = float64(s.data[j*s.n+i])
	}
}

// Inside returns the index of every point of the page that lies inside
// [min, max] (boundary inclusive, like vec.Rect.Contains), ascending, in
// keep's storage when it is large enough. It is the containment kernel
// (see the package comment).
func (s *Slab) Inside(min, max vec.Point, keep []int32) []int32 {
	return inside(s.data, s.data, s.n, s.dim, min, max, keep)
}

// inside is the containment kernel over n entries of dimension dim whose
// extents are the dimension-major columns lower and upper: it returns
// the index of every entry with !(upper < min) and !(lower > max) in
// every dimension, ascending, in keep's storage when it is large enough.
// A point's extent is its coordinate, lower and upper alike; a
// rectangle's is its own [Min, Max]. The kernel is staged by dimension:
// the first bounded dimension keeps the entries inside its interval,
// each later one drops the kept entries outside its own, and the scan
// stops once none is left. A dimension bounded by -Inf and +Inf (a
// partial match's wildcard) holds every entry and is skipped.
func inside(lower, upper []float32, n, dim int, min, max vec.Point, keep []int32) []int32 {
	keep = grown(keep, n)
	min, max = min[:dim], max[:dim]
	if useAVX2 && n > 0 {
		return keep[:insideAVX2(&keep[0], &lower[0], &upper[0], &min[0], &max[0], n, dim)]
	}
	k := -1 // no bounded dimension scanned yet
	for j := 0; j < dim && k != 0; j++ {
		lo, hi := min[j], max[j]
		if math.IsInf(lo, -1) && math.IsInf(hi, 1) {
			continue
		}
		lowerCol, upperCol := lower[j*n:(j+1)*n], upper[j*n:(j+1)*n]
		if k < 0 {
			k = 0
			for i, u := range upperCol {
				keep[k] = int32(i)
				k += b2i(!(float64(u) < lo)) & b2i(!(float64(lowerCol[i]) > hi))
			}
			continue
		}
		m := 0
		for _, i := range keep[:k] {
			keep[m] = i
			m += b2i(!(float64(upperCol[i]) < lo)) & b2i(!(float64(lowerCol[i]) > hi))
		}
		k = m
	}
	if k < 0 {
		for i := range keep {
			keep[i] = int32(i)
		}
		return keep
	}
	return keep[:k]
}

// b2i is 1 for true and 0 for false, without a branch: the kernel's
// filters store every index and advance only past the kept ones.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// InRect reports, for every point of the page, whether it lies inside
// [min, max] into out[:s.Len()]: Inside's keep list as flags. It does
// not allocate for pages of up to 256 points.
func (s *Slab) InRect(min, max vec.Point, out []bool) {
	var buf [256]int32
	out = out[:s.n]
	clear(out)
	for _, i := range s.Inside(min, max, buf[:]) {
		out[i] = true
	}
}

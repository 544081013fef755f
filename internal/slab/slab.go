// Package slab implements the packed storage layout of the engine: one
// contiguous float32 slab per X-tree page, laid out dimension-major, with
// batched distance kernels that compute all distances of a page in one
// tight loop.
//
// Exactness contract: packed mode rounds every coordinate to float32 at
// ingest, so the float64 value stored in the tree is float32-representable
// and the slab's float32 copy is lossless. The batched kernels widen each
// float32 back to float64 and accumulate per point in ascending dimension
// order — the same floating-point operation sequence as the scalar
// vec.Metric.RankDist — so batched and scalar distances are bitwise
// identical, and the packed engine returns byte-identical results to the
// float64 reference path.
package slab

import (
	"math"

	"parsearch/internal/vec"
)

// Slab is the packed payload of one leaf page: n points of dimension dim
// stored dimension-major (coordinate j of point i at data[j*n+i]), so
// the batched kernels stream each dimension's column contiguously. A Slab
// is immutable after Build; leaf mutations rebuild the slab.
type Slab struct {
	dim, n int
	data   []float32
}

// Build packs the given points (all of dimension dim, coordinates
// float32-representable) into a slab. Build(_, nil/empty, _) returns nil.
// The third parameter is ignored: the fixed benchmark instrument
// (bench/probe.go) passes it, and ROADMAP item 9's benchmark PR drops it.
func Build(dim int, pts []vec.Point, _ bool) *Slab {
	n := len(pts)
	if n == 0 {
		return nil
	}
	s := &Slab{dim: dim, n: n, data: make([]float32, dim*n)}
	for j := 0; j < dim; j++ {
		col := s.data[j*n : (j+1)*n]
		for i, p := range pts {
			col[i] = float32(p[j])
		}
	}
	return s
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
	n := s.n
	out = out[:n]
	for i := range out {
		out[i] = 0
	}
	switch m {
	case vec.L2:
		for j := 0; j < s.dim; j++ {
			qj := q[j]
			col := s.data[j*n : (j+1)*n]
			for i, v := range col {
				d := qj - float64(v)
				out[i] += d * d
			}
		}
	case vec.L1:
		for j := 0; j < s.dim; j++ {
			qj := q[j]
			col := s.data[j*n : (j+1)*n]
			for i, v := range col {
				out[i] += math.Abs(qj - float64(v))
			}
		}
	case vec.LInf:
		for j := 0; j < s.dim; j++ {
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

// DistTo computes the rank distance from q to point i alone (strided
// column access), bitwise identical to the batched kernel's out[i].
func (s *Slab) DistTo(i int, q vec.Point, m vec.Metric) float64 {
	n := s.n
	switch m {
	case vec.L2:
		var sum float64
		for j := 0; j < s.dim; j++ {
			d := q[j] - float64(s.data[j*n+i])
			sum += d * d
		}
		return sum
	case vec.L1:
		var sum float64
		for j := 0; j < s.dim; j++ {
			sum += math.Abs(q[j] - float64(s.data[j*n+i]))
		}
		return sum
	case vec.LInf:
		var sum float64
		for j := 0; j < s.dim; j++ {
			if d := math.Abs(q[j] - float64(s.data[j*n+i])); d > sum {
				sum = d
			}
		}
		return sum
	default:
		panic("slab: unknown metric")
	}
}

// InRect reports, for every point of the page, whether it lies inside
// [min, max] (boundary inclusive, like vec.Rect.Contains) into
// out[:s.Len()].
func (s *Slab) InRect(min, max vec.Point, out []bool) {
	n := s.n
	out = out[:n]
	for i := range out {
		out[i] = true
	}
	for j := 0; j < s.dim; j++ {
		lo, hi := min[j], max[j]
		col := s.data[j*n : (j+1)*n]
		for i, v := range col {
			f := float64(v)
			if f < lo || f > hi {
				out[i] = false
			}
		}
	}
}

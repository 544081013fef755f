package slab

import "parsearch/internal/vec"

// RectSlab is the packed form of a directory page: the n child MBRs
// stored as dimension-major float32 min/max columns, so the batched
// MINDIST kernel streams two contiguous columns per dimension. MBR
// coordinates are coordinates of stored points, which the index rounds
// to float32 at ingest, so the float32 copy is lossless and the batched
// MINDIST matches vec.Metric.RankMinDist bit for bit.
type RectSlab struct {
	dim, n   int
	min, max []float32
}

// BuildRects packs the given rectangles (all of dimension dim). Returns
// nil for an empty input.
func BuildRects(dim int, rects []vec.Rect) *RectSlab {
	n := len(rects)
	if n == 0 {
		return nil
	}
	rs := &RectSlab{dim: dim, n: n,
		min: make([]float32, dim*n), max: make([]float32, dim*n)}
	for j := 0; j < dim; j++ {
		minCol := rs.min[j*n : (j+1)*n]
		maxCol := rs.max[j*n : (j+1)*n]
		for i := range rects {
			minCol[i] = float32(rects[i].Min[j])
			maxCol[i] = float32(rects[i].Max[j])
		}
	}
	return rs
}

// Grown returns a copy of the slab with room for n >= Len rectangles:
// the first Len are the slab's, the rest zero for Set to fill. A slab
// that a tree version may share is copied so, never written.
func (rs *RectSlab) Grown(n int) *RectSlab {
	cols := make([]float32, 2*rs.dim*n)
	c := &RectSlab{dim: rs.dim, n: n, min: cols[:rs.dim*n], max: cols[rs.dim*n:]}
	for j := 0; j < rs.dim; j++ {
		copy(c.min[j*n:], rs.min[j*rs.n:(j+1)*rs.n])
		copy(c.max[j*n:], rs.max[j*rs.n:(j+1)*rs.n])
	}
	return c
}

// Set writes rectangle i's bounds, rounded to float32.
func (rs *RectSlab) Set(i int, r vec.Rect) {
	for j := 0; j < rs.dim; j++ {
		rs.min[j*rs.n+i] = float32(r.Min[j])
		rs.max[j*rs.n+i] = float32(r.Max[j])
	}
}

// Len returns the number of rectangles in the slab.
func (rs *RectSlab) Len() int { return rs.n }

// RectAt writes rectangle i's bounds (widened to float64) into min and
// max, which must have length Dim. Used by invariant checks to compare
// the packed copy against the source rectangles.
func (rs *RectSlab) RectAt(i int, min, max []float64) {
	for j := 0; j < rs.dim; j++ {
		min[j] = float64(rs.min[j*rs.n+i])
		max[j] = float64(rs.max[j*rs.n+i])
	}
}

// Meets returns the index of every rectangle of the page that shares a
// point with [min, max] (like vec.Rect.Intersects), ascending, in keep's
// storage when it is large enough: the containment kernel (see the
// package comment) over the rectangles' extents.
func (rs *RectSlab) Meets(min, max vec.Point, keep []int32) []int32 {
	return inside(rs.min, rs.max, rs.n, rs.dim, min, max, keep)
}

// MinDistsToPage computes the rank MINDIST (vec.Metric.RankMinDist) from
// q to every rectangle of the page into out[:rs.Len()], accumulating per
// rectangle in ascending dimension order exactly like the scalar kernel.
func (rs *RectSlab) MinDistsToPage(q vec.Point, m vec.Metric, out []float64) {
	out = out[:rs.n]
	clear(out)
	rs.addDims(q, m, out, 0, rs.dim)
}

// addDims is the dense MINDIST kernel: it folds dimensions [from, to) of
// every rectangle's rank MINDIST into out.
func (rs *RectSlab) addDims(q vec.Point, m vec.Metric, out []float64, from, to int) {
	n := rs.n
	out = out[:n] // lets the compiler drop the bounds checks on out[i]
	switch m {
	case vec.L2:
		if useAVX2 && n > 0 {
			addMinDimsL2(&out[0], &rs.min[0], &rs.max[0], &q[0], n, from, to)
			return
		}
		for j := from; j < to; j++ {
			qj := q[j]
			minCol := rs.min[j*n : (j+1)*n]
			maxCol := rs.max[j*n : (j+1)*n]
			for i := range minCol {
				switch lo, hi := float64(minCol[i]), float64(maxCol[i]); {
				case qj < lo:
					d := lo - qj
					out[i] += float64(d * d)
				case qj > hi:
					d := qj - hi
					out[i] += float64(d * d)
				}
			}
		}
	case vec.L1:
		for j := from; j < to; j++ {
			qj := q[j]
			minCol := rs.min[j*n : (j+1)*n]
			maxCol := rs.max[j*n : (j+1)*n]
			for i := range minCol {
				switch lo, hi := float64(minCol[i]), float64(maxCol[i]); {
				case qj < lo:
					out[i] += lo - qj
				case qj > hi:
					out[i] += qj - hi
				}
			}
		}
	case vec.LInf:
		for j := from; j < to; j++ {
			qj := q[j]
			minCol := rs.min[j*n : (j+1)*n]
			maxCol := rs.max[j*n : (j+1)*n]
			for i := range minCol {
				var d float64
				switch lo, hi := float64(minCol[i]), float64(maxCol[i]); {
				case qj < lo:
					d = lo - qj
				case qj > hi:
					d = qj - hi
				}
				if d > out[i] {
					out[i] = d
				}
			}
		}
	default:
		panic("slab: unknown metric")
	}
}

// MinDistsWithin is MinDistsToPage staged at bound, with the contract of
// Slab.DistsWithin: a kept rectangle's out[i] is MinDistsToPage's value
// bit for bit, a dropped one's is a partial MINDIST above bound — a
// smaller but still valid lower bound on its MINDIST.
func (rs *RectSlab) MinDistsWithin(q vec.Point, m vec.Metric, bound float64, out []float64, keep []int32) []int32 {
	return rs.minDistsWithin(q, m, bound, out, keep, split(rs.dim))
}

func (rs *RectSlab) minDistsWithin(q vec.Point, m vec.Metric, bound float64, out []float64, keep []int32, h int) []int32 {
	out = out[:rs.n]
	if m == vec.L2 && useAVX2 && rs.n > 0 {
		keep = grown(keep, rs.n)
		return keep[:minDistsWithinL2(&out[0], &keep[0], &rs.min[0], &rs.max[0], &q[0], rs.n, h, rs.dim, bound)]
	}
	clear(out)
	rs.addDims(q, m, out, 0, h)
	if keep = within(out, bound, keep); len(keep) == rs.n {
		rs.addDims(q, m, out, h, rs.dim)
		return keep
	}
	n := rs.n
	for j := h; j < rs.dim; j++ {
		qj := q[j]
		minCol := rs.min[j*n : (j+1)*n]
		maxCol := rs.max[j*n : (j+1)*n]
		for _, i := range keep {
			var d float64
			switch lo, hi := float64(minCol[i]), float64(maxCol[i]); {
			case qj < lo:
				d = lo - qj
			case qj > hi:
				d = qj - hi
			default:
				continue
			}
			switch m {
			case vec.L2:
				out[i] += float64(d * d)
			case vec.L1:
				out[i] += d
			case vec.LInf:
				out[i] = max(out[i], d)
			}
		}
	}
	return keep
}

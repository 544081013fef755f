package core

import (
	"fmt"

	"parsearch/internal/quantile"
	"parsearch/internal/vec"
)

// Bucketer maps points to quadrant bucket numbers. The plain Splitter uses
// fixed split values; AdaptiveSplitter tracks the data distribution and
// moves its splits to the α-quantile (paper §4.3).
type Bucketer interface {
	// Dim returns the dimensionality of the data space.
	Dim() int
	// Bucket returns the quadrant bucket of p: bit i is set iff p lies
	// above the split value of dimension i.
	Bucket(p vec.Point) Bucket
}

// Splitter buckets points against fixed per-dimension split values.
type Splitter struct {
	splits []float64
}

// NewMidpointSplitter splits every dimension of the unit data space at 0.5,
// the paper's default for uniformly distributed data.
func NewMidpointSplitter(d int) *Splitter {
	checkDim(d)
	s := make([]float64, d)
	for i := range s {
		s[i] = 0.5
	}
	return &Splitter{splits: s}
}

// NewSplitter uses the given per-dimension split values.
func NewSplitter(splits []float64) *Splitter {
	checkDim(len(splits))
	c := make([]float64, len(splits))
	copy(c, splits)
	return &Splitter{splits: c}
}

// NewQuantileSplitter splits each dimension at the α-quantile of the given
// points, the paper's first extension for skewed data: with α = 0.5 both
// sides of every split carry the same number of points. The splits do not
// depend on the order of the points. It panics if no points are given.
func NewQuantileSplitter(points []vec.Point, alpha float64) *Splitter {
	if len(points) == 0 {
		panic("core: NewQuantileSplitter with no points")
	}
	d := len(points[0])
	checkDim(d)
	splits := make([]float64, d)
	col := make([]float64, len(points))
	for i := range splits {
		for j, p := range points {
			col[j] = p[i]
		}
		splits[i] = QuantileSplit(col, alpha)
	}
	return &Splitter{splits: splits}
}

// QuantileSplit returns the split NewQuantileSplitter places in a
// dimension whose coordinates, in any order, are col (not empty): their
// α-quantile. The order statistics are the same values in any order of
// the points, but of equal values selection keeps whichever it met
// first: a zero split is +0, so that no split depends on the order the
// points come in.
func QuantileSplit(col []float64, alpha float64) float64 {
	s := quantile.Exact(col, alpha)
	if s == 0 {
		s = 0
	}
	return s
}

// Dim implements Bucketer.
func (s *Splitter) Dim() int { return len(s.splits) }

// Splits returns a copy of the split values.
func (s *Splitter) Splits() []float64 {
	c := make([]float64, len(s.splits))
	copy(c, s.splits)
	return c
}

// Bucket implements Bucketer.
func (s *Splitter) Bucket(p vec.Point) Bucket {
	if len(p) != len(s.splits) {
		panic(fmt.Sprintf("core: %d-dimensional point bucketed by %d-dimensional splitter", len(p), len(s.splits)))
	}
	var b Bucket
	for i, split := range s.splits {
		if p[i] > split {
			b |= 1 << uint(i)
		}
	}
	return b
}

// QuadrantRect returns the region of the quadrant b within the unit cube
// under the given per-dimension split values: dimension i spans
// [splits[i], 1] when bit i of b is set and [0, splits[i]] otherwise.
func QuadrantRect(b Bucket, splits []float64) vec.Rect {
	d := len(splits)
	checkDim(d)
	r := vec.Rect{Min: make([]float64, d), Max: make([]float64, d)}
	for i, s := range splits {
		if b.Coord(i) == 1 {
			r.Min[i], r.Max[i] = s, 1
		} else {
			r.Min[i], r.Max[i] = 0, s
		}
	}
	return r
}

// AdaptiveSplitter implements the dynamic α-quantile adaptation of §4.3:
// it buckets against its current split values while recording the observed
// distribution (streaming P² quantile estimators plus below/above
// counters). When the load ratio of some dimension exceeds the imbalance
// threshold, NeedsRebalance reports true and Rebalance adopts the estimated
// quantiles as the new split values — the reorganization step of the paper.
type AdaptiveSplitter struct {
	splits    []float64
	est       []*quantile.P2
	below     []int
	above     []int
	threshold float64
}

// NewAdaptiveSplitter returns an adaptive splitter for d dimensions that
// targets the alpha-quantile and tolerates a below/above imbalance ratio up
// to threshold (e.g. 2 means: rebalance when one side of a split holds more
// than twice the points of the other). Initial splits are the midpoints.
func NewAdaptiveSplitter(d int, alpha, threshold float64) *AdaptiveSplitter {
	checkDim(d)
	if threshold < 1 {
		panic(fmt.Sprintf("core: imbalance threshold %v < 1", threshold))
	}
	a := &AdaptiveSplitter{
		splits:    make([]float64, d),
		est:       make([]*quantile.P2, d),
		below:     make([]int, d),
		above:     make([]int, d),
		threshold: threshold,
	}
	for i := 0; i < d; i++ {
		a.splits[i] = 0.5
		a.est[i] = quantile.NewP2(alpha)
	}
	return a
}

// Dim implements Bucketer.
func (a *AdaptiveSplitter) Dim() int { return len(a.splits) }

// Splits returns a copy of the current split values.
func (a *AdaptiveSplitter) Splits() []float64 {
	c := make([]float64, len(a.splits))
	copy(c, a.splits)
	return c
}

// Observe records one data point in the distribution statistics. Call it
// for every inserted point; it does not change the current splits.
func (a *AdaptiveSplitter) Observe(p vec.Point) {
	if len(p) != len(a.splits) {
		panic(fmt.Sprintf("core: %d-dimensional point observed by %d-dimensional splitter", len(p), len(a.splits)))
	}
	for i, x := range p {
		a.est[i].Add(x)
		if x > a.splits[i] {
			a.above[i]++
		} else {
			a.below[i]++
		}
	}
}

// Bucket implements Bucketer using the current split values.
func (a *AdaptiveSplitter) Bucket(p vec.Point) Bucket {
	if len(p) != len(a.splits) {
		panic(fmt.Sprintf("core: %d-dimensional point bucketed by %d-dimensional splitter", len(p), len(a.splits)))
	}
	var b Bucket
	for i, split := range a.splits {
		if p[i] > split {
			b |= 1 << uint(i)
		}
	}
	return b
}

// NeedsRebalance reports whether any dimension's below/above ratio exceeds
// the threshold. With fewer than two observations it reports false.
func (a *AdaptiveSplitter) NeedsRebalance() bool {
	for i := range a.splits {
		lo, hi := a.below[i], a.above[i]
		if lo+hi < 2 {
			continue
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == 0 || float64(hi)/float64(lo) > a.threshold {
			return true
		}
	}
	return false
}

// Rebalance adopts the estimated quantiles as the new split values, resets
// the counters, and returns the new splits. The caller must redistribute
// the stored data afterwards (the paper's reorganization).
func (a *AdaptiveSplitter) Rebalance() []float64 {
	for i := range a.splits {
		if a.est[i].Count() > 0 {
			a.splits[i] = a.est[i].Value()
		}
		a.below[i] = 0
		a.above[i] = 0
	}
	return a.Splits()
}

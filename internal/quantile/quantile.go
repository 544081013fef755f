// Package quantile provides quantile estimation for the α-quantile split
// extension of the declustering technique (paper §4.3): instead of splitting
// every dimension at the midpoint 0.5, skewed data is split at the
// α-quantile of each dimension so that both half-spaces carry comparable
// load.
//
// Two estimators are provided: Exact, over a retained sample, and P2, the
// constant-space streaming estimator of Jain and Chlamtac (CACM 1985) that
// supports the paper's dynamic adaptation ("we dynamically adapt the
// 0.5-quantile by recording the distribution") without retaining the data.
package quantile

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Exact returns the q-quantile (0 <= q <= 1) of the values using linear
// interpolation between order statistics. It copies the input and selects
// the two adjacent order statistics it needs instead of sorting the copy.
// It panics on an empty input or a q outside [0, 1].
func Exact(values []float64, q float64) float64 {
	if len(values) == 0 {
		panic("quantile: Exact of no values")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("quantile: q = %v outside [0, 1]", q))
	}
	s := make([]float64, len(values))
	hasNaN := false
	for i, v := range values {
		s[i] = v
		hasNaN = hasNaN || v != v
	}
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hasNaN {
		// sort.Float64s orders NaNs first; < alone orders nothing
		// around them, so selection does not apply.
		sort.Float64s(s)
	} else {
		selectRank(s, lo, 4*bits.Len(uint(len(s))))
		if hi > lo {
			// Everything right of rank lo is no smaller than it; the
			// next order statistic is the least of that.
			s[hi] = slices.Min(s[hi:])
		}
	}
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// selectRank reorders s, which holds no NaN, so that s[k] is the value a
// sort would put there, nothing left of it is larger and nothing right of
// it smaller: quickselect with a median-of-three pivot. After budget
// rounds — reached only when the pivots keep landing at the edge — the
// rest is sorted, so with a logarithmic budget no input costs more than
// O(n log n).
func selectRank(s []float64, k, budget int) {
	lo, hi := 0, len(s)-1
	for ; lo < hi; budget-- {
		if budget <= 0 {
			sort.Float64s(s[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for pivot < s[j] {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[lo..j] <= pivot <= s[i..hi] and j < i; anything between
		// equals the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// P2 is the P² streaming quantile estimator. It maintains five markers and
// adjusts them with parabolic interpolation as observations arrive, using
// O(1) space regardless of stream length.
type P2 struct {
	q       float64    // target quantile
	n       int        // observations seen
	heights [5]float64 // marker heights
	pos     [5]float64 // actual marker positions (1-based)
	want    [5]float64 // desired marker positions
	incr    [5]float64 // desired position increments
	initial []float64  // first five observations, pre-initialization
}

// NewP2 returns a streaming estimator for the q-quantile. It panics if q is
// outside (0, 1).
func NewP2(q float64) *P2 {
	if q <= 0 || q >= 1 {
		panic(fmt.Sprintf("quantile: P2 target %v outside (0, 1)", q))
	}
	p := &P2{q: q}
	p.want = [5]float64{1, 1 + 2*q, 1 + 4*q, 3 + 2*q, 5}
	p.incr = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return p
}

// Target returns the quantile this estimator tracks.
func (p *P2) Target() float64 { return p.q }

// Count returns the number of observations added so far.
func (p *P2) Count() int { return p.n }

// Add feeds one observation to the estimator.
func (p *P2) Add(x float64) {
	p.n++
	if len(p.initial) < 5 {
		p.initial = append(p.initial, x)
		if len(p.initial) == 5 {
			sort.Float64s(p.initial)
			for i := 0; i < 5; i++ {
				p.heights[i] = p.initial[i]
				p.pos[i] = float64(i + 1)
			}
		}
		return
	}

	// Find the cell containing x and update extreme markers.
	var k int
	switch {
	case x < p.heights[0]:
		p.heights[0] = x
		k = 0
	case x >= p.heights[4]:
		p.heights[4] = x
		k = 3
	default:
		for i := 1; i < 5; i++ {
			if x < p.heights[i] {
				k = i - 1
				break
			}
		}
	}

	// Shift positions of markers above the cell.
	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	for i := 0; i < 5; i++ {
		p.want[i] += p.incr[i]
	}

	// Adjust interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := p.want[i] - p.pos[i]
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			h := p.parabolic(i, sign)
			if p.heights[i-1] < h && h < p.heights[i+1] {
				p.heights[i] = h
			} else {
				p.heights[i] = p.linear(i, sign)
			}
			p.pos[i] += sign
		}
	}
}

func (p *P2) parabolic(i int, d float64) float64 {
	return p.heights[i] + d/(p.pos[i+1]-p.pos[i-1])*
		((p.pos[i]-p.pos[i-1]+d)*(p.heights[i+1]-p.heights[i])/(p.pos[i+1]-p.pos[i])+
			(p.pos[i+1]-p.pos[i]-d)*(p.heights[i]-p.heights[i-1])/(p.pos[i]-p.pos[i-1]))
}

func (p *P2) linear(i int, d float64) float64 {
	j := i + int(d)
	return p.heights[i] + d*(p.heights[j]-p.heights[i])/(p.pos[j]-p.pos[i])
}

// Value returns the current estimate of the target quantile. Before five
// observations have been seen it falls back to the exact quantile of the
// observations so far; with no observations it returns 0.
func (p *P2) Value() float64 {
	if p.n == 0 {
		return 0
	}
	if len(p.initial) < 5 {
		return Exact(p.initial, p.q)
	}
	return p.heights[2]
}

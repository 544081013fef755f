package vec

import (
	"fmt"
	"math"
)

// The search algorithms order candidates by "rank distance": a value
// that sorts identically to the metric distance but is cheaper to
// compute — the squared distance for L2, the plain distance for L1 and
// L∞. RankDist/RankMinDist produce rank distances and FromRank converts
// them back.

// RankDist returns the rank distance between two points under m.
func (m Metric) RankDist(a, b Point) float64 {
	switch m {
	case L2:
		return SqDist(a, b)
	case L1, LInf:
		return m.Dist(a, b)
	default:
		panic(fmt.Sprintf("vec: unknown metric %d", int(m)))
	}
}

// RankMinDist returns the rank distance from q to the closest point of
// r under m (zero when q lies inside r) — MINDIST generalized to the
// Minkowski metrics.
func (m Metric) RankMinDist(r Rect, q Point) float64 {
	switch m {
	case L2:
		return r.SqMinDist(q)
	case L1:
		var s float64
		for i := range r.Min {
			switch {
			case q[i] < r.Min[i]:
				s += r.Min[i] - q[i]
			case q[i] > r.Max[i]:
				s += q[i] - r.Max[i]
			}
		}
		return s
	case LInf:
		var s float64
		for i := range r.Min {
			var d float64
			switch {
			case q[i] < r.Min[i]:
				d = r.Min[i] - q[i]
			case q[i] > r.Max[i]:
				d = q[i] - r.Max[i]
			}
			if d > s {
				s = d
			}
		}
		return s
	default:
		panic(fmt.Sprintf("vec: unknown metric %d", int(m)))
	}
}

// FromRank converts a rank distance back to the metric distance.
func (m Metric) FromRank(v float64) float64 {
	if m == L2 {
		return math.Sqrt(v)
	}
	return v
}

// ToRank converts a metric distance to a rank distance.
func (m Metric) ToRank(v float64) float64 {
	if m == L2 {
		return v * v
	}
	return v
}

// ToRankCeil returns the largest rank distance r with FromRank(r) <= v:
// the rank-space radius of the metric ball of radius v. ToRank alone may
// round below it (under L2 several squared distances share one square
// root), which would put a point at metric distance exactly v outside
// the ball.
func (m Metric) ToRankCeil(v float64) float64 {
	r := m.ToRank(v)
	for next := math.Nextafter(r, math.Inf(1)); m.FromRank(next) <= v; next = math.Nextafter(r, math.Inf(1)) {
		r = next
	}
	return r
}

package vec

import (
	"math"
	"math/rand"
	"testing"
)

// RankDist must order pairs exactly like Dist.
func TestRankDistOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, m := range []Metric{L2, L1, LInf} {
		for trial := 0; trial < 500; trial++ {
			d := 1 + r.Intn(8)
			q := randPoint(r, d)
			a := randPoint(r, d)
			b := randPoint(r, d)
			dOrder := m.Dist(q, a) < m.Dist(q, b)
			rOrder := m.RankDist(q, a) < m.RankDist(q, b)
			if dOrder != rOrder {
				t.Fatalf("%v: rank order disagrees with metric order", m)
			}
		}
	}
}

// FromRank inverts ToRank and recovers the metric distance from the rank
// distance.
func TestRankConversions(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, m := range []Metric{L2, L1, LInf} {
		for trial := 0; trial < 200; trial++ {
			d := 1 + r.Intn(6)
			a, b := randPoint(r, d), randPoint(r, d)
			dist := m.Dist(a, b)
			if got := m.FromRank(m.RankDist(a, b)); math.Abs(got-dist) > 1e-12 {
				t.Fatalf("%v: FromRank(RankDist) = %v, want %v", m, got, dist)
			}
			if got := m.FromRank(m.ToRank(dist)); math.Abs(got-dist) > 1e-12 {
				t.Fatalf("%v: FromRank(ToRank) = %v, want %v", m, got, dist)
			}
		}
	}
}

// ToRankCeil is the rank-space radius of the metric ball: a rank distance
// survives the trip through the metric distance it is reported as — which
// ToRank alone does not guarantee under L2 — and the next rank up lies
// outside the ball.
func TestToRankCeilRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	roundedBelow := 0
	for _, m := range []Metric{L2, L1, LInf} {
		for trial := 0; trial < 20000; trial++ {
			rank := r.Float64() * 4
			dist := m.FromRank(rank)
			ceil := m.ToRankCeil(dist)
			if ceil < rank {
				t.Fatalf("%v: ToRankCeil(FromRank(%v)) = %v, below the rank itself", m, rank, ceil)
			}
			if m.FromRank(ceil) > dist || m.FromRank(math.Nextafter(ceil, math.Inf(1))) <= dist {
				t.Fatalf("%v: ToRankCeil(%v) = %v is not the last rank inside the ball", m, dist, ceil)
			}
			if m.ToRank(dist) < rank {
				roundedBelow++
			}
		}
	}
	if roundedBelow == 0 {
		t.Error("ToRank(FromRank(x)) never rounded below x: the test no longer shows why the ceiling is needed")
	}
	for _, m := range []Metric{L2, L1, LInf} {
		if got := m.ToRankCeil(0); got != 0 {
			t.Errorf("%v: ToRankCeil(0) = %v", m, got)
		}
	}
}

// RankMinDist is a valid lower bound: for every point p inside the
// rectangle, RankMinDist(r, q) <= RankDist(q, p); and it is tight at the
// closest point.
func TestRankMinDistLowerBound(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, m := range []Metric{L2, L1, LInf} {
		for trial := 0; trial < 500; trial++ {
			d := 1 + r.Intn(6)
			rect := randRect(r, d)
			q := randPoint(r, d)
			p := make(Point, d)
			closest := make(Point, d)
			for j := range p {
				p[j] = rect.Min[j] + r.Float64()*(rect.Max[j]-rect.Min[j])
				closest[j] = math.Max(rect.Min[j], math.Min(rect.Max[j], q[j]))
			}
			if min := m.RankMinDist(rect, q); min > m.RankDist(q, p)+1e-12 {
				t.Fatalf("%v: RankMinDist %v > RankDist %v", m, min, m.RankDist(q, p))
			}
			want := m.RankDist(q, closest)
			if got := m.RankMinDist(rect, q); math.Abs(got-want) > 1e-9 {
				t.Fatalf("%v: RankMinDist %v, closest-point distance %v", m, got, want)
			}
		}
	}
}

func TestRankMinDistInsideIsZero(t *testing.T) {
	rect := NewRect(Point{0, 0}, Point{1, 1})
	for _, m := range []Metric{L2, L1, LInf} {
		if got := m.RankMinDist(rect, Point{0.3, 0.8}); got != 0 {
			t.Errorf("%v: inside point has RankMinDist %v", m, got)
		}
	}
}

func TestRankMinDistKnownValues(t *testing.T) {
	rect := NewRect(Point{1, 1}, Point{2, 2})
	q := Point{0, 0}
	if got := L1.RankMinDist(rect, q); got != 2 {
		t.Errorf("L1 = %v, want 2", got)
	}
	if got := LInf.RankMinDist(rect, q); got != 1 {
		t.Errorf("Linf = %v, want 1", got)
	}
	if got := L2.RankMinDist(rect, q); got != 2 { // squared sqrt(2)^2
		t.Errorf("L2 rank = %v, want 2", got)
	}
}

func TestRankPanicsOnUnknownMetric(t *testing.T) {
	for name, f := range map[string]func(){
		"RankDist":    func() { Metric(9).RankDist(Point{0}, Point{1}) },
		"RankMinDist": func() { Metric(9).RankMinDist(NewRect(Point{0}, Point{1}), Point{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

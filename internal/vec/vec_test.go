package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randPoint(r *rand.Rand, d int) Point {
	p := make(Point, d)
	for i := range p {
		p[i] = r.Float64()
	}
	return p
}

func randRect(r *rand.Rand, d int) Rect {
	a := randPoint(r, d)
	b := randPoint(r, d)
	for i := range a {
		if a[i] > b[i] {
			a[i], b[i] = b[i], a[i]
		}
	}
	return Rect{Min: a, Max: b}
}

func TestMetricsKnownValues(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	tests := []struct {
		m    Metric
		want float64
	}{
		{L2, 5},
		{L1, 7},
		{LInf, 4},
	}
	for _, tt := range tests {
		if got := tt.m.Dist(a, b); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("%v.Dist = %v, want %v", tt.m, got, tt.want)
		}
	}
	if got := SqDist(a, b); got != 25 {
		t.Errorf("SqDist = %v, want 25", got)
	}
	if got := Dist(a, b); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestMetricString(t *testing.T) {
	if L2.String() != "L2" || L1.String() != "L1" || LInf.String() != "Linf" {
		t.Errorf("unexpected metric names: %v %v %v", L2, L1, LInf)
	}
	if Metric(99).String() != "Metric(99)" {
		t.Errorf("unexpected fallback name %v", Metric(99))
	}
}

func TestMetricAxioms(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, m := range []Metric{L2, L1, LInf} {
		for i := 0; i < 200; i++ {
			d := 1 + r.Intn(10)
			a, b, c := randPoint(r, d), randPoint(r, d), randPoint(r, d)
			if m.Dist(a, a) != 0 {
				t.Fatalf("%v: d(a,a) != 0", m)
			}
			if math.Abs(m.Dist(a, b)-m.Dist(b, a)) > 1e-12 {
				t.Fatalf("%v: not symmetric", m)
			}
			if m.Dist(a, c) > m.Dist(a, b)+m.Dist(b, c)+1e-12 {
				t.Fatalf("%v: triangle inequality violated", m)
			}
		}
	}
}

func TestUnknownMetricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown metric")
		}
	}()
	Metric(42).Dist(Point{0}, Point{1})
}

func TestCloneAndEqual(t *testing.T) {
	p := Point{1, 2, 3}
	q := Clone(p)
	if !Equal(p, q) {
		t.Fatal("clone not equal")
	}
	q[0] = 9
	if Equal(p, q) {
		t.Fatal("clone shares memory")
	}
	if Equal(Point{1}, Point{1, 2}) {
		t.Fatal("points of different dimension compare equal")
	}
}

func TestFormat(t *testing.T) {
	if got := Format(Point{0.25, 0.5}, 2); got != "(0.25, 0.50)" {
		t.Errorf("Format = %q", got)
	}
}

func TestNewRectValidation(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{1, 2})
	if !r.Valid() || r.Dim() != 2 {
		t.Fatalf("unexpected rect %v", r)
	}
	for _, tc := range []struct{ min, max Point }{
		{Point{0}, Point{0, 1}},
		{Point{2, 0}, Point{1, 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRect(%v, %v): expected panic", tc.min, tc.max)
				}
			}()
			NewRect(tc.min, tc.max)
		}()
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{2, 4})
	if got := r.Area(); got != 8 {
		t.Errorf("Area = %v, want 8", got)
	}
	if got := r.Margin(); got != 6 {
		t.Errorf("Margin = %v, want 6", got)
	}
	if c := r.Center(); !Equal(c, Point{1, 2}) {
		t.Errorf("Center = %v", c)
	}
	if !r.Contains(Point{1, 1}) || r.Contains(Point{3, 1}) {
		t.Error("Contains wrong")
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{2, 4}) {
		t.Error("boundary should be inclusive")
	}
	s := NewRect(Point{1, 1}, Point{3, 3})
	if !r.Intersects(s) {
		t.Error("should intersect")
	}
	if r.ContainsRect(s) {
		t.Error("should not contain")
	}
	if !r.ContainsRect(NewRect(Point{0.5, 1}, Point{1, 2})) {
		t.Error("should contain")
	}
	u := r.Union(s)
	if !Equal(u.Min, Point{0, 0}) || !Equal(u.Max, Point{3, 4}) {
		t.Errorf("Union = %v", u)
	}
	if got := r.OverlapArea(s); got != 2 {
		t.Errorf("OverlapArea = %v, want 2", got)
	}
	inter, ok := r.Intersection(s)
	if !ok || !Equal(inter.Min, Point{1, 1}) || !Equal(inter.Max, Point{2, 3}) {
		t.Errorf("Intersection = %v ok=%v", inter, ok)
	}
	far := NewRect(Point{10, 10}, Point{11, 11})
	if _, ok := r.Intersection(far); ok {
		t.Error("disjoint rects should not intersect")
	}
	if r.OverlapArea(far) != 0 {
		t.Error("disjoint overlap should be 0")
	}
	if r.Intersects(far) {
		t.Error("disjoint rects report Intersects")
	}
}

func TestUnitCube(t *testing.T) {
	c := UnitCube(3)
	if c.Area() != 1 || !c.Contains(Point{0.5, 0.5, 0.5}) {
		t.Errorf("UnitCube wrong: %v", c)
	}
}

func TestPointRectAndMBR(t *testing.T) {
	p := Point{0.3, 0.7}
	pr := PointRect(p)
	if pr.Area() != 0 || !pr.Contains(p) {
		t.Errorf("PointRect wrong: %v", pr)
	}
	pts := []Point{{0, 1}, {1, 0}, {0.5, 0.5}}
	m := MBR(pts)
	if !Equal(m.Min, Point{0, 0}) || !Equal(m.Max, Point{1, 1}) {
		t.Errorf("MBR = %v", m)
	}
	defer func() {
		if recover() == nil {
			t.Error("MBR of empty slice should panic")
		}
	}()
	MBR(nil)
}

func TestMinDistKnownValues(t *testing.T) {
	r := NewRect(Point{1, 1}, Point{2, 2})
	tests := []struct {
		q    Point
		want float64
	}{
		{Point{1.5, 1.5}, 0},      // inside
		{Point{0, 1.5}, 1},        // left of
		{Point{3, 1.5}, 1},        // right of
		{Point{0, 0}, math.Sqrt2}, // corner
		{Point{1, 1}, 0},          // on boundary
		{Point{2.5, 2.5}, math.Sqrt(0.5)},
	}
	for _, tt := range tests {
		if got := r.MinDist(tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("MinDist(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestMaxDistKnownValues(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{1, 1})
	if got := r.MaxDist(Point{0, 0}); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("MaxDist = %v, want sqrt(2)", got)
	}
	if got := r.MaxDist(Point{0.5, 0.5}); math.Abs(got-math.Sqrt(0.5)) > 1e-12 {
		t.Errorf("MaxDist from center = %v", got)
	}
}

func TestMinMaxDistKnownValue(t *testing.T) {
	// Unit square, query at origin: MINMAXDIST is the distance to the
	// farthest point of the nearest face = 1 (e.g. point (0,1) via face
	// x=0 ... min over k of sqrt(near_k^2 + far_rest^2) = sqrt(0+1) = 1.
	r := NewRect(Point{0, 0}, Point{1, 1})
	if got := r.MinMaxDist(Point{0, 0}); math.Abs(got-1) > 1e-12 {
		t.Errorf("MinMaxDist = %v, want 1", got)
	}
}

// Property: MINDIST <= dist(q, p) for every p in r, and
// dist(q, p) <= MAXDIST. MINMAXDIST lies between MINDIST and MAXDIST.
func TestDistBoundsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		d := 1 + r.Intn(8)
		rect := randRect(r, d)
		q := randPoint(r, d)
		// Random point inside rect.
		p := make(Point, d)
		for j := range p {
			p[j] = rect.Min[j] + r.Float64()*(rect.Max[j]-rect.Min[j])
		}
		dist := Dist(q, p)
		if min := rect.MinDist(q); min > dist+1e-9 {
			t.Fatalf("MINDIST %v > dist %v", min, dist)
		}
		if max := rect.MaxDist(q); dist > max+1e-9 {
			t.Fatalf("dist %v > MAXDIST %v", dist, max)
		}
		mm := rect.MinMaxDist(q)
		if mm < rect.MinDist(q)-1e-9 || mm > rect.MaxDist(q)+1e-9 {
			t.Fatalf("MINMAXDIST %v outside [MINDIST %v, MAXDIST %v]",
				mm, rect.MinDist(q), rect.MaxDist(q))
		}
	}
}

// Property: for a degenerate rectangle (a point), MINDIST = MAXDIST =
// MINMAXDIST = distance to that point.
func TestDegenerateRectDistances(t *testing.T) {
	unit := func(x float64) float64 { // map arbitrary float to [0,1)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0.5
		}
		return math.Abs(x) - math.Floor(math.Abs(x))
	}
	f := func(a, b [4]float64) bool {
		p := Point{unit(a[0]), unit(a[1]), unit(a[2]), unit(a[3])}
		q := Point{unit(b[0]), unit(b[1]), unit(b[2]), unit(b[3])}
		r := PointRect(p)
		want := Dist(q, p)
		return math.Abs(r.MinDist(q)-want) < 1e-9 &&
			math.Abs(r.MaxDist(q)-want) < 1e-9 &&
			math.Abs(r.MinMaxDist(q)-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MINMAXDIST is an upper bound on the NN distance when the
// rectangle is a true MBR: some data point must lie within MINMAXDIST.
// We verify with point sets whose MBR we compute: the nearest point of the
// set is always within MINMAXDIST of the query.
func TestMinMaxDistGuarantee(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		d := 1 + r.Intn(6)
		n := 2 + r.Intn(10)
		pts := make([]Point, n)
		for j := range pts {
			pts[j] = randPoint(r, d)
		}
		// Force the MBR property: project points so every face is
		// touched. MBR() of the raw points already guarantees this.
		m := MBR(pts)
		q := randPoint(r, d)
		nn := math.Inf(1)
		for _, p := range pts {
			if dd := Dist(q, p); dd < nn {
				nn = dd
			}
		}
		// The MINMAXDIST guarantee holds per face only if each face
		// is touched by a point, which MBR construction ensures in
		// aggregate (each face touched by >= 1 point).
		if mm := m.MinMaxDist(q); nn > mm+1e-9 {
			// This can legitimately happen: MINMAXDIST guarantees an
			// object within that distance only under the assumption
			// that each face contains a point. MBR guarantees each
			// face is touched, so the guarantee does hold.
			t.Fatalf("NN dist %v > MINMAXDIST %v (d=%d n=%d)", nn, mm, d, n)
		}
	}
}

func TestSphereIntersection(t *testing.T) {
	r := NewRect(Point{1, 1}, Point{2, 2})
	q := Point{0, 1.5}
	if !r.SqDistSphereIntersects(q, 1.0) { // radius 1 touches
		t.Error("sphere of radius 1 should touch rect")
	}
	if r.SqDistSphereIntersects(q, 0.81) { // radius 0.9 misses
		t.Error("sphere of radius 0.9 should miss rect")
	}
}

func TestExtend(t *testing.T) {
	r := PointRect(Point{0.5, 0.5})
	r.Extend(Point{0, 1})
	r.Extend(Point{1, 0})
	if !Equal(r.Min, Point{0, 0}) || !Equal(r.Max, Point{1, 1}) {
		t.Errorf("Extend produced %v", r)
	}
	s := PointRect(Point{2, 2})
	r.ExtendRect(s)
	if !Equal(r.Max, Point{2, 2}) {
		t.Errorf("ExtendRect produced %v", r)
	}
}

func TestRectString(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{1, 1})
	if got := r.String(); got != "[(0.000, 0.000) .. (1.000, 1.000)]" {
		t.Errorf("String = %q", got)
	}
}

func TestRectCloneIndependence(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{1, 1})
	c := r.Clone()
	c.Min[0] = -5
	if r.Min[0] != 0 {
		t.Error("Clone shares memory")
	}
}

func TestValid(t *testing.T) {
	if (Rect{Min: Point{1}, Max: Point{0}}).Valid() {
		t.Error("inverted rect reports valid")
	}
	if (Rect{Min: Point{0, 0}, Max: Point{1}}).Valid() {
		t.Error("mismatched dims report valid")
	}
}

func BenchmarkSqDist16(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	p, q := randPoint(r, 16), randPoint(r, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SqDist(p, q)
	}
}

func BenchmarkSqMinDist16(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	rect := randRect(r, 16)
	q := randPoint(r, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rect.SqMinDist(q)
	}
}

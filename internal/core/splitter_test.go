package core

import (
	"math"
	"math/rand"
	"testing"

	"parsearch/internal/vec"
)

func TestMidpointSplitter(t *testing.T) {
	s := NewMidpointSplitter(3)
	if s.Dim() != 3 {
		t.Fatalf("Dim = %d", s.Dim())
	}
	for _, v := range s.Splits() {
		if v != 0.5 {
			t.Fatalf("split = %v, want 0.5", v)
		}
	}
	tests := []struct {
		p    vec.Point
		want Bucket
	}{
		{vec.Point{0.1, 0.1, 0.1}, 0b000},
		{vec.Point{0.9, 0.1, 0.1}, 0b001},
		{vec.Point{0.1, 0.9, 0.1}, 0b010},
		{vec.Point{0.9, 0.9, 0.9}, 0b111},
		{vec.Point{0.5, 0.5, 0.5}, 0b000}, // boundary goes low
	}
	for _, tt := range tests {
		if got := s.Bucket(tt.p); got != tt.want {
			t.Errorf("Bucket(%v) = %b, want %b", tt.p, got, tt.want)
		}
	}
}

func TestSplitterDimensionMismatchPanics(t *testing.T) {
	s := NewMidpointSplitter(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	s.Bucket(vec.Point{0.5})
}

func TestNewSplitterCopiesInput(t *testing.T) {
	in := []float64{0.3, 0.7}
	s := NewSplitter(in)
	in[0] = 0.99
	if s.Splits()[0] != 0.3 {
		t.Error("NewSplitter shares the caller's slice")
	}
}

func TestQuantileSplitterMedianBalances(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	const d, n = 4, 4000
	// Heavily skewed data: exponential-ish per dimension.
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = r.Float64() * r.Float64() // density biased toward 0
		}
		pts[i] = p
	}
	s := NewQuantileSplitter(pts, 0.5)
	// Each dimension must now split the data ~50/50.
	for j := 0; j < d; j++ {
		above := 0
		for _, p := range pts {
			if p[j] > s.Splits()[j] {
				above++
			}
		}
		frac := float64(above) / n
		if frac < 0.45 || frac > 0.55 {
			t.Errorf("dimension %d: %.2f of points above median split", j, frac)
		}
	}
	// A midpoint splitter on the same data is badly imbalanced, which is
	// exactly why the extension exists.
	mid := NewMidpointSplitter(d)
	above := 0
	for _, p := range pts {
		if p[0] > mid.Splits()[0] {
			above++
		}
	}
	if frac := float64(above) / n; frac > 0.40 {
		t.Errorf("midpoint split unexpectedly balanced (%.2f) — workload not skewed?", frac)
	}
}

// TestQuantileSplitterIgnoresOrder: the splits are the same bits in any
// order of the points — an assembled index gathers its columns in leaf
// order, a build in ID order. Zeros of both signs sit at the median, where
// selection would otherwise keep whichever it met first.
func TestQuantileSplitterIgnoresOrder(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	negZero := math.Copysign(0, -1)
	pts := make([]vec.Point, 41)
	for i := range pts {
		// Dimension 0: zeros of both signs in the middle of the order;
		// dimension 1: ties everywhere; dimension 2: distinct values.
		z := 0.0
		if i%2 == 1 {
			z = negZero
		}
		switch {
		case i < 12:
			z = -r.Float64()
		case i > 28:
			z = r.Float64()
		}
		pts[i] = vec.Point{z, float64(i % 3), r.Float64()}
	}
	want := NewQuantileSplitter(pts, 0.5).Splits()
	if want[0] != 0 || math.Signbit(want[0]) {
		t.Fatalf("dimension 0 split is %v (sign bit %v), want +0", want[0], math.Signbit(want[0]))
	}
	for trial := 0; trial < 200; trial++ {
		r.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		got := NewQuantileSplitter(pts, 0.5).Splits()
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d: dimension %d splits at %v, in the first order at %v", trial, j, got[j], want[j])
			}
		}
	}
}

func TestQuantileSplitterPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty point set")
		}
	}()
	NewQuantileSplitter(nil, 0.5)
}

func TestAdaptiveSplitterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for threshold < 1")
		}
	}()
	NewAdaptiveSplitter(2, 0.5, 0.5)
}

func TestAdaptiveSplitterLifecycle(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	const d = 3
	a := NewAdaptiveSplitter(d, 0.5, 2.0)
	if a.Dim() != d {
		t.Fatalf("Dim = %d", a.Dim())
	}
	// Initially splits are midpoints and no rebalance is needed.
	if a.NeedsRebalance() {
		t.Error("fresh splitter should not need rebalancing")
	}
	for _, v := range a.Splits() {
		if v != 0.5 {
			t.Fatalf("initial split %v, want 0.5", v)
		}
	}
	// Feed skewed data: most mass below 0.2.
	for i := 0; i < 5000; i++ {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = r.Float64() * 0.4 * r.Float64()
		}
		a.Observe(p)
	}
	if !a.NeedsRebalance() {
		t.Fatal("skewed data should trigger rebalancing")
	}
	splits := a.Rebalance()
	for j, v := range splits {
		if v <= 0 || v >= 0.4 {
			t.Errorf("dimension %d: rebalanced split %v outside the data's range", j, v)
		}
	}
	if a.NeedsRebalance() {
		t.Error("counters should reset after Rebalance")
	}
	// Buckets now respond to the new splits.
	lowPoint := make(vec.Point, d)
	highPoint := make(vec.Point, d)
	for j := range highPoint {
		highPoint[j] = 0.39
	}
	if a.Bucket(lowPoint) != 0 {
		t.Error("low point should land in quadrant 0")
	}
	if a.Bucket(highPoint) != Bucket(1<<d-1) {
		t.Errorf("high point should land in the top quadrant, got %b", a.Bucket(highPoint))
	}
}

func TestAdaptiveSplitterBalancedDataStaysPut(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	a := NewAdaptiveSplitter(2, 0.5, 2.0)
	for i := 0; i < 5000; i++ {
		a.Observe(vec.Point{r.Float64(), r.Float64()})
	}
	if a.NeedsRebalance() {
		t.Error("uniform data should not trigger rebalancing")
	}
}

func TestAdaptiveSplitterDimChecks(t *testing.T) {
	a := NewAdaptiveSplitter(2, 0.5, 2.0)
	for _, f := range []func(){
		func() { a.Observe(vec.Point{1}) },
		func() { a.Bucket(vec.Point{1, 2, 3}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on dimension mismatch")
				}
			}()
			f()
		}()
	}
}

func TestAdaptiveSplitterRebalanceWithoutData(t *testing.T) {
	a := NewAdaptiveSplitter(2, 0.5, 2.0)
	splits := a.Rebalance() // must not panic, splits unchanged
	for _, v := range splits {
		if v != 0.5 {
			t.Errorf("split moved to %v without observations", v)
		}
	}
}

package quantile

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestExactKnownValues(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1},
		{0.25, 2},
		{0.5, 3},
		{0.75, 4},
		{1, 5},
		{0.125, 1.5},
	}
	for _, tt := range tests {
		if got := Exact(v, tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Exact(q=%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestExactSingleValue(t *testing.T) {
	if got := Exact([]float64{7}, 0.5); got != 7 {
		t.Errorf("Exact single = %v", got)
	}
}

func TestExactDoesNotMutateInput(t *testing.T) {
	v := []float64{3, 1, 2}
	Exact(v, 0.5)
	if v[0] != 3 || v[1] != 1 || v[2] != 2 {
		t.Errorf("input mutated: %v", v)
	}
}

func TestExactPanics(t *testing.T) {
	for _, tc := range []struct {
		vals []float64
		q    float64
	}{
		{nil, 0.5},
		{[]float64{1}, -0.1},
		{[]float64{1}, 1.1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Exact(%v, %v): expected panic", tc.vals, tc.q)
				}
			}()
			Exact(tc.vals, tc.q)
		}()
	}
}

// oracleExact is Exact as it was before it selected: sort a copy, read the
// two order statistics off it.
func oracleExact(values []float64, q float64) float64 {
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// sameQuantile compares bit for bit, except that it lets a zero's sign
// differ: the sort leaves the order of -0 and +0 to chance.
func sameQuantile(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

// TestExactMatchesSortOracle: selection returns the sort-based quantile
// bit for bit — arbitrary float64 values (infinities, denormals), heavy
// duplication, sorted and organ-pipe columns, with and without NaN.
func TestExactMatchesSortOracle(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	check := func(values []float64) bool {
		for _, q := range []float64{0, 0.5, 1, r.Float64(), r.Float64()} {
			if got, want := Exact(values, q), oracleExact(values, q); !sameQuantile(got, want) {
				t.Errorf("Exact(%d values, q = %v) = %v, sort-based %v", len(values), q, got, want)
				return false
			}
		}
		return true
	}
	// testing/quick draws values over the whole float64 range.
	if err := quick.Check(func(values []float64, nans uint8) bool {
		if len(values) == 0 {
			return true
		}
		for i := 0; i < int(nans%4); i++ {
			values[r.Intn(len(values))] = math.NaN()
		}
		return check(values)
	}, &quick.Config{MaxCount: 500, Rand: r}); err != nil {
		t.Error(err)
	}
	shapes := map[string]func(i, n int) float64{
		"random":     func(i, n int) float64 { return r.NormFloat64() },
		"duplicates": func(i, n int) float64 { return float64(r.Intn(4)) },
		"sorted":     func(i, n int) float64 { return float64(i) },
		"reversed":   func(i, n int) float64 { return float64(n - i) },
		"organ-pipe": func(i, n int) float64 { return float64(min(i, n-i)) },
	}
	for name, shape := range shapes {
		for _, n := range []int{1, 2, 3, 4, 5, 10, 101, 1000, 2000} {
			values := make([]float64, n)
			for i := range values {
				values[i] = shape(i, n)
			}
			if !check(values) {
				t.Fatalf("%s, n = %d", name, n)
			}
			values[r.Intn(n)] = math.NaN()
			if !check(values) {
				t.Fatalf("%s with NaN, n = %d", name, n)
			}
		}
	}
}

// TestSelectRankBudget: however few rounds the budget allows, the sort it
// falls back on still places the rank.
func TestSelectRankBudget(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for budget := 0; budget <= 6; budget++ {
		for _, n := range []int{2, 3, 50, 999} {
			values := make([]float64, n)
			for i := range values {
				values[i] = float64(r.Intn(n))
			}
			sorted := append([]float64(nil), values...)
			sort.Float64s(sorted)
			for _, k := range []int{0, n / 3, n / 2, n - 1} {
				s := append([]float64(nil), values...)
				selectRank(s, k, budget)
				if s[k] != sorted[k] {
					t.Fatalf("budget %d, n = %d: rank %d holds %v, want %v", budget, n, k, s[k], sorted[k])
				}
				if k+1 < n && slices.Min(s[k+1:]) < s[k] {
					t.Fatalf("budget %d, n = %d: a value right of rank %d is smaller than it", budget, n, k)
				}
			}
		}
	}
}

func TestNewP2Panics(t *testing.T) {
	for _, q := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewP2(%v): expected panic", q)
				}
			}()
			NewP2(q)
		}()
	}
}

func TestP2Empty(t *testing.T) {
	p := NewP2(0.5)
	if p.Value() != 0 || p.Count() != 0 {
		t.Errorf("empty P2: value=%v count=%d", p.Value(), p.Count())
	}
	if p.Target() != 0.5 {
		t.Errorf("Target = %v", p.Target())
	}
}

func TestP2FewObservations(t *testing.T) {
	p := NewP2(0.5)
	p.Add(3)
	p.Add(1)
	p.Add(2)
	if got := p.Value(); got != 2 {
		t.Errorf("median of {1,2,3} = %v, want 2", got)
	}
	if p.Count() != 3 {
		t.Errorf("Count = %d", p.Count())
	}
}

// P2 on uniform data should estimate quantiles with small error.
func TestP2Uniform(t *testing.T) {
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		r := rand.New(rand.NewSource(11))
		p := NewP2(q)
		for i := 0; i < 50000; i++ {
			p.Add(r.Float64())
		}
		if got := p.Value(); math.Abs(got-q) > 0.02 {
			t.Errorf("P2(%v) on uniform = %v, want ~%v", q, got, q)
		}
	}
}

// P2 on a Gaussian should track the exact sample quantile.
func TestP2Gaussian(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	p := NewP2(0.5)
	var all []float64
	for i := 0; i < 20000; i++ {
		x := r.NormFloat64()*2 + 10
		p.Add(x)
		all = append(all, x)
	}
	exact := Exact(all, 0.5)
	if math.Abs(p.Value()-exact) > 0.1 {
		t.Errorf("P2 median = %v, exact = %v", p.Value(), exact)
	}
}

// P2 on heavily skewed data (exponential) must still converge.
func TestP2Exponential(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	p := NewP2(0.5)
	var all []float64
	for i := 0; i < 30000; i++ {
		x := r.ExpFloat64()
		p.Add(x)
		all = append(all, x)
	}
	exact := Exact(all, 0.5)
	if math.Abs(p.Value()-exact) > 0.05 {
		t.Errorf("P2 exp median = %v, exact = %v", p.Value(), exact)
	}
}

// The estimate must always lie within the observed range.
func TestP2WithinRange(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	p := NewP2(0.3)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 1000; i++ {
		x := r.NormFloat64()
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
		p.Add(x)
		if v := p.Value(); v < lo-1e-9 || v > hi+1e-9 {
			t.Fatalf("estimate %v outside observed range [%v, %v] after %d obs", v, lo, hi, i+1)
		}
	}
}

// Exact quantiles of a sorted ramp agree with the closed form; use that to
// cross-check P2 against Exact on identical streams.
func TestP2MatchesExactOnPermutedRamp(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = float64(i) / float64(len(vals))
	}
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	p := NewP2(0.25)
	for _, v := range vals {
		p.Add(v)
	}
	sort.Float64s(vals)
	exact := Exact(vals, 0.25)
	if math.Abs(p.Value()-exact) > 0.02 {
		t.Errorf("P2 = %v, exact = %v", p.Value(), exact)
	}
}

func BenchmarkP2Add(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	p := NewP2(0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Add(r.Float64())
	}
}

package parsearch

import (
	"math"
	"testing"

	"parsearch/internal/data"
)

func metricDist(m Metric, a, b []float64) float64 {
	switch m {
	case Manhattan:
		s := 0.0
		for i := range a {
			s += math.Abs(a[i] - b[i])
		}
		return s
	case Maximum:
		s := 0.0
		for i := range a {
			if d := math.Abs(a[i] - b[i]); d > s {
				s = d
			}
		}
		return s
	default:
		s := 0.0
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return math.Sqrt(s)
	}
}

func TestMetricOptionValidation(t *testing.T) {
	if _, err := Open(Options{Dim: 4, Disks: 2, Metric: "cosine"}); err == nil {
		t.Error("unknown metric accepted")
	}
	for _, m := range []Metric{Euclidean, Manhattan, Maximum, ""} {
		if _, err := Open(Options{Dim: 4, Disks: 2, Metric: m}); err != nil {
			t.Errorf("metric %q rejected: %v", m, err)
		}
	}
}

func TestKNNUnderAllMetrics(t *testing.T) {
	const d, n, k = 6, 2000, 8
	pts := data.Uniform(n, d, 91)
	raw := make([][]float64, n)
	for i, p := range pts {
		raw[i] = p
	}
	queries := data.Uniform(10, d, 92)

	for _, m := range []Metric{Euclidean, Manhattan, Maximum} {
		ix, err := Open(Options{Dim: d, Disks: 4, Metric: m})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Build(raw); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			got, _, err := ix.KNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			// Ground truth under the metric.
			want := make([]float64, n)
			for i, p := range raw {
				want[i] = metricDist(m, q, rounded(p))
			}
			// Selection sort of the k smallest.
			for i := 0; i < k; i++ {
				minIdx := i
				for j := i + 1; j < n; j++ {
					if want[j] < want[minIdx] {
						minIdx = j
					}
				}
				want[i], want[minIdx] = want[minIdx], want[i]
				if math.Abs(got[i].Dist-want[i]) > 1e-9 {
					t.Fatalf("%s: rank %d dist %v, want %v", m, i, got[i].Dist, want[i])
				}
			}
		}
	}
}

func TestMetricsDisagreeWhereExpected(t *testing.T) {
	// Points chosen so L1 and L∞ rank them differently from L2.
	raw := [][]float64{
		{0.30, 0.00}, // L2 0.30, L1 0.30, Linf 0.30
		{0.22, 0.22}, // L2 0.311, L1 0.44, Linf 0.22
	}
	q := []float64{0, 0}

	nnUnder := func(m Metric) int {
		ix, err := Open(Options{Dim: 2, Disks: 2, Metric: m})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Build(raw); err != nil {
			t.Fatal(err)
		}
		nb, _, err := ix.NN(q)
		if err != nil {
			t.Fatal(err)
		}
		return nb.ID
	}
	if got := nnUnder(Euclidean); got != 0 {
		t.Errorf("L2 NN = %d, want 0", got)
	}
	if got := nnUnder(Manhattan); got != 0 {
		t.Errorf("L1 NN = %d, want 0", got)
	}
	if got := nnUnder(Maximum); got != 1 {
		t.Errorf("Linf NN = %d, want 1", got)
	}
}

func TestBrowseUnderManhattan(t *testing.T) {
	const d, n = 4, 500
	pts := data.Uniform(n, d, 93)
	raw := make([][]float64, n)
	for i, p := range pts {
		raw[i] = p
	}
	ix, err := Open(Options{Dim: d, Disks: 4, Metric: Manhattan})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}
	q := data.Uniform(1, d, 94)[0]
	b, err := ix.Browse(q)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for i := 0; i < 50; i++ {
		nb, ok := b.Next()
		if !ok {
			t.Fatal("ranking exhausted early")
		}
		if nb.Dist < prev {
			t.Fatalf("ranking not monotone under L1: %v after %v", nb.Dist, prev)
		}
		if math.Abs(nb.Dist-metricDist(Manhattan, q, nb.Point)) > 1e-9 {
			t.Fatalf("reported distance wrong under L1")
		}
		prev = nb.Dist
	}
}

package server

import (
	"context"
	"net/http/httptest"
	"testing"

	"parsearch/client"
)

// BenchmarkServerKNN measures the served k-NN path end to end: HTTP
// decode, admission, coalescing, engine query, JSON encode — the
// serving overhead on top of BenchmarkKNN-style library numbers. The
// serial variant is the lone request, which the coalescer dispatches at
// once; the parallel one is where it has concurrent traffic to merge,
// when the bench driver issues requests from many goroutines (-cpu 8).
func BenchmarkServerKNN(b *testing.B) {
	const (
		dim = 8
		n   = 4000
		k   = 10
	)
	ix := testIndex(b, dim, n, 16, 0)
	srv, err := New(ix, Config{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	b.Run("serial", func(b *testing.B) {
		cl := client.New(ts.URL)
		q := randQuery(dim, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cl.KNN(context.Background(), q, k); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("parallel", func(b *testing.B) {
		cl := client.New(ts.URL)
		before := srv.Stats()
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			q := randQuery(dim, 1)
			for pb.Next() {
				if _, err := cl.KNN(context.Background(), q, k); err != nil {
					b.Fatal(err)
				}
			}
		})
		st := srv.Stats()
		if batches := st.CoalescedBatches - before.CoalescedBatches; batches > 0 {
			b.ReportMetric(float64(st.CoalescedQueries-before.CoalescedQueries)/float64(batches), "queries/batch")
		}
	})
}

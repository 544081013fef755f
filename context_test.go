package parsearch

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"parsearch/internal/data"
)

// Regression tests for context cancellation in the query paths: a
// cancelled context must surface ctx.Err() promptly — before the shard
// search and the simulated I/O phase — instead of completing the query
// for a client that is gone.

func cancelTestIndex(t *testing.T) (*Index, [][]float64) {
	t.Helper()
	const d, n = 6, 800
	pts := data.Uniform(n, d, 99)
	raw := make([][]float64, n)
	for i, p := range pts {
		raw[i] = p
	}
	ix, err := Open(Options{Dim: d, Disks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}
	queries := make([][]float64, 8)
	for i, q := range data.Uniform(8, d, 100) {
		queries[i] = q
	}
	return ix, queries
}

func TestKNNContextPreCancelled(t *testing.T) {
	ix, queries := cancelTestIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	start := time.Now()
	_, _, err := ix.KNNContext(ctx, queries[0], 5)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("KNNContext on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled KNN took %v, want a prompt return", elapsed)
	}

	// No simulated I/O may have been charged for the cancelled query.
	if m := ix.Metrics(); m.PagesRead != 0 {
		t.Errorf("cancelled KNN read %d pages, want 0", m.PagesRead)
	}
	if m := ix.Metrics(); m.QueryErrors != 1 {
		t.Errorf("QueryErrors = %d, want 1", m.QueryErrors)
	}
}

// assertRejected runs a query the engine must reject and checks that the
// rejection is as visible as any other query error: the returned text is
// wantErr, query_errors grows by exactly one, and the context tracer sees
// exactly one event, the StageError carrying that text.
func assertRejected(t *testing.T, ix *Index, name, wantErr string, run func(ctx context.Context) error) {
	t.Helper()
	tr := &recordTracer{}
	before := ix.Metrics().QueryErrors
	err := run(WithTracer(context.Background(), tr))
	if err == nil || err.Error() != wantErr {
		t.Errorf("%s: err = %v, want %q", name, err, wantErr)
		return
	}
	if got := ix.Metrics().QueryErrors - before; got != 1 {
		t.Errorf("%s: QueryErrors grew by %d, want 1", name, got)
	}
	if got := tr.stages(); !reflect.DeepEqual(got, []string{StageError}) {
		t.Errorf("%s: traced stages %v, want one error event", name, got)
	} else if tr.events[0].Err != wantErr {
		t.Errorf("%s: error event carries %q, want %q", name, tr.events[0].Err, wantErr)
	}
}

// TestKNNContextRejectedVisible: a k-NN query rejected for its Approx or
// ShardSpec is counted and traced like one rejected for its dimension.
func TestKNNContextRejectedVisible(t *testing.T) {
	ix, queries := cancelTestIndex(t)
	q := queries[0]
	assertRejected(t, ix, "dimension", "parsearch: query dimension 1, want 6", func(ctx context.Context) error {
		_, _, err := ix.KNNContext(ctx, q[:1], 5)
		return err
	})
	assertRejected(t, ix, "approx", "parsearch: epsilon -1 outside [0, 1e+06]", func(ctx context.Context) error {
		_, _, err := ix.KNNApproxContext(ctx, q, 5, Approx{Epsilon: -1})
		return err
	})
	assertRejected(t, ix, "shard approx", "parsearch: bound -1, want a finite distance >= 0", func(ctx context.Context) error {
		_, _, err := ix.KNNShardContext(ctx, q, 5, Approx{Bound: -1}, ShardSpec{})
		return err
	})
	assertRejected(t, ix, "shard spec", "parsearch: 99 shard groups over 8 disks", func(ctx context.Context) error {
		_, _, err := ix.KNNShardContext(ctx, q, 5, Approx{}, ShardSpec{Of: 99})
		return err
	})
	assertRejected(t, ix, "range shard spec", "parsearch: shard group 2 outside [0, 2)", func(ctx context.Context) error {
		_, _, err := ix.RangeQueryShardContext(ctx, q, q, ShardSpec{Of: 2, Groups: []int{2}})
		return err
	})
	// The non-context spelling lands on the index-wide counter too.
	before := ix.Metrics().QueryErrors
	if _, _, err := ix.KNNApprox(q, 5, Approx{Epsilon: -1}); err == nil {
		t.Error("KNNApprox accepted a negative epsilon")
	}
	if got := ix.Metrics().QueryErrors - before; got != 1 {
		t.Errorf("KNNApprox: QueryErrors grew by %d, want 1", got)
	}
}

func TestBatchKNNContextPreCancelled(t *testing.T) {
	ix, queries := cancelTestIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	_, _, err := ix.BatchKNNContext(ctx, queries, 5)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("BatchKNNContext on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if m := ix.Metrics(); m.PagesRead != 0 {
		t.Errorf("cancelled batch read %d pages, want 0", m.PagesRead)
	}
}

func TestRangeQueryContextPreCancelled(t *testing.T) {
	ix, _ := cancelTestIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	min := []float64{0, 0, 0, 0, 0, 0}
	max := []float64{1, 1, 1, 1, 1, 1}
	_, _, err := ix.RangeQueryContext(ctx, min, max)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RangeQueryContext on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if m := ix.Metrics(); m.PagesRead != 0 {
		t.Errorf("cancelled range query read %d pages, want 0", m.PagesRead)
	}
}

// TestKNNContextDeadline drives a deadline that expires mid-run: the
// query must return the deadline error, never a partial result.
func TestKNNContextDeadline(t *testing.T) {
	ix, queries := cancelTestIndex(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, _, err := ix.KNNContext(ctx, queries[0], 5)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
	if res != nil {
		t.Fatalf("expired deadline returned %d results alongside the error", len(res))
	}
}

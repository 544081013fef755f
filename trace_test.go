package parsearch

// Tests for the observability layer: span events of the traced query
// paths, tracer resolution (Options vs. context), and the metrics
// registry exposed by Index.Metrics / PublishExpvar.

import (
	"context"
	"encoding/json"
	"expvar"
	"strings"
	"sync"
	"testing"
	"time"

	"parsearch/internal/data"
)

// recordTracer collects events under a mutex so traced queries stay
// race-clean (a batch's workers emit concurrently).
type recordTracer struct {
	mu     sync.Mutex
	events []TraceEvent
}

func (r *recordTracer) Event(ev TraceEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// stages returns the recorded stage names in order.
func (r *recordTracer) stages() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.events))
	for i, ev := range r.events {
		out[i] = ev.Stage
	}
	return out
}

// count returns how many events carry the given stage.
func (r *recordTracer) count(stage string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ev := range r.events {
		if ev.Stage == stage {
			n++
		}
	}
	return n
}

// tracedIndex builds an index with an Options.Tracer installed.
func tracedIndex(t *testing.T, opts Options, n int) (*Index, *recordTracer) {
	t.Helper()
	tr := &recordTracer{}
	opts.Tracer = tr
	ix, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	pts := data.Uniform(n, opts.Dim, 5)
	raw := make([][]float64, n)
	for i := range pts {
		raw[i] = pts[i]
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}
	return ix, tr
}

func TestKNNTraceSpan(t *testing.T) {
	const dim, disks = 4, 4
	ix, tr := tracedIndex(t, Options{Dim: dim, Disks: disks}, 800)
	q := data.Uniform(1, dim, 9)[0]
	if _, _, err := ix.KNN(q, 5); err != nil {
		t.Fatal(err)
	}

	if got := tr.count(StagePlan); got != 1 {
		t.Errorf("%d plan events, want 1", got)
	}
	if got := tr.count(StageSearch); got != disks {
		t.Errorf("%d search events, want %d (one per disk)", got, disks)
	}
	if got := tr.count(StageMerge); got != 1 {
		t.Errorf("%d merge events, want 1", got)
	}
	if got := tr.count(StageIO); got != 1 {
		t.Errorf("%d io events, want 1", got)
	}
	if got := tr.count(StageDone); got != 1 {
		t.Errorf("%d done events, want 1", got)
	}

	tr.mu.Lock()
	defer tr.mu.Unlock()
	// Shared span identity and ordering: plan first, done last, merge
	// after every search, all events op "knn" with the same query id.
	if len(tr.events) == 0 {
		t.Fatal("no events recorded")
	}
	qid := tr.events[0].Query
	if qid == 0 {
		t.Error("query sequence number not assigned")
	}
	mergeAt, lastSearch := -1, -1
	for i, ev := range tr.events {
		if ev.Op != "knn" || ev.Query != qid {
			t.Errorf("event %d: op %q query %d, want knn/%d", i, ev.Op, ev.Query, qid)
		}
		switch ev.Stage {
		case StageSearch:
			lastSearch = i
			if ev.Disk < 0 || ev.Disk >= disks {
				t.Errorf("search event names disk %d", ev.Disk)
			}
		case StageMerge:
			mergeAt = i
			if ev.Radius <= 0 {
				t.Errorf("merge event radius %v, want > 0", ev.Radius)
			}
			if ev.Results != 5 {
				t.Errorf("merge event results %d, want 5", ev.Results)
			}
		}
	}
	if tr.events[0].Stage != StagePlan {
		t.Errorf("first event %q, want plan", tr.events[0].Stage)
	}
	if last := tr.events[len(tr.events)-1]; last.Stage != StageDone {
		t.Errorf("last event %q, want done", last.Stage)
	} else if last.Pages <= 0 || last.Results != 5 {
		t.Errorf("done event pages %d results %d", last.Pages, last.Results)
	}
	if mergeAt < lastSearch {
		t.Errorf("merge event at %d before last search at %d", mergeAt, lastSearch)
	}
}

func TestContextTracerOverridesOptions(t *testing.T) {
	const dim = 3
	ix, optTracer := tracedIndex(t, Options{Dim: dim, Disks: 2}, 200)
	ctxTracer := &recordTracer{}
	q := data.Uniform(1, dim, 3)[0]

	if _, _, err := ix.KNNContext(WithTracer(context.Background(), ctxTracer), q, 2); err != nil {
		t.Fatal(err)
	}
	if got := optTracer.count(StageDone); got != 0 {
		t.Errorf("Options.Tracer saw %d done events despite context override", got)
	}
	if got := ctxTracer.count(StageDone); got != 1 {
		t.Errorf("context tracer saw %d done events, want 1", got)
	}

	// Without a context tracer the Options tracer is used.
	if _, _, err := ix.KNNContext(context.Background(), q, 2); err != nil {
		t.Fatal(err)
	}
	if got := optTracer.count(StageDone); got != 1 {
		t.Errorf("Options.Tracer saw %d done events, want 1", got)
	}
	if got := ContextTracer(context.Background()); got != nil {
		t.Errorf("empty context carries tracer %v", got)
	}

	// A nil tracer masks the one further out: the server's coalescer
	// runs a leader's batch under the leader's context this way, so that
	// every coalesced search reports to the same place.
	masked := WithTracer(WithTracer(context.Background(), ctxTracer), nil)
	if _, _, err := ix.KNNContext(masked, q, 2); err != nil {
		t.Fatal(err)
	}
	if opt, ctx := optTracer.count(StageDone), ctxTracer.count(StageDone); opt != 2 || ctx != 1 {
		t.Errorf("masked context tracer: Options.Tracer saw %d done events, the masked one %d; want 2 and 1", opt, ctx)
	}
}

func TestTraceQuerySequenceDistinct(t *testing.T) {
	const dim = 3
	ix, tr := tracedIndex(t, Options{Dim: dim, Disks: 2}, 200)
	for _, q := range data.Uniform(3, dim, 4) {
		if _, _, err := ix.KNN(q, 1); err != nil {
			t.Fatal(err)
		}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	seen := map[uint64]bool{}
	for _, ev := range tr.events {
		if ev.Stage == StageDone {
			if seen[ev.Query] {
				t.Fatalf("query id %d reused", ev.Query)
			}
			seen[ev.Query] = true
		}
	}
	if len(seen) != 3 {
		t.Fatalf("%d distinct query ids, want 3", len(seen))
	}
}

func TestRangeAndBatchTraceSpans(t *testing.T) {
	const dim, disks = 4, 3
	ix, tr := tracedIndex(t, Options{Dim: dim, Disks: disks}, 600)

	lo, hi := make([]float64, dim), make([]float64, dim)
	for i := range lo {
		lo[i], hi[i] = 0.2, 0.8
	}
	if _, _, err := ix.RangeQuery(lo, hi); err != nil {
		t.Fatal(err)
	}
	if got := tr.count(StageSearch); got != disks {
		t.Errorf("range: %d search events, want %d", got, disks)
	}
	if tr.count(StagePlan) != 1 || tr.count(StageIO) != 1 || tr.count(StageDone) != 1 {
		t.Errorf("range: stage counts %v", tr.stages())
	}

	tr.mu.Lock()
	tr.events = nil
	tr.mu.Unlock()

	queries := data.Uniform(4, dim, 11)
	raw := make([][]float64, len(queries))
	for i := range queries {
		raw[i] = queries[i]
	}
	if _, _, err := ix.BatchKNN(raw, 3); err != nil {
		t.Fatal(err)
	}
	if got := tr.count(StageSearch); got != len(queries) {
		t.Errorf("batch: %d search events, want one per item (%d)", got, len(queries))
	}
	tr.mu.Lock()
	items := map[int]bool{}
	for _, ev := range tr.events {
		if ev.Stage == StageSearch {
			items[ev.Item] = true
		}
	}
	tr.mu.Unlock()
	for i := range queries {
		if !items[i] {
			t.Errorf("batch: no search event for item %d", i)
		}
	}
}

func TestTraceRerouteAndUnreachable(t *testing.T) {
	const dim, disks = 4, 4
	ix, tr := tracedIndex(t, Options{Dim: dim, Disks: disks, Replication: 1}, 800)
	q := data.Uniform(1, dim, 2)[0]

	if err := ix.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.KNN(q, 3); err != nil {
		t.Fatal(err)
	}
	if got := tr.count(StageReroute); got != 1 {
		t.Errorf("%d reroute events with one failed primary, want 1", got)
	}
	if got := tr.count(StageUnreachable); got != 0 {
		t.Errorf("%d unreachable events with a live replica, want 0", got)
	}

	// Kill the replica too: the shard becomes unreachable.
	tr.mu.Lock()
	tr.events = nil
	tr.mu.Unlock()
	if err := ix.FailDisk(ix.ReplicaDisk(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.KNN(q, 3); err != nil {
		t.Fatal(err)
	}
	if got := tr.count(StageUnreachable); got != 1 {
		t.Errorf("%d unreachable events with primary+replica dead, want 1", got)
	}
}

func TestTraceRetryAndErrorEvents(t *testing.T) {
	const dim = 3
	ix, tr := tracedIndex(t, Options{Dim: dim, Disks: 2}, 500)
	if err := ix.SetFaults(FaultModel{
		TransientProb: 0.4, MaxRetries: 32, RetryBackoff: time.Microsecond, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	for _, q := range data.Uniform(6, dim, 44) {
		if _, _, err := ix.KNN(q, 4); err != nil {
			t.Fatal(err)
		}
	}
	if tr.count(StageRetry) == 0 {
		t.Error("no retry events at a 40% transient rate")
	}

	// An error surfaces as an error event carrying the message.
	tr.mu.Lock()
	tr.events = nil
	tr.mu.Unlock()
	if _, _, err := ix.KNN(make([]float64, dim+1), 1); err == nil {
		t.Fatal("dimension mismatch should error")
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.events) != 1 || tr.events[0].Stage != StageError ||
		!strings.Contains(tr.events[0].Err, "dimension") {
		t.Fatalf("error trace = %+v", tr.events)
	}
}

func TestTraceEventString(t *testing.T) {
	ev := TraceEvent{Query: 7, Op: "knn", Stage: StageSearch, Disk: 2, Item: -1}
	if got := ev.String(); !strings.Contains(got, "q7 knn/search") || !strings.Contains(got, "disk=2") {
		t.Errorf("String() = %q", got)
	}
	ev = TraceEvent{Query: 1, Op: "batch", Stage: StageError, Disk: -1, Item: 3, Err: "boom"}
	if got := ev.String(); !strings.Contains(got, "item=3") || !strings.Contains(got, "err=boom") {
		t.Errorf("String() = %q", got)
	}
}

func TestMetricsAccumulateAndReset(t *testing.T) {
	const dim, disks = 4, 4
	ix, _ := tracedIndex(t, Options{Dim: dim, Disks: disks}, 1000)
	before := ix.Metrics()
	if before.QueriesKNN != 0 || before.PagesRead != 0 {
		t.Fatalf("fresh index has metrics %+v", before)
	}

	var wantPages int64
	queries := data.Uniform(8, dim, 77)
	for _, q := range queries {
		_, stats, err := ix.KNN(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		wantPages += int64(stats.TotalPages)
	}
	s := ix.Metrics()
	if s.QueriesKNN != int64(len(queries)) {
		t.Errorf("QueriesKNN = %d, want %d", s.QueriesKNN, len(queries))
	}
	if s.PagesRead != wantPages {
		t.Errorf("PagesRead = %d, want %d", s.PagesRead, wantPages)
	}
	var perDisk int64
	for _, v := range s.PagesPerDisk {
		perDisk += v
	}
	if perDisk != wantPages {
		t.Errorf("per-disk pages sum to %d, want %d", perDisk, wantPages)
	}
	if s.Balance <= 0 || s.Balance > 1 {
		t.Errorf("balance coefficient %v outside (0, 1]", s.Balance)
	}
	if s.QueryPages.Count != int64(len(queries)) || s.QueryPages.Sum != wantPages {
		t.Errorf("query pages histogram %+v", s.QueryPages)
	}
	if s.NodeVisits == 0 {
		t.Error("no node visits recorded")
	}
	var svc int64
	for _, v := range s.ServiceTimePerDiskNs {
		svc += v
	}
	if svc == 0 {
		t.Error("no per-disk service time recorded")
	}

	ix.ResetMetrics()
	if after := ix.Metrics(); after.QueriesKNN != 0 || after.PagesRead != 0 {
		t.Errorf("metrics after reset: %+v", after)
	}
}

// TestResetMetricsDuringQueries: ResetMetrics is safe for concurrent
// use like every other method — it zeroes the registry queries are
// writing to in place instead of swapping the pointer they read without
// a lock (run under -race; swapping raced within 200 iterations).
func TestResetMetricsDuringQueries(t *testing.T) {
	const dim = 4
	ix := buildTestIndex(t, Options{Dim: dim, Disks: 4}, 600)
	queries := data.Uniform(8, dim, 12)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if _, _, err := ix.KNN(queries[i%len(queries)], 3); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for resets := 0; ; resets++ {
		select {
		case <-done:
			ix.ResetMetrics()
			if s := ix.Metrics(); s.QueriesKNN != 0 || s.PagesRead != 0 {
				t.Fatalf("metrics after a quiet reset: %+v", s)
			}
			return
		default:
			ix.ResetMetrics()
		}
	}
}

func TestPublishExpvar(t *testing.T) {
	const name = "parsearch_test_index"
	ix, _ := tracedIndex(t, Options{Dim: 3, Disks: 2}, 300)
	if err := ix.PublishExpvar(name); err != nil {
		t.Fatal(err)
	}
	if err := ix.PublishExpvar(name); err == nil {
		t.Fatal("duplicate expvar name should error, not panic")
	}
	if err := ix.PublishExpvar(""); err == nil {
		t.Fatal("empty expvar name should error")
	}
	q := data.Uniform(1, 3, 1)[0]
	if _, _, err := ix.KNN(q, 2); err != nil {
		t.Fatal(err)
	}
	v := expvar.Get(name)
	if v == nil {
		t.Fatal("published expvar not found")
	}
	var decoded struct {
		QueriesKNN   int64   `json:"queries_knn"`
		PagesPerDisk []int64 `json:"pages_per_disk"`
		Balance      float64 `json:"balance"`
	}
	if err := json.Unmarshal([]byte(v.String()), &decoded); err != nil {
		t.Fatalf("expvar JSON: %v (%s)", err, v.String())
	}
	if decoded.QueriesKNN != 1 || len(decoded.PagesPerDisk) != 2 {
		t.Fatalf("expvar decoded to %+v", decoded)
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"parsearch"
	"parsearch/client"
	"parsearch/internal/wire"
)

// testIndex builds a populated index for serving tests.
func testIndex(t testing.TB, dim, n, disks, replication int) *parsearch.Index {
	t.Helper()
	ix, err := parsearch.Open(parsearch.Options{Dim: dim, Disks: disks, Replication: replication})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	if err := ix.Build(pts); err != nil {
		t.Fatal(err)
	}
	return ix
}

// randQuery returns a deterministic query vector for index i.
func randQuery(dim int, i int) []float64 {
	rng := rand.New(rand.NewSource(int64(1000 + i)))
	q := make([]float64, dim)
	for j := range q {
		q[j] = rng.Float64()
	}
	return q
}

// asJSON pins byte-identity between served and direct results.
func asJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServeEndToEnd is the acceptance test of the serving subsystem: a
// 16-disk index behind an httptest listener, 64 concurrent mixed
// KNN/range requests through the typed client, results byte-identical
// to direct library calls, and coalescing observably merging traffic.
func TestServeEndToEnd(t *testing.T) {
	const (
		dim      = 8
		n        = 2000
		disks    = 16
		k        = 10
		requests = 64
	)
	ix := testIndex(t, dim, n, disks, 0)
	// The first k-NN to reach the engine is held there until the others
	// stand behind it, so that merging is observed, not hoped for.
	h := newHoldTracer()
	leader := h.hold("batch")
	srv, err := New(ix, Config{MaxBatch: 16, Tracer: h})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)

	// Direct library answers first: the ground truth every served
	// response must match byte for byte.
	type want struct{ res string }
	wants := make([]want, requests)
	for i := range wants {
		if i%2 == 0 {
			q := randQuery(dim, i)
			ns, _, err := ix.KNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			wants[i] = want{asJSON(t, ns)}
		} else {
			min, max := rangeBox(dim, i)
			ns, _, err := ix.RangeQueryContext(context.Background(), min, max)
			if err != nil {
				t.Fatal(err)
			}
			wants[i] = want{asJSON(t, ns)}
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, requests)
	got := make([]string, requests)
	start := make(chan struct{})
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			var ns []parsearch.Neighbor
			var err error
			if i%2 == 0 {
				ns, err = cl.KNN(context.Background(), randQuery(dim, i), k)
			} else {
				min, max := rangeBox(dim, i)
				ns, err = cl.Range(context.Background(), min, max)
			}
			if err != nil {
				errs[i] = err
				return
			}
			b, err := json.Marshal(ns)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = string(b)
		}(i)
	}
	close(start)
	// 31 k-NN requests behind the held one: a full batch of 16 runs
	// beside it, 15 wait for it to return.
	leader.wait(t)
	leader.pass()
	eventually(t, "a full batch flushed beside the held leader", func() bool { return srv.Stats().CoalescedBatches == 2 })
	waitQueued(t, coalescerOf(srv), groupKey{k: k}, requests/2-1-16)
	leader.open()
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if got[i] != wants[i].res {
			t.Errorf("request %d: served result differs from direct library call\nserved: %.120s\ndirect: %.120s",
				i, got[i], wants[i].res)
		}
	}

	st := srv.Stats()
	if st.CoalescedQueries != requests/2 {
		t.Errorf("CoalescedQueries = %d, want %d", st.CoalescedQueries, requests/2)
	}
	if st.CoalescedBatches != 3 {
		t.Errorf("%d searches for %d queries, want the leader's, a full batch and the rest", st.CoalescedBatches, st.CoalescedQueries)
	}
	if st.MaxCoalescedBatch != 16 {
		t.Errorf("MaxCoalescedBatch = %d, want the configured MaxBatch 16", st.MaxCoalescedBatch)
	}
	if st.Requests != requests {
		t.Errorf("Requests = %d, want %d", st.Requests, requests)
	}
}

// rangeBox returns a deterministic query box for index i.
func rangeBox(dim, i int) (min, max []float64) {
	rng := rand.New(rand.NewSource(int64(5000 + i)))
	min = make([]float64, dim)
	max = make([]float64, dim)
	for j := range min {
		lo := rng.Float64() * 0.6
		min[j] = lo
		max[j] = lo + 0.35
	}
	return min, max
}

// TestPartialMatchAndBatchEndToEnd covers the two remaining endpoints
// against direct library calls, including the NaN→null wildcard
// transport.
func TestPartialMatchAndBatchEndToEnd(t *testing.T) {
	const dim = 5
	ix := testIndex(t, dim, 1500, 8, 0)
	srv, err := New(ix, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)

	spec := []float64{0.5, parsearch.Wildcard, 0.5, parsearch.Wildcard, parsearch.Wildcard}
	direct, _, err := ix.PartialMatchContext(context.Background(), spec, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	served, err := cl.PartialMatch(context.Background(), spec, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// Partial-match distances are NaN by design (distance to a box
	// center with wildcard dimensions), so compare NaN-aware instead of
	// through JSON.
	if len(direct) == 0 || len(direct) != len(served) {
		t.Fatalf("partial match: %d served, %d direct", len(served), len(direct))
	}
	for i := range direct {
		d, s := direct[i], served[i]
		if d.ID != s.ID || asJSON(t, d.Point) != asJSON(t, s.Point) ||
			(d.Dist != s.Dist && !(math.IsNaN(d.Dist) && math.IsNaN(s.Dist))) {
			t.Fatalf("partial match %d: served %+v, direct %+v", i, s, d)
		}
	}

	queries := make([][]float64, 9)
	for i := range queries {
		queries[i] = randQuery(dim, 100+i)
	}
	directBatch, _, err := ix.BatchKNNContext(context.Background(), queries, 7)
	if err != nil {
		t.Fatal(err)
	}
	servedBatch, err := cl.BatchKNN(context.Background(), queries, 7)
	if err != nil {
		t.Fatal(err)
	}
	if asJSON(t, directBatch) != asJSON(t, servedBatch) {
		t.Error("batch served result differs from direct call")
	}
}

// TestServedApproxKnobs drives the approximate-tier knob through the
// full serving path: an explicit exact knob (ε=0) must round-trip
// byte-identically to a direct library call even through the coalescer,
// and an engaged knob must serve full-length result sets.
func TestServedApproxKnobs(t *testing.T) {
	ix := testIndex(t, 4, 800, 4, 0)
	srv, err := New(ix, Config{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	q := randQuery(4, 55)
	direct, _, err := ix.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	served, err := cl.KNNApprox(ctx, q, 5, parsearch.Approx{Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}
	if asJSON(t, served) != asJSON(t, direct) {
		t.Error("served exact-knob result differs from direct call")
	}

	loose, err := cl.KNNApprox(ctx, q, 5, parsearch.Approx{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(loose) != 5 {
		t.Errorf("served ε=0.5 returned %d neighbors, want 5", len(loose))
	}

	batch, err := cl.BatchKNNApprox(ctx, [][]float64{q, randQuery(4, 56)}, 3,
		parsearch.Approx{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || len(batch[0]) != 3 || len(batch[1]) != 3 {
		t.Errorf("served approx batch shape %d items, want 2×3", len(batch))
	}
}

// TestObservabilitySurfacesApproxCounters pins the observability
// contract of the approximate tier: after a served KNNApprox request,
// both /varz (the expvar dump of the index registry) and /statusz (the
// embedded metrics snapshot) must report the approx_queries and
// pages_skipped_approx counters — a cluster operator tuning the
// recall/latency trade-off reads these, not the library's QueryStats.
func TestObservabilitySurfacesApproxCounters(t *testing.T) {
	ix := testIndex(t, 4, 800, 4, 0)
	srv, err := New(ix, Config{ExpvarName: "parsearch_approx_obs_test"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)

	if _, err := cl.KNNApprox(context.Background(), randQuery(4, 77), 5, parsearch.Approx{Epsilon: 0.5}); err != nil {
		t.Fatal(err)
	}

	// /varz: the expvar dump holds the registry under the published
	// name; the tier counters must be present and the query counted.
	resp, err := http.Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	var varz map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&varz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	reg, ok := varz["parsearch_approx_obs_test"]
	if !ok {
		t.Fatal("/varz does not publish the index registry")
	}
	var counters struct {
		ApproxQueries      *int64 `json:"approx_queries"`
		PagesSkippedApprox *int64 `json:"pages_skipped_approx"`
	}
	if err := json.Unmarshal(reg, &counters); err != nil {
		t.Fatal(err)
	}
	if counters.ApproxQueries == nil || counters.PagesSkippedApprox == nil {
		t.Fatalf("/varz registry lacks approx tier counters: %s", reg)
	}
	if *counters.ApproxQueries < 1 {
		t.Errorf("/varz approx_queries = %d after a served KNNApprox, want >= 1", *counters.ApproxQueries)
	}
	if *counters.PagesSkippedApprox < 0 {
		t.Errorf("/varz pages_skipped_approx = %d, want >= 0", *counters.PagesSkippedApprox)
	}

	// /statusz embeds the same snapshot under "metrics".
	resp, err = http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"approx_queries", "pages_skipped_approx"} {
		if _, ok := doc.Metrics[key]; !ok {
			t.Errorf("/statusz metrics lack %q", key)
		}
	}
	var served int64
	if err := json.Unmarshal(doc.Metrics["approx_queries"], &served); err != nil || served < 1 {
		t.Errorf("/statusz approx_queries = %d (%v), want >= 1", served, err)
	}
}

// TestHealthzReflectsFaults walks healthz through the fault states:
// all-live, failed-but-replicated (200, rerouted), failed-unreachable
// (503, degraded).
func TestHealthzReflectsFaults(t *testing.T) {
	ix := testIndex(t, 4, 600, 4, 1)
	srv, err := New(ix, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	check := func(wantStatus int, wantState string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus || h.Status != wantState {
			t.Errorf("healthz: %d %q, want %d %q", resp.StatusCode, h.Status, wantStatus, wantState)
		}
	}

	check(http.StatusOK, "ok")
	if err := ix.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	check(http.StatusOK, "rerouted")
	// Failing the replica of disk 1 makes its data unreachable.
	if err := ix.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	check(http.StatusServiceUnavailable, "degraded")
}

// TestStatusz sanity-checks the status document: index geometry,
// serving knobs, and a metrics snapshot that counts served queries.
func TestStatusz(t *testing.T) {
	ix := testIndex(t, 4, 400, 4, 0)
	srv, err := New(ix, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	if _, err := cl.KNN(context.Background(), randQuery(4, 0), 3); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Index struct {
			Dim   int `json:"dim"`
			Disks int `json:"disks"`
		} `json:"index"`
		Serving struct {
			MaxInFlight int `json:"max_in_flight"`
			Stats       struct {
				Requests int64 `json:"requests"`
			} `json:"stats"`
		} `json:"serving"`
		Metrics struct {
			BatchQueries int64 `json:"batch_queries"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Index.Dim != 4 || doc.Index.Disks != 4 {
		t.Errorf("statusz index geometry %+v", doc.Index)
	}
	if doc.Serving.MaxInFlight != 64 {
		t.Errorf("statusz MaxInFlight = %d, want default 64", doc.Serving.MaxInFlight)
	}
	if doc.Serving.Stats.Requests != 1 {
		t.Errorf("statusz served requests = %d, want 1", doc.Serving.Stats.Requests)
	}
	// The coalescer runs even a lone /v1/knn as a batch of one, so the
	// engine counts it among the batched queries.
	if doc.Metrics.BatchQueries != 1 {
		t.Errorf("statusz metrics batch_queries = %d, want 1", doc.Metrics.BatchQueries)
	}
}

// TestHealthzDurability pins the durability block of /healthz and
// /statusz: absent for an in-memory index, present with WAL state and
// the recovery summary for a durable one.
func TestHealthzDurability(t *testing.T) {
	plain := testIndex(t, 4, 100, 4, 0)
	srv, err := New(plain, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var h struct {
		Durability *json.RawMessage `json:"durability"`
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Durability != nil {
		t.Fatal("in-memory index reports a durability block")
	}

	dir := t.TempDir()
	dix, err := parsearch.Open(parsearch.Options{Dim: 4, Disks: 4, Durable: true, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dix.Insert([]float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	dsrv, err := New(dix, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dts := httptest.NewServer(dsrv.Handler())
	defer dts.Close()
	var dh struct {
		Durability *struct {
			Generation  uint64 `json:"generation"`
			SyncPolicy  string `json:"sync_policy"`
			WALLagBytes int64  `json:"wal_lag_bytes"`
		} `json:"durability"`
	}
	resp, err = http.Get(dts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&dh); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dh.Durability == nil {
		t.Fatal("durable index reports no durability block on /healthz")
	}
	if dh.Durability.SyncPolicy != "always" {
		t.Errorf("sync policy = %q, want always", dh.Durability.SyncPolicy)
	}
	if dh.Durability.WALLagBytes != 0 {
		t.Errorf("WAL lag = %d under the always policy at rest", dh.Durability.WALLagBytes)
	}

	var doc struct {
		Durability *struct {
			Durable         bool  `json:"durable"`
			WALWrittenBytes int64 `json:"wal_written_bytes"`
		} `json:"durability"`
	}
	resp, err = http.Get(dts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.Durability == nil || !doc.Durability.Durable {
		t.Fatal("durable index reports no durability on /statusz")
	}
	if doc.Durability.WALWrittenBytes == 0 {
		t.Error("statusz WAL written bytes = 0 after an insert")
	}
}

// TestServerValidation covers New's config validation.
func TestServerValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil index accepted")
	}
	ix := testIndex(t, 4, 100, 4, 0)
	if _, err := New(ix, Config{MaxBatch: 100, MaxBatchRequest: 10}); err == nil {
		t.Error("MaxBatch > MaxBatchRequest accepted")
	}
}

// ExampleServer shows mounting the serving API over a populated index.
func ExampleServer() {
	ix, _ := parsearch.Open(parsearch.Options{Dim: 2, Disks: 2})
	pts := [][]float64{{0.1, 0.1}, {0.2, 0.2}, {0.9, 0.9}, {0.15, 0.12}}
	_ = ix.Build(pts)
	srv, _ := New(ix, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cl := client.New(ts.URL)
	ns, _ := cl.KNN(context.Background(), []float64{0.11, 0.11}, 1)
	fmt.Printf("nearest at distance %.2f\n", math.Round(ns[0].Dist*100)/100)
	// Output: nearest at distance 0.01
}

// TestResponseBodyBytes pins the response bodies to what encoding/json
// wrote before the front encoded them itself: for every query kind the
// body, trailing newline included, is json.Encoder's encoding of the
// response value it decodes to, and it travels under its Content-Length.
// A request carrying fields this server has never heard of is served
// like one without them (the wire's forward-compatibility contract,
// through the front).
func TestResponseBodyBytes(t *testing.T) {
	const dim = 4
	ix := testIndex(t, dim, 600, 4, 0)
	srv, err := New(ix, Config{})
	if err != nil {
		t.Fatal(err)
	}
	url := newLocalServer(t, srv)
	post := func(path, body string) (http.Header, []byte) {
		t.Helper()
		resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d, %v: %s", path, resp.StatusCode, err, got)
		}
		return resp.Header, got
	}
	for _, c := range []struct {
		path, body string
		batch      bool
	}{
		{"/v1/knn", `{"query":[0.1,0.2,0.3,0.4],"k":7}`, false},
		{"/v1/knn", `{"query":[0.1,0.2,0.3,0.4],"k":7,"future_knob":{"depth":7},"hints":["a"]}`, false},
		{"/v1/range", `{"min":[0.1,0.1,0.1,0.1],"max":[0.6,0.6,0.6,0.6]}`, false},
		{"/v1/range", `{"min":[2,2,2,2],"max":[3,3,3,3],"future_knob":1}`, false}, // no match: "neighbors":null
		{"/v1/partialmatch", `{"spec":[0.5,null,0.5,null],"eps":0.2}`, false},     // NaN distances: "dist":null
		{"/v1/batch", `{"queries":[[0.1,0.2,0.3,0.4],[0.9,0.8,0.7,0.6]],"k":3,"future_knob":1}`, true},
	} {
		hdr, got := post(c.path, c.body)
		var v any = &wire.QueryResponse{}
		if c.batch {
			v = &wire.BatchResponse{}
		}
		if err := json.Unmarshal(got, v); err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("POST %s %s: body is not encoding/json's\ngot:  %.200s\nwant: %.200s", c.path, c.body, got, want.Bytes())
		}
		if cl := hdr.Get("Content-Length"); cl != strconv.Itoa(len(got)) {
			t.Errorf("POST %s: Content-Length %q for a %d-byte body", c.path, cl, len(got))
		}
	}
	// The two bodies with and without unknown request fields are equal
	// but for the advisory stats: same neighbors.
	_, plain := post("/v1/knn", `{"query":[0.1,0.2,0.3,0.4],"k":7}`)
	_, future := post("/v1/knn", `{"query":[0.1,0.2,0.3,0.4],"k":7,"future_knob":{"depth":7}}`)
	var a, b wire.QueryResponse
	if json.Unmarshal(plain, &a) != nil || json.Unmarshal(future, &b) != nil || asJSON(t, a.Neighbors) != asJSON(t, b.Neighbors) {
		t.Error("unknown request fields changed the answer")
	}
}

// infSearcher answers a k-NN as its Searcher does, with an infinite
// coordinate in every neighbor after the first.
type infSearcher struct{ Searcher }

func (s infSearcher) KNN(ctx context.Context, q []float64, k int, o QueryOpts) ([]parsearch.Neighbor, any, error) {
	ns, stats, err := s.Searcher.KNN(ctx, q, k, o)
	for i := 1; i < len(ns); i++ {
		ns[i].Point = []float64{math.Inf(1), 0}
	}
	return ns, stats, err
}

// TestUnencodableAnswerIs500 pins the one answer JSON cannot carry: a
// point with a non-finite coordinate. The front used to send an empty
// 200; it is a 500 with an error body, never a silent zero. No index
// stores such a point — every write path, Load and replay refuse one —
// so a Searcher forges it.
func TestUnencodableAnswerIs500(t *testing.T) {
	ix, err := parsearch.Open(parsearch.Options{Dim: 2, Disks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build([][]float64{{0.1, 0.1}, {0.2, 0.25}, {0.3, 0.3}}); err != nil {
		t.Fatal(err)
	}
	inner, err := New(ix, Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewFront(infSearcher{inner.sr}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(newLocalServer(t, srv), client.WithMaxRetries(1))
	if ns, err := cl.KNN(context.Background(), []float64{0.1, 0.1}, 1); err != nil || len(ns) != 1 {
		t.Fatalf("finite answer: %+v, %v", ns, err)
	}
	_, err = cl.KNN(context.Background(), []float64{0.1, 0.1}, 3)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusInternalServerError || ae.Code != "internal" {
		t.Errorf("answer holding an infinite coordinate: err = %v, want http 500 internal", err)
	}
}

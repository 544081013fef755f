package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parsearch"
	"parsearch/client"
	"parsearch/internal/data"
	"parsearch/internal/wire"
	"parsearch/server"
)

// cluster is an in-test multi-node deployment: one reference library
// index, m shard daemons each serving an identically-built full copy
// of the data (the steady state the catch-up bootstrap converges to),
// and a coordinator over them.
type cluster struct {
	lib    *parsearch.Index
	shards []*httptest.Server
	co     *Coordinator
}

func testPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func buildIndex(t testing.TB, pts [][]float64, dim, disks, replication int) *parsearch.Index {
	t.Helper()
	ix, err := parsearch.Open(parsearch.Options{Dim: dim, Disks: disks, Replication: replication})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(pts); err != nil {
		t.Fatal(err)
	}
	return ix
}

// newCluster builds an m-shard cluster over n points. Every shard
// runs its own engine built from the same point set — deterministic
// builds make the copies identical, modeling full-snapshot replicas.
func newCluster(t testing.TB, dim, n, disks, m, replication int) *cluster {
	t.Helper()
	return newClusterWith(t, dim, n, disks, m, replication, nil)
}

// newClusterWith is newCluster with every shard's handler passed
// through wrap, when it is not nil.
func newClusterWith(t testing.TB, dim, n, disks, m, replication int, wrap func(http.Handler) http.Handler) *cluster {
	t.Helper()
	pts := testPoints(n, dim, 42)
	c := &cluster{lib: buildIndex(t, pts, dim, disks, replication)}
	bases := make([]string, m)
	for i := 0; i < m; i++ {
		ix := buildIndex(t, pts, dim, disks, replication)
		srv, err := server.New(ix, server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		if wrap != nil {
			h = wrap(h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		c.shards = append(c.shards, ts)
		bases[i] = ts.URL
	}
	co, err := New(Config{
		Shards: bases, Dim: dim, Disks: disks,
		ClientOptions: []client.Option{client.WithBackoff(time.Millisecond, 5*time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.co = co
	return c
}

// kill makes shard i unreachable: refuses new connections and severs
// in-flight ones, like a process kill.
func (c *cluster) kill(i int) {
	c.shards[i].CloseClientConnections()
	c.shards[i].Close()
}

func asJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func randQuery(dim, i int) []float64 {
	rng := rand.New(rand.NewSource(int64(9000 + i)))
	q := make([]float64, dim)
	for j := range q {
		q[j] = rng.Float64()
	}
	return q
}

// TestClusterByteIdentity is the correctness acceptance of cluster
// mode: across KNN, Range, PartialMatch, and BatchKNN, with and
// without intra-shard replication, the coordinator's merged results
// are byte-identical to the single-process library over the same data.
func TestClusterByteIdentity(t *testing.T) {
	for _, replication := range []int{0, 1} {
		c := newCluster(t, 4, 2000, 16, 3, replication)
		ctx := context.Background()

		for i := 0; i < 10; i++ {
			q := randQuery(4, i)
			k := 1 + i*3%25
			want, _, err := c.lib.KNNContext(ctx, q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := c.co.KNNApprox(ctx, q, k, parsearch.Approx{})
			if err != nil {
				t.Fatal(err)
			}
			if asJSON(t, got) != asJSON(t, want) {
				t.Fatalf("replication=%d KNN(q%d, k=%d): cluster result differs from library", replication, i, k)
			}
			if st.Degraded || st.Rerouted {
				t.Fatalf("healthy cluster flagged degraded/rerouted: %+v", st)
			}
			if st.ShardsQueried != 3 {
				t.Fatalf("KNN queried %d shards, want 3", st.ShardsQueried)
			}
		}

		for i := 0; i < 5; i++ {
			lo, hi := float64(i)*0.08, float64(i)*0.08+0.3
			min := []float64{lo, lo, lo, lo}
			max := []float64{hi, hi, hi, hi}
			want, _, err := c.lib.RangeQueryContext(ctx, min, max)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := c.co.Range(ctx, min, max)
			if err != nil {
				t.Fatal(err)
			}
			if asJSON(t, got) != asJSON(t, want) {
				t.Fatalf("replication=%d Range(%d): cluster result differs from library", replication, i)
			}

			spec := []float64{lo + 0.1, parsearch.Wildcard, lo + 0.2, parsearch.Wildcard}
			wantPM, _, err := c.lib.PartialMatchContext(ctx, spec, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			gotPM, _, err := c.co.PartialMatch(ctx, spec, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			// Partial-match distances are NaN by design (distance to a
			// box center with wildcard dimensions), so compare
			// NaN-aware instead of through JSON.
			if len(gotPM) != len(wantPM) {
				t.Fatalf("replication=%d PartialMatch(%d): %d cluster results, %d library", replication, i, len(gotPM), len(wantPM))
			}
			for j := range wantPM {
				g, w := gotPM[j], wantPM[j]
				if g.ID != w.ID || asJSON(t, g.Point) != asJSON(t, w.Point) ||
					(g.Dist != w.Dist && !(math.IsNaN(g.Dist) && math.IsNaN(w.Dist))) {
					t.Fatalf("replication=%d PartialMatch(%d) item %d: cluster %+v, library %+v", replication, i, j, g, w)
				}
			}
		}

		queries := make([][]float64, 12)
		for i := range queries {
			queries[i] = randQuery(4, 100+i)
		}
		want, _, err := c.lib.BatchKNNContext(ctx, queries, 7)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := c.co.BatchKNNApprox(ctx, queries, 7, parsearch.Approx{})
		if err != nil {
			t.Fatal(err)
		}
		if asJSON(t, got) != asJSON(t, want) {
			t.Fatalf("replication=%d BatchKNN: cluster result differs from library", replication)
		}
		if st.ShardsQueried != 3 {
			t.Fatalf("batch queried %d shards, want 3", st.ShardsQueried)
		}
	}
}

// TestClusterOneRound pins the cost of a cluster k-NN: exactly one
// RPC to each shard that owns a group, all of them unbounded — no
// first round, no shipped k-th distance — and the same answer as the
// library, before and after a shard dies.
func TestClusterOneRound(t *testing.T) {
	var bounded, knnBodies atomic.Int64
	sniff := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/knn" {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					t.Error(err)
				}
				var fields map[string]json.RawMessage
				if json.Unmarshal(body, &fields) == nil {
					knnBodies.Add(1)
					if _, ok := fields["bound"]; ok {
						bounded.Add(1)
					}
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			h.ServeHTTP(w, r)
		})
	}
	c := newClusterWith(t, 4, 3000, 16, 3, 0, sniff)
	ctx := context.Background()

	run := func(first, owners int) {
		t.Helper()
		for i := first; i < first+10; i++ {
			q := randQuery(4, 200+i)
			for _, k := range []int{1, 16} {
				want, _, err := c.lib.KNNContext(ctx, q, k)
				if err != nil {
					t.Fatal(err)
				}
				before := c.co.Metrics().ShardRPCs
				got, st, err := c.co.KNNApprox(ctx, q, k, parsearch.Approx{})
				if err != nil {
					t.Fatal(err)
				}
				if asJSON(t, got) != asJSON(t, want) {
					t.Fatalf("KNN(q%d, k=%d): cluster result differs from library", i, k)
				}
				if rpcs := c.co.Metrics().ShardRPCs - before; rpcs != int64(owners) || st.ShardsQueried != owners {
					t.Fatalf("KNN(q%d, k=%d): %d shard RPCs, %d shards queried, want %d of each", i, k, rpcs, st.ShardsQueried, owners)
				}
				if st.PagesSavedByRemoteBound != 0 {
					t.Fatalf("KNN(q%d, k=%d): %d pages saved by a bound nobody shipped", i, k, st.PagesSavedByRemoteBound)
				}
			}
		}
	}
	run(0, 3)
	c.kill(1)
	if live := c.co.CheckHealth(ctx); live != 2 {
		t.Fatalf("%d live shards after a kill, want 2", live)
	}
	run(10, 2)

	if n := knnBodies.Load(); n != 20*3+20*2 {
		t.Errorf("shards saw %d k-NN bodies, want %d", n, 20*3+20*2)
	}
	if n := bounded.Load(); n != 0 {
		t.Errorf("%d shard requests carried a bound, want none", n)
	}
	snap := c.co.Metrics()
	if snap.ShardLatencyNs.Count != snap.ShardRPCs {
		t.Errorf("shard latency histogram observed %d RPCs of %d", snap.ShardLatencyNs.Count, snap.ShardRPCs)
	}
}

// TestClusterOldCoordinatorBound is the mixed-version half: a
// coordinator of the two-round protocol asks the home group's shard
// first and ships its k-th distance to the others as the wire "bound".
// Those hand-built second-round requests still get bounded answers from
// today's shards — the shard-restricted library query under that bound,
// often fewer than k or none — and the old merge over them is still
// the library's answer, byte for byte.
func TestClusterOldCoordinatorBound(t *testing.T) {
	c := newCluster(t, 4, 3000, 16, 3, 0)
	ctx := context.Background()
	clients := make([]*client.Client, len(c.shards))
	for i, ts := range c.shards {
		clients[i] = client.New(ts.URL)
	}
	short, empty, saved := 0, 0, 0
	for i := 0; i < 12; i++ {
		q := randQuery(4, 500+i)
		home, err := c.lib.HomeDisk(q)
		if err != nil {
			t.Fatal(err)
		}
		hg := home % 3
		for _, k := range []int{1, 16} {
			want, _, err := c.lib.KNNContext(ctx, q, k)
			if err != nil {
				t.Fatal(err)
			}
			ns, _, err := clients[hg].KNNRaw(ctx, wire.KNNRequest{Query: q, K: k, Shard: &wire.ShardSpec{Of: 3, Groups: []int{hg}}})
			if err != nil {
				t.Fatal(err)
			}
			if len(ns) != k {
				t.Fatalf("KNN(q%d, k=%d): home group answered %d of %d", i, k, len(ns), k)
			}
			results, bound := []rpcResult{{ns: ns}}, ns[k-1].Dist
			for g := 0; g < 3; g++ {
				if g == hg {
					continue
				}
				spec := wire.ShardSpec{Of: 3, Groups: []int{g}}
				got, st, err := clients[g].KNNRaw(ctx, wire.KNNRequest{Query: q, K: k, Bound: &bound, Shard: &spec})
				if err != nil {
					t.Fatalf("KNN(q%d, k=%d) group %d under bound %v: %v", i, k, g, bound, err)
				}
				lib, _, err := c.lib.KNNShardContext(ctx, q, k, parsearch.Approx{Bound: bound}, parsearch.ShardSpec{Of: 3, Groups: []int{g}})
				if err != nil {
					t.Fatal(err)
				}
				if asJSON(t, got) != asJSON(t, lib) {
					t.Fatalf("KNN(q%d, k=%d) group %d under bound %v: shard %s, library %s", i, k, g, bound, asJSON(t, got), asJSON(t, lib))
				}
				switch {
				case len(got) == 0:
					empty++
				case len(got) < k:
					short++
				}
				saved += st.PagesSavedByRemoteBound
				results = append(results, rpcResult{ns: got})
			}
			if got := mergeTopK(results, k); asJSON(t, got) != asJSON(t, want) {
				t.Fatalf("KNN(q%d, k=%d): two-round merge differs from library", i, k)
			}
		}
	}
	if short == 0 || empty == 0 {
		t.Errorf("%d short and %d empty second-round answers: want both kinds exercised", short, empty)
	}
	if saved == 0 {
		t.Error("the shipped bounds saved no page on any shard")
	}
}

// TestClusterForwardsBound: a caller's Approx.Bound reaches every
// shard, so the coordinator answers a bounded k-NN — full, short or
// empty — byte-identically to the library, for single queries and
// batches, and the pages the bound saved add up in the registry and
// on /statusz.
func TestClusterForwardsBound(t *testing.T) {
	c := newCluster(t, 4, 3000, 16, 3, 0)
	ctx := context.Background()
	const k = 10
	short, empty, savedTotal := 0, 0, 0
	var batch [][]float64
	for i := 0; i < 8; i++ {
		q := randQuery(4, 700+i)
		batch = append(batch, q)
		exact, _, err := c.lib.KNNContext(ctx, q, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, bound := range []float64{0.05, exact[0].Dist / 2, exact[k/2].Dist, exact[k-1].Dist, 2 * exact[k-1].Dist} {
			a := parsearch.Approx{Bound: bound}
			want, _, err := c.lib.KNNApprox(q, k, a)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := c.co.KNNApprox(ctx, q, k, a)
			if err != nil {
				t.Fatal(err)
			}
			if asJSON(t, got) != asJSON(t, want) {
				t.Fatalf("KNNApprox(q%d, bound %v): cluster %d results, library %d", i, bound, len(got), len(want))
			}
			switch {
			case len(want) == 0:
				empty++
			case len(want) < k:
				short++
			}
			savedTotal += st.PagesSavedByRemoteBound
		}
	}
	if short == 0 || empty == 0 {
		t.Errorf("%d short and %d empty bounded answers: want both kinds exercised", short, empty)
	}
	for _, bound := range []float64{0.05, 0.2} {
		a := parsearch.Approx{Bound: bound}
		want, _, err := c.lib.BatchKNNShardContext(context.Background(), batch, k, a, parsearch.ShardSpec{})
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := c.co.BatchKNNApprox(ctx, batch, k, a)
		if err != nil {
			t.Fatal(err)
		}
		if asJSON(t, got) != asJSON(t, want) {
			t.Fatalf("BatchKNNApprox(bound %v): cluster result differs from library", bound)
		}
		savedTotal += st.PagesSavedByRemoteBound
	}

	if savedTotal == 0 {
		t.Error("PagesSavedByRemoteBound = 0 across every bounded query")
	}
	snap := c.co.Metrics()
	if snap.PagesSavedByRemoteBound != int64(savedTotal) {
		t.Errorf("registry pages_saved_by_remote_bound = %d, want the per-query sum %d", snap.PagesSavedByRemoteBound, savedTotal)
	}
	front, err := NewServer(c.co, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	front.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	var doc struct {
		Metrics struct {
			PagesSavedByRemoteBound int64 `json:"pages_saved_by_remote_bound"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Metrics.PagesSavedByRemoteBound != int64(savedTotal) {
		t.Errorf("/statusz pages_saved_by_remote_bound = %d, want %d", doc.Metrics.PagesSavedByRemoteBound, savedTotal)
	}
}

// TestClusterBadArgumentsKeepShardsUp: an argument no shard would
// accept — one JSON cannot even carry — is the caller's error. It is
// refused before any RPC, and a request the client cannot encode is
// never taken for a dead shard: the cluster stays whole and the next
// query is answered as before.
func TestClusterBadArgumentsKeepShardsUp(t *testing.T) {
	c := newCluster(t, 4, 1500, 16, 3, 0)
	ctx := context.Background()
	q := randQuery(4, 900)
	nan, inf := math.NaN(), math.Inf(1)
	bad := map[string]func() error{
		"knn NaN coordinate": func() error {
			_, _, err := c.co.KNNApprox(ctx, []float64{0.5, nan, 0.5, 0.5}, 5, parsearch.Approx{})
			return err
		},
		"knn Inf coordinate": func() error {
			_, _, err := c.co.KNNApprox(ctx, []float64{0.5, inf, 0.5, 0.5}, 5, parsearch.Approx{})
			return err
		},
		"knn dimension":    func() error { _, _, err := c.co.KNNApprox(ctx, q[:3], 5, parsearch.Approx{}); return err },
		"knn k = 0":        func() error { _, _, err := c.co.KNNApprox(ctx, q, 0, parsearch.Approx{}); return err },
		"knn epsilon +Inf": func() error { _, _, err := c.co.KNNApprox(ctx, q, 5, parsearch.Approx{Epsilon: inf}); return err },
		"knn epsilon NaN":  func() error { _, _, err := c.co.KNNApprox(ctx, q, 5, parsearch.Approx{Epsilon: nan}); return err },
		"knn bound NaN":    func() error { _, _, err := c.co.KNNApprox(ctx, q, 5, parsearch.Approx{Bound: nan}); return err },
		"knn bound +Inf":   func() error { _, _, err := c.co.KNNApprox(ctx, q, 5, parsearch.Approx{Bound: inf}); return err },
		"knn bound < 0":    func() error { _, _, err := c.co.KNNApprox(ctx, q, 5, parsearch.Approx{Bound: -1}); return err },
		"batch NaN": func() error {
			_, _, err := c.co.BatchKNNApprox(ctx, [][]float64{q, {nan, 0, 0, 0}}, 5, parsearch.Approx{})
			return err
		},
		"batch empty": func() error { _, _, err := c.co.BatchKNNApprox(ctx, nil, 5, parsearch.Approx{}); return err },
		"batch epsilon +Inf": func() error {
			_, _, err := c.co.BatchKNNApprox(ctx, [][]float64{q}, 5, parsearch.Approx{Epsilon: inf})
			return err
		},
		"range NaN":      func() error { _, _, err := c.co.Range(ctx, []float64{nan, 0, 0, 0}, []float64{1, 1, 1, 1}); return err },
		"range inverted": func() error { _, _, err := c.co.Range(ctx, []float64{1, 0, 0, 0}, []float64{0, 1, 1, 1}); return err },
		"partial eps +Inf": func() error {
			_, _, err := c.co.PartialMatch(ctx, []float64{0.5, parsearch.Wildcard, 0.5, 0.5}, inf)
			return err
		},
		"partial Inf spec": func() error {
			_, _, err := c.co.PartialMatch(ctx, []float64{inf, parsearch.Wildcard, 0.5, 0.5}, 0.1)
			return err
		},
	}
	for name, call := range bad {
		if err := call(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	snap := c.co.Metrics()
	if snap.ShardRPCs != 0 || snap.QueryErrors != int64(len(bad)) {
		t.Errorf("after %d refused queries: %d shard RPCs, %d query errors; want 0 and %d", len(bad), snap.ShardRPCs, snap.QueryErrors, len(bad))
	}

	// A request that slipped past the checks and fails to encode aborts
	// its query without demoting the shards.
	_, _, _, err := c.co.scatter(ctx, func(ctx context.Context, cl *client.Client, spec wire.ShardSpec, out *rpcResult) error {
		_, _, err := cl.KNNRaw(ctx, wire.KNNRequest{Query: []float64{nan, 0, 0, 0}, K: 1, Shard: &spec})
		return err
	})
	if !errors.Is(err, client.ErrEncode) {
		t.Errorf("unencodable shard request: err = %v, want client.ErrEncode", err)
	}

	if h := c.co.Health(); h.Status != "ok" {
		t.Errorf("cluster health %q after bad arguments, want ok", h.Status)
	}
	want, _, err := c.lib.KNNContext(ctx, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := c.co.KNNApprox(ctx, q, 5, parsearch.Approx{})
	if err != nil {
		t.Fatalf("query after bad arguments: %v", err)
	}
	if asJSON(t, got) != asJSON(t, want) || st.Rerouted || st.ShardRetries != 0 || st.ShardsQueried != 3 {
		t.Errorf("query after bad arguments: stats %+v, identical %v", st, asJSON(t, got) == asJSON(t, want))
	}
}

// TestClusterShardKillMidStorm is the failover acceptance: a query
// storm runs against a 3-shard cluster while one shard is killed.
// Every query must keep returning results byte-identical to the
// library — the dead shard's groups fail over to the next shard in
// the ring, which serves the same snapshot — and the failover must be
// visible in the accounting, never silent.
func TestClusterShardKillMidStorm(t *testing.T) {
	c := newCluster(t, 4, 2000, 16, 3, 0)
	ctx := context.Background()

	const queries = 32
	expected := make([]string, queries)
	for i := 0; i < queries; i++ {
		want, _, err := c.lib.KNNContext(ctx, randQuery(4, 300+i), 10)
		if err != nil {
			t.Fatal(err)
		}
		expected[i] = asJSON(t, want)
	}

	var (
		wg       sync.WaitGroup
		killed   sync.WaitGroup
		rerouted atomic.Int64
		mismatch atomic.Int64
		failures atomic.Int64
	)
	killed.Add(1)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				if w == 0 && i == queries/4 {
					c.kill(1)
					killed.Done()
				}
				got, st, err := c.co.KNNApprox(ctx, randQuery(4, 300+i), 10, parsearch.Approx{})
				if err != nil {
					failures.Add(1)
					t.Errorf("worker %d query %d: %v", w, i, err)
					continue
				}
				if asJSON(t, got) != expected[i] {
					mismatch.Add(1)
				}
				if st.Degraded {
					t.Errorf("query flagged degraded with 2 live full-snapshot shards: %+v", st)
				}
				if st.Rerouted || st.ShardRetries > 0 {
					rerouted.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if mismatch.Load() > 0 {
		t.Errorf("%d queries returned results differing from the library during failover", mismatch.Load())
	}
	if failures.Load() > 0 {
		t.Errorf("%d queries failed despite 2 live shards", failures.Load())
	}

	// The kill must be observable: the coordinator marked the shard
	// down and re-issued its groups.
	killed.Wait()
	if _, st, err := c.co.KNNApprox(ctx, randQuery(4, 299), 10, parsearch.Approx{}); err != nil {
		t.Fatal(err)
	} else if !st.Rerouted {
		t.Errorf("post-kill query not flagged rerouted: %+v", st)
	}
	if c.co.Metrics().ShardRetries < 1 {
		t.Error("registry shard_retries = 0 after a mid-storm shard kill")
	}
	if h := c.co.Health(); h.Status != "rerouted" {
		t.Errorf("cluster health %q after one kill, want rerouted", h.Status)
	}

	// Degraded-never-wrong: with every shard dead the coordinator
	// refuses (ErrUnavailable) instead of fabricating an answer.
	c.kill(0)
	c.kill(2)
	if _, st, err := c.co.KNNApprox(ctx, randQuery(4, 298), 10, parsearch.Approx{}); !errors.Is(err, parsearch.ErrUnavailable) {
		t.Errorf("all-dead cluster: err = %v (stats %+v), want ErrUnavailable", err, st)
	} else if !st.Degraded || len(st.UnservedGroups) != 3 {
		t.Errorf("all-dead cluster stats %+v, want degraded with 3 unserved groups", st)
	}
	if h := c.co.Health(); h.Status != "degraded" {
		t.Errorf("cluster health %q with all shards dead, want degraded", h.Status)
	}
}

// TestClusterDegradedShardPropagates pins the other half of the
// degraded contract: a shard that answers but has itself lost data
// (intra-index failure beyond its replication) taints the cluster
// result as Degraded — the coordinator never launders a shard's
// partial answer into a clean one.
func TestClusterDegradedShardPropagates(t *testing.T) {
	c := newCluster(t, 4, 1500, 16, 3, 0)
	ctx := context.Background()

	// Fail a disk inside shard 2's engine. Without replication its
	// cells are unreachable, so shard 2's answers are best-effort.
	if err := failShardDisk(t, c, 2, 5); err != nil {
		t.Fatal(err)
	}
	_, st, err := c.co.KNNApprox(ctx, randQuery(4, 400), 8, parsearch.Approx{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Degraded {
		t.Errorf("cluster stats not degraded over a data-lossy shard: %+v", st)
	}
}

// failShardDisk reaches into the cluster helper to fail one simulated
// disk of one shard's engine. The httptest indirection has no admin
// endpoint, so the helper rebuilds the shard server around the same
// engine after mutating it.
func failShardDisk(t *testing.T, c *cluster, shard, disk int) error {
	t.Helper()
	// The shard servers were built over engines newCluster created; to
	// keep the helper simple the engines are rebuilt here with the
	// fault injected before serving.
	pts := testPoints(1500, 4, 42)
	ix := buildIndex(t, pts, 4, 16, 0)
	if err := ix.FailDisk(disk); err != nil {
		return err
	}
	srv, err := server.New(ix, server.Config{})
	if err != nil {
		return err
	}
	old := c.shards[shard]
	old.Close()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c.shards[shard] = ts
	// Point the coordinator's client at the replacement server.
	c.co.shards[shard].cl = client.New(ts.URL,
		client.WithBackoff(time.Millisecond, 5*time.Millisecond))
	c.co.shards[shard].down.Store(false)
	return nil
}

// TestClusterEmptyAndRecovery covers the remaining lifecycle edges:
// an empty cluster answers ErrEmpty like the library, and CheckHealth
// brings a marked-down shard back once it answers again.
func TestClusterEmptyAndRecovery(t *testing.T) {
	ctx := context.Background()

	// Empty cluster → ErrEmpty, matching parsearch.Index on no data.
	var bases []string
	for i := 0; i < 2; i++ {
		ix, err := parsearch.Open(parsearch.Options{Dim: 3, Disks: 4})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(ix, server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		bases = append(bases, ts.URL)
	}
	co, err := New(Config{Shards: bases, Dim: 3, Disks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := co.KNNApprox(ctx, []float64{0.1, 0.2, 0.3}, 5, parsearch.Approx{}); !errors.Is(err, parsearch.ErrEmpty) {
		t.Errorf("empty cluster KNN err = %v, want ErrEmpty", err)
	}

	// Recovery: a shard marked down mid-query rejoins after a
	// successful health probe.
	co.markDown(0)
	if h := co.Health(); h.Status != "rerouted" {
		t.Fatalf("health %q with one shard down, want rerouted", h.Status)
	}
	if live := co.CheckHealth(ctx); live != 2 {
		t.Fatalf("CheckHealth counted %d live shards, want 2", live)
	}
	if h := co.Health(); h.Status != "ok" {
		t.Errorf("health %q after recovery probe, want ok", h.Status)
	}
}

// TestCoordServerEndToEnd drives the coordinator's HTTP front with the
// ordinary client package: results match the library, internal fields
// are rejected at the door, healthz/statusz/varz report cluster state,
// and shutdown drains.
func TestCoordServerEndToEnd(t *testing.T) {
	c := newCluster(t, 4, 1500, 16, 3, 0)
	front, err := NewServer(c.co, ServerConfig{ExpvarName: "parsearch_coord_e2e_test"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	q := randQuery(4, 500)
	want, _, err := c.lib.KNNContext(ctx, q, 9)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.KNN(ctx, q, 9)
	if err != nil {
		t.Fatal(err)
	}
	if asJSON(t, got) != asJSON(t, want) {
		t.Error("served cluster KNN differs from library")
	}

	// Internal protocol fields are rejected at the cluster entrance.
	for _, body := range []string{
		`{"query":[0.1,0.2,0.3,0.4],"k":3,"bound":0.5}`,
		`{"query":[0.1,0.2,0.3,0.4],"k":3,"shard":{"of":3,"groups":[0]}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/knn", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("coordinator accepted internal field (body %s): status %d", body, resp.StatusCode)
		}
	}

	// healthz probes the shards and reports cluster state.
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
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Errorf("healthz %d %q, want 200 ok", resp.StatusCode, h.Status)
	}

	// statusz carries topology and the cluster metrics snapshot.
	resp, err = http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cluster struct {
			Groups int `json:"groups"`
			Shards []struct {
				Down bool `json:"down"`
			} `json:"shards"`
		} `json:"cluster"`
		Serving struct {
			MaxQueue         int     `json:"max_queue"`
			DefaultTimeoutMs float64 `json:"default_timeout_ms"`
			Stats            struct {
				Requests int64 `json:"requests"`
			} `json:"stats"`
		} `json:"serving"`
		Metrics struct {
			ShardRPCs int64 `json:"shard_rpcs"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.Cluster.Groups != 3 || len(doc.Cluster.Shards) != 3 {
		t.Errorf("statusz topology %+v", doc.Cluster)
	}
	if doc.Metrics.ShardRPCs < 1 {
		t.Errorf("statusz shard_rpcs = %d, want >= 1", doc.Metrics.ShardRPCs)
	}
	// The serving block is the shard daemon's, with its defaults.
	if sv := doc.Serving; sv.MaxQueue != 128 || sv.DefaultTimeoutMs != 10000 || sv.Stats.Requests < 1 {
		t.Errorf("statusz serving block %+v, want max_queue 128, 10s timeout, >= 1 request", sv)
	}

	// Drain: new queries bounce with 503/draining.
	if err := front.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.KNN(ctx, q, 3); !errors.Is(err, parsearch.ErrUnavailable) {
		t.Errorf("post-drain query err = %v, want ErrUnavailable", err)
	}
}

// BenchmarkClusterKNN drives k-NN queries through a coordinator over
// three shard fronts on loopback, one at a time, on the cluster
// benchmark's data shape: 50,000 Fourier points in 16 dimensions,
// quantile splits, 16 disks, k = 10, queries jittered from the
// data. A CPU profile of it splits what a shard RPC costs beyond the
// shard's own search:
//
//	go test -run '^$' -bench ClusterKNN -cpuprofile cpu.out ./coord
func BenchmarkClusterKNN(b *testing.B) {
	const dim, disks = 16, 16
	fourier := data.Fourier(50000, dim, 12, 0.15, 1)
	pts := make([][]float64, len(fourier))
	for i, p := range fourier {
		pts[i] = p
	}
	var shards []string
	for i := 0; i < 3; i++ {
		ix, err := parsearch.Open(parsearch.Options{Dim: dim, Disks: disks, QuantileSplits: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := ix.Build(pts); err != nil {
			b.Fatal(err)
		}
		srv, err := server.New(ix, server.Config{})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(ts.Close)
		shards = append(shards, ts.URL)
	}
	co, err := New(Config{Shards: shards, Dim: dim, Disks: disks})
	if err != nil {
		b.Fatal(err)
	}
	queries := data.QueriesFromData(fourier, 256, 0.02, 2)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := co.KNNApprox(ctx, queries[i%len(queries)], 10, parsearch.Approx{}); err != nil {
			b.Fatal(err)
		}
	}
}

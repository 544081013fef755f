package coord

import (
	"context"
	"encoding/json"
	"errors"
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
	pts := testPoints(n, dim, 42)
	c := &cluster{lib: buildIndex(t, pts, dim, disks, replication)}
	bases := make([]string, m)
	for i := 0; i < m; i++ {
		ix := buildIndex(t, pts, dim, disks, replication)
		srv, err := server.New(ix, server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
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
			got, st, err := c.co.KNN(ctx, q, k)
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
		got, st, err := c.co.BatchKNN(ctx, queries, 7)
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

// TestClusterRemoteBound proves the two-phase cross-network bound
// protocol actually prunes: on the 16-disk / 3-shard profile, phase 1
// regularly returns a full k, the shipped k-th distance seeds the
// phase-2 shards, and the remote-bound ledger comes back positive —
// while the results stay byte-identical (k points at or inside the
// shipped distance are already known).
func TestClusterRemoteBound(t *testing.T) {
	c := newCluster(t, 4, 3000, 16, 3, 0)
	ctx := context.Background()

	var savedTotal, boundsShipped int
	for i := 0; i < 20; i++ {
		q := randQuery(4, 200+i)
		want, _, err := c.lib.KNNContext(ctx, q, 16)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := c.co.KNN(ctx, q, 16)
		if err != nil {
			t.Fatal(err)
		}
		if asJSON(t, got) != asJSON(t, want) {
			t.Fatalf("KNN(q%d): bounded cluster result differs from library", i)
		}
		if st.RemoteBound > 0 {
			boundsShipped++
		}
		savedTotal += st.PagesSavedByRemoteBound
	}
	if boundsShipped == 0 {
		t.Error("no query shipped a phase-1 bound (20 queries, k=16, 3000 points)")
	}
	if savedTotal == 0 {
		t.Error("PagesSavedByRemoteBound = 0 across 20 queries: the shipped bound never pruned")
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
	if snap.RemoteBoundTightenings < int64(boundsShipped) {
		t.Errorf("registry remote_bound_tightenings = %d, want >= %d", snap.RemoteBoundTightenings, boundsShipped)
	}
	if snap.ShardRPCs < 40 {
		t.Errorf("registry shard_rpcs = %d, want >= 40 (2 phases x 20 queries)", snap.ShardRPCs)
	}
	if snap.ShardLatencyNs.Count < snap.ShardRPCs {
		t.Errorf("shard latency histogram observed %d RPCs of %d", snap.ShardLatencyNs.Count, snap.ShardRPCs)
	}
	t.Logf("remote bound: %d/20 queries shipped a bound, %d pages saved across phase-2 shards", boundsShipped, savedTotal)
}

// TestClusterShortPhase2Answers: a phase-2 shard answers with its points
// inside the shipped bound only — often fewer than k, at k = 1 usually
// none, and neither is an error — and the merge over such answers is
// still the library's answer. What the phase-2 shards returned is
// reproduced on the library index, which answers a shard-restricted,
// bounded query exactly as they do.
func TestClusterShortPhase2Answers(t *testing.T) {
	c := newCluster(t, 4, 3000, 16, 3, 0)
	ctx := context.Background()
	short, empty := 0, 0
	for i := 0; i < 12; i++ {
		q := randQuery(4, 500+i)
		for _, k := range []int{1, 16} {
			want, _, err := c.lib.KNNContext(ctx, q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := c.co.KNN(ctx, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if asJSON(t, got) != asJSON(t, want) {
				t.Fatalf("KNN(q%d, k=%d): cluster result differs from library", i, k)
			}
			if st.RemoteBound == 0 {
				continue
			}
			for g := 0; g < 3; g++ {
				part, _, err := c.lib.KNNShardContext(ctx, q, k, parsearch.Approx{Bound: st.RemoteBound},
					parsearch.ShardSpec{Of: 3, Groups: []int{g}})
				if err != nil {
					t.Fatalf("KNN(q%d, k=%d) group %d under the shipped bound: %v", i, k, g, err)
				}
				switch {
				case len(part) == 0:
					empty++
				case len(part) < k:
					short++
				}
			}
		}
	}
	if short == 0 || empty == 0 {
		t.Errorf("%d short and %d empty phase-2 answers: want both kinds exercised", short, empty)
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
				got, st, err := c.co.KNN(ctx, randQuery(4, 300+i), 10)
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
	if _, st, err := c.co.KNN(ctx, randQuery(4, 299), 10); err != nil {
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
	if _, st, err := c.co.KNN(ctx, randQuery(4, 298), 10); !errors.Is(err, parsearch.ErrUnavailable) {
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
	_, st, err := c.co.KNN(ctx, randQuery(4, 400), 8)
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
	if _, _, err := co.KNN(ctx, []float64{0.1, 0.2, 0.3}, 5); !errors.Is(err, parsearch.ErrEmpty) {
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

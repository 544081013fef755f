package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"parsearch"
	"parsearch/client"
	"parsearch/coord"
	"parsearch/internal/leak"
	"parsearch/server"
)

// The front's contracts — validation, load shedding, drain, deadlines,
// the empty and oversized cases — are the same whichever Searcher it
// serves, so one table runs them over both: an in-process index and a
// 3-shard cluster behind a coordinator. The table lives in the external
// test package because coord imports server.

const (
	frontDim   = 4
	frontDisks = 8
)

// frontIndex builds an index over n deterministic points; n = 0 leaves
// it empty.
func frontIndex(t *testing.T, n int) *parsearch.Index {
	t.Helper()
	ix, err := parsearch.Open(parsearch.Options{Dim: frontDim, Disks: frontDisks})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		return ix
	}
	rng := rand.New(rand.NewSource(7))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, frontDim)
		for j := range pts[i] {
			pts[i][j] = rng.Float64()
		}
	}
	if err := ix.Build(pts); err != nil {
		t.Fatal(err)
	}
	return ix
}

// frontQuery returns a deterministic query vector for index i.
func frontQuery(i int) []float64 {
	rng := rand.New(rand.NewSource(int64(1000 + i)))
	q := make([]float64, frontDim)
	for j := range q {
		q[j] = rng.Float64()
	}
	return q
}

// frontBackends start a front with the given knobs over n points. Each
// query stays in flight for at least hold: the index's tracer keeps every
// search inside the engine that long, the cluster's shards sleep that
// long.
var frontBackends = []struct {
	name  string
	start func(t *testing.T, cfg server.Config, n int, hold time.Duration) *server.Server
}{
	{"index", func(t *testing.T, cfg server.Config, n int, hold time.Duration) *server.Server {
		// Requests of one k queue behind each other's searches, so tests
		// that want separate requests give each its own k.
		cfg.Tracer = parsearch.TracerFunc(func(ev parsearch.TraceEvent) {
			if ev.Stage == parsearch.StagePlan {
				time.Sleep(hold)
			}
		})
		front, err := server.New(frontIndex(t, n), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return front
	}},
	{"cluster", func(t *testing.T, cfg server.Config, n int, hold time.Duration) *server.Server {
		// Every shard serves its own identically built full copy, the
		// state the catch-up bootstrap converges to.
		bases := make([]string, 3)
		for i := range bases {
			shard, err := server.New(frontIndex(t, n), server.Config{})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasPrefix(r.URL.Path, "/v1/") {
					time.Sleep(hold)
				}
				shard.Handler().ServeHTTP(w, r)
			}))
			t.Cleanup(ts.Close)
			bases[i] = ts.URL
		}
		co, err := coord.New(coord.Config{Shards: bases, Dim: frontDim, Disks: frontDisks})
		if err != nil {
			t.Fatal(err)
		}
		front, err := coord.NewServer(co, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return front
	}},
}

// forEachFront runs fn against a freshly started front of each backend.
func forEachFront(t *testing.T, cfg server.Config, n int, hold time.Duration, fn func(t *testing.T, front *server.Server, url string)) {
	for _, b := range frontBackends {
		t.Run(b.name, func(t *testing.T) {
			front := b.start(t, cfg, n, hold)
			ts := httptest.NewServer(front.Handler())
			defer ts.Close()
			fn(t, front, ts.URL)
		})
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// postStatus posts a body and returns the status and wire error code.
func postStatus(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var er struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Errorf("POST %s %q: undecodable error body: %v", url, body, err)
	}
	return resp.StatusCode, er.Code
}

// TestBadRequests pins the 400 mapping of the validating decoder
// for every endpoint, and the 413 of a body over MaxBodyBytes.
func TestBadRequests(t *testing.T) {
	forEachFront(t, server.Config{MaxBodyBytes: 256}, 200, 0, func(t *testing.T, _ *server.Server, url string) {
		cases := []struct{ path, body string }{
			{"/v1/knn", `{"query":[0.1,0.2],"k":5}`},         // wrong dim
			{"/v1/knn", `{"query":[0.1,0.2,0.3,0.4],"k":0}`}, // bad k
			{"/v1/knn", `{"query":[1e999,0,0,0],"k":1}`},     // Inf
			{"/v1/knn", `{`}, // malformed
			{"/v1/range", `{"min":[1,0,0,0],"max":[0,1,1,1]}`}, // inverted
			{"/v1/partialmatch", `{"spec":[null,null,null,null],"eps":0.1}`},
			{"/v1/batch", `{"queries":[],"k":2}`},
			// Approximate-tier knobs out of range.
			{"/v1/knn", `{"query":[0.1,0.2,0.3,0.4],"k":1,"epsilon":-0.5}`},
			{"/v1/knn", `{"query":[0.1,0.2,0.3,0.4],"k":1,"epsilon":1e7}`},
			{"/v1/knn", `{"query":[0.1,0.2,0.3,0.4],"k":1,"epsilon":1e999}`},
			// The retired recall_target is an unknown field: it neither
			// rescues nor replaces the epsilon check beside it.
			{"/v1/knn", `{"query":[0.1,0.2,0.3,0.4],"k":1,"recall_target":0.9,"epsilon":-0.5}`},
			{"/v1/batch", `{"queries":[[0.1,0.2,0.3,0.4]],"k":1,"recall_target":"x","epsilon":1e7}`},
			// Refused behind the seam: more groups than the index has
			// disks, and a coordinator takes no shard field at all.
			{"/v1/knn", `{"query":[0.1,0.2,0.3,0.4],"k":1,"shard":{"of":9,"groups":[0]}}`},
		}
		for _, c := range cases {
			if status, code := postStatus(t, url+c.path, c.body); status != http.StatusBadRequest || code != "bad_request" {
				t.Errorf("POST %s %q: status %d code %s, want 400 bad_request", c.path, c.body, status, code)
			}
		}
		// Forward compatibility: what an old client sent as recall_target
		// — in or out of its old range — is answered, not refused.
		for _, c := range []struct{ path, body string }{
			{"/v1/knn", `{"query":[0.1,0.2,0.3,0.4],"k":1,"recall_target":1.5}`},
			{"/v1/batch", `{"queries":[[0.1,0.2,0.3,0.4]],"k":1,"recall_target":-1}`},
		} {
			if status, _ := postStatus(t, url+c.path, c.body); status != http.StatusOK {
				t.Errorf("POST %s %q: status %d, want 200 (recall_target is an ignored unknown field)", c.path, c.body, status)
			}
		}
		big := `{"query":[0.1,0.2,0.3,0.4],"k":1,"pad":"` + strings.Repeat("x", 512) + `"}`
		for _, path := range []string{"/v1/knn", "/v1/range", "/v1/partialmatch", "/v1/batch"} {
			if status, code := postStatus(t, url+path, big); status != http.StatusRequestEntityTooLarge || code != "bad_request" {
				t.Errorf("POST %s with a %d-byte body over a 256-byte limit: status %d code %s, want 413 bad_request",
					path, len(big), status, code)
			}
		}
	})
}

// TestQueueOverflow429 pins the load-shedding contract: with one
// in-flight slot and a one-deep queue, a third concurrent request is
// answered 429 — a well-formed HTTP rejection, never a dropped
// connection — and is not retried by the default client policy.
func TestQueueOverflow429(t *testing.T) {
	cfg := server.Config{MaxInFlight: 1, MaxQueue: 1}
	forEachFront(t, cfg, 800, 400*time.Millisecond, func(t *testing.T, front *server.Server, url string) {
		cl := client.New(url)
		results := make(chan error, 2)
		go func() {
			_, err := cl.KNN(context.Background(), frontQuery(0), 3)
			results <- err
		}()
		waitFor(t, func() bool { return front.Stats().InFlight == 1 })
		go func() {
			_, err := cl.KNN(context.Background(), frontQuery(1), 4)
			results <- err
		}()
		waitFor(t, func() bool { return front.Stats().Queued == 1 })

		_, err := cl.KNN(context.Background(), frontQuery(2), 5)
		var ae *client.APIError
		if !errors.As(err, &ae) {
			t.Fatalf("overflow request: err = %v, want APIError", err)
		}
		if ae.Status != http.StatusTooManyRequests || ae.Code != "queue_full" {
			t.Errorf("overflow request: status %d code %s, want 429 queue_full", ae.Status, ae.Code)
		}
		for i := 0; i < 2; i++ {
			if err := <-results; err != nil {
				t.Errorf("parked request %d: %v", i, err)
			}
		}
		if st := front.Stats(); st.RejectedQueueFull != 1 {
			t.Errorf("RejectedQueueFull = %d, want 1", st.RejectedQueueFull)
		}
	})
}

// TestShutdownDrains pins the graceful-drain contract: requests
// in flight when Shutdown begins all complete, requests arriving
// during the drain are rejected with 503/draining, /healthz answers
// 503 "draining" whatever the backend's own health, and Shutdown
// returns once the in-flight set is empty.
func TestShutdownDrains(t *testing.T) {
	const inflight = 12
	forEachFront(t, server.Config{}, 1200, 300*time.Millisecond, func(t *testing.T, front *server.Server, url string) {
		cl := client.New(url, client.WithMaxRetries(1))
		var wg sync.WaitGroup
		errs := make([]error, inflight)
		for i := 0; i < inflight; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = cl.KNN(context.Background(), frontQuery(i), 5)
			}(i)
		}
		waitFor(t, func() bool { return front.Stats().InFlight >= inflight })

		shutdownDone := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			shutdownDone <- front.Shutdown(ctx)
		}()
		waitFor(t, func() bool { return front.Stats().Draining })

		_, err := cl.KNN(context.Background(), frontQuery(999), 5)
		if !errors.Is(err, parsearch.ErrUnavailable) {
			t.Errorf("request during drain: err = %v, want ErrUnavailable", err)
		}
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || ae.Code != "draining" {
			t.Errorf("request during drain: %v, want http 503 draining", err)
		}

		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Status   string `json:"status"`
			Draining bool   `json:"draining"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" || !h.Draining {
			t.Errorf("healthz during drain: %d %+v, want 503 draining", resp.StatusCode, h)
		}

		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("in-flight request %d failed during drain: %v", i, err)
			}
		}
		if err := <-shutdownDone; err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if st := front.Stats(); st.InFlight != 0 {
			t.Errorf("InFlight = %d after drain", st.InFlight)
		}
		if err := front.Shutdown(context.Background()); err != nil {
			t.Errorf("second Shutdown: %v", err)
		}
		leak.Check(t, "server.(*coalescer)")
	})
}

// TestDeadlinePropagation pins the deadline mapping: a request whose
// deadline expires while it is queued surfaces to the client as its
// deadline, and the front accounts it as a 504 — not a hang or a 500.
func TestDeadlinePropagation(t *testing.T) {
	cfg := server.Config{MaxInFlight: 1, MaxQueue: 4}
	forEachFront(t, cfg, 400, 400*time.Millisecond, func(t *testing.T, front *server.Server, url string) {
		cl := client.New(url, client.WithMaxRetries(1))
		blocker := make(chan error, 1)
		go func() {
			_, err := cl.KNN(context.Background(), frontQuery(0), 3)
			blocker <- err
		}()
		waitFor(t, func() bool { return front.Stats().InFlight == 1 })

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		if _, err := cl.KNN(ctx, frontQuery(1), 4); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("queued request past deadline: err = %v, want DeadlineExceeded", err)
		}
		waitFor(t, func() bool { return front.Stats().DeadlineExpired == 1 })
		if err := <-blocker; err != nil {
			t.Errorf("blocking request: %v", err)
		}
	})
}

// TestEmptyBackend404 pins the empty-backend mapping: 404 with the
// "empty" code, which the client turns back into parsearch.ErrEmpty.
func TestEmptyBackend404(t *testing.T) {
	forEachFront(t, server.Config{}, 0, 0, func(t *testing.T, _ *server.Server, url string) {
		_, err := client.New(url).KNN(context.Background(), frontQuery(0), 3)
		if !errors.Is(err, parsearch.ErrEmpty) {
			t.Errorf("empty backend: err = %v, want ErrEmpty", err)
		}
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusNotFound || ae.Code != "empty" {
			t.Errorf("empty backend: %v, want http 404 empty", err)
		}
	})
}

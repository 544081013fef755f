package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"parsearch"
	"parsearch/client"
	"parsearch/internal/leak"
)

// The coalescer battery. Nothing here is timed: a test holds a search
// inside the engine with a blocking Config.Tracer, lets the queue it
// wants form behind it, and lets go. What a test then asserts is decided
// by the state machine, not by the scheduler.

// newLocalServer mounts the server on an httptest listener torn down
// with the test, returning its base URL.
func newLocalServer(t *testing.T, srv *Server) string {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func errForLen(got, want int) error {
	return fmt.Errorf("got %d neighbors, want %d", got, want)
}

// holdTracer parks engine queries at their plan event: the first event a
// query emits, on the goroutine that called the engine, holding no lock.
// It also keeps the error every query ended with.
type holdTracer struct {
	mu    sync.Mutex
	gates map[string]*gate // by TraceEvent.Op
	errs  []string         // "op: error text" of every error event
}

// gate holds the queries of one op; every search of the coalescer, a
// leader's included, is a "batch".
type gate struct {
	h       *holdTracer
	op      string
	parked  chan struct{} // one token per query that arrived
	release chan struct{} // closed by open
	panics  bool          // parked queries panic instead of resuming
}

func newHoldTracer() *holdTracer { return &holdTracer{gates: map[string]*gate{}} }

// hold parks every query of op from now on, until the gate is opened.
func (h *holdTracer) hold(op string) *gate {
	// parked never blocks a query: no test parks anywhere near 1024.
	g := &gate{h: h, op: op, parked: make(chan struct{}, 1024), release: make(chan struct{})}
	h.mu.Lock()
	h.gates[op] = g
	h.mu.Unlock()
	return g
}

func (h *holdTracer) Event(ev parsearch.TraceEvent) {
	h.mu.Lock()
	if ev.Stage == parsearch.StageError {
		h.errs = append(h.errs, ev.Op+": "+ev.Err)
	}
	g := h.gates[ev.Op]
	h.mu.Unlock()
	if g == nil || ev.Stage != parsearch.StagePlan {
		return
	}
	g.parked <- struct{}{}
	<-g.release
	if g.panics {
		panic("holdTracer: told to panic")
	}
}

// errors returns the error events seen so far.
func (h *holdTracer) errors() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.errs...)
}

// wait blocks until one more query of the gate's op is parked.
func (g *gate) wait(t *testing.T) {
	t.Helper()
	select {
	case <-g.parked:
	case <-time.After(10 * time.Second):
		t.Fatalf("no %s query reached the engine", g.op)
	}
}

// pass stops holding new queries; the parked ones stay parked.
func (g *gate) pass() {
	g.h.mu.Lock()
	if g.h.gates[g.op] == g {
		delete(g.h.gates, g.op)
	}
	g.h.mu.Unlock()
}

// open lets the parked queries go and stops holding new ones.
func (g *gate) open() {
	g.pass()
	close(g.release)
}

// eventually polls cond; the conditions polled here are reached by
// requests already on their way, never by time passing.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
	}
}

// coalescerOf returns the coalescer behind an index front.
func coalescerOf(srv *Server) *coalescer { return srv.sr.(*indexSearcher).coal }

// queued returns the length of the queue behind key's running search, and
// whether a search of key is running at all.
func (c *coalescer) queued(key groupKey) (n int, busy bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, busy := c.busy[key]
	if g != nil {
		n = len(g.queries)
	}
	return n, busy
}

func waitQueued(t *testing.T, c *coalescer, key groupKey, want int) {
	t.Helper()
	eventually(t, fmt.Sprintf("%d requests queued behind %+v", want, key), func() bool {
		n, _ := c.queued(key)
		return n == want
	})
}

// waitIdle waits for every key to go idle (the goroutine of the last
// batch hands off after it has answered) and checks it left nothing.
func waitIdle(t *testing.T, c *coalescer) {
	t.Helper()
	eventually(t, "coalescer idle", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.busy) == 0
	})
	leak.Check(t, "server.(*coalescer)")
}

// wantKNN is the library's answer to query i, as JSON.
func wantKNN(t *testing.T, ix *parsearch.Index, dim, i, k int) string {
	t.Helper()
	ns, _, err := ix.KNN(randQuery(dim, i), k)
	if err != nil {
		t.Fatal(err)
	}
	return asJSON(t, ns)
}

// fire sends requests lo..hi-1 concurrently through the client and
// returns a wait function that checks every answer against the library.
func fire(t *testing.T, ix *parsearch.Index, cl *client.Client, dim, k, lo, hi int) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	got := make([]string, hi)
	errs := make([]error, hi)
	for i := lo; i < hi; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ns, err := cl.KNN(context.Background(), randQuery(dim, i), k)
			if err != nil {
				errs[i] = err
				return
			}
			b, _ := json.Marshal(ns)
			got[i] = string(b)
		}(i)
	}
	return func() {
		t.Helper()
		wg.Wait()
		for i := lo; i < hi; i++ {
			if errs[i] != nil {
				t.Errorf("request %d: %v", i, errs[i])
			} else if want := wantKNN(t, ix, dim, i, k); got[i] != want {
				t.Errorf("request %d: served result differs from the library's\ngot:  %.120s\nwant: %.120s", i, got[i], want)
			}
		}
	}
}

// heldFront is an index front with request 0 leading its key, parked
// inside the engine until leader is opened; waitLeader then checks its
// answer.
type heldFront struct {
	srv        *Server
	coal       *coalescer
	url        string
	cl         *client.Client
	h          *holdTracer
	leader     *gate
	waitLeader func()
}

func newHeldFront(t *testing.T, ix *parsearch.Index, cfg Config, dim, k int) *heldFront {
	t.Helper()
	f := &heldFront{h: newHoldTracer()}
	f.leader = f.h.hold("batch")
	cfg.Tracer = f.h
	srv, err := New(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.srv, f.coal, f.url = srv, coalescerOf(srv), newLocalServer(t, srv)
	f.cl = client.New(f.url, client.WithMaxRetries(1))
	f.waitLeader = fire(t, ix, f.cl, dim, k, 0, 1)
	f.leader.wait(t)
	f.leader.pass() // only the leader is held; what queues behind it runs freely
	return f
}

// TestCoalescerLoneRequestNeverWaits pins the point of the design: a
// request on an idle front is dispatched at once, as a batch of one, and
// leaves no goroutine and no state behind.
func TestCoalescerLoneRequestNeverWaits(t *testing.T) {
	const dim, k = 6, 8
	ix := testIndex(t, dim, 1500, 8, 0)
	srv, err := New(ix, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(newLocalServer(t, srv))
	for i := 0; i < 3; i++ {
		fire(t, ix, cl, dim, k, i, i+1)()
		if _, busy := coalescerOf(srv).queued(groupKey{k: k}); busy {
			t.Fatalf("request %d answered, its key still busy", i)
		}
		leak.Check(t, "server.(*coalescer)")
		st := srv.Stats()
		if n := int64(i + 1); st.CoalescedQueries != n || st.CoalescedBatches != n || st.MaxCoalescedBatch != 1 {
			t.Fatalf("after %d lone requests: %d queries in %d batches, largest %d; want %d batches of one",
				n, st.CoalescedQueries, st.CoalescedBatches, st.MaxCoalescedBatch, n)
		}
	}
}

// TestCoalescerQueueBecomesNextBatch holds a leader, queues N < MaxBatch
// followers behind it and releases: exactly two searches, of 1 and of N,
// every answer byte-identical to the library's.
func TestCoalescerQueueBecomesNextBatch(t *testing.T) {
	const dim, k, followers = 6, 8, 7
	ix := testIndex(t, dim, 1500, 8, 0)
	f := newHeldFront(t, ix, Config{MaxBatch: 16}, dim, k)
	waitFollowers := fire(t, ix, f.cl, dim, k, 1, 1+followers)
	waitQueued(t, f.coal, groupKey{k: k}, followers)
	if st := f.srv.Stats(); st.CoalescedBatches != 1 {
		t.Fatalf("%d searches issued while the leader is held, want its own only", st.CoalescedBatches)
	}
	f.leader.open()
	f.waitLeader()
	waitFollowers()
	st := f.srv.Stats()
	if st.CoalescedBatches != 2 || st.CoalescedQueries != 1+followers || st.MaxCoalescedBatch != followers {
		t.Errorf("%d queries in %d batches, largest %d; want %d in 2, largest %d",
			st.CoalescedQueries, st.CoalescedBatches, st.MaxCoalescedBatch, 1+followers, followers)
	}
	waitIdle(t, f.coal)
}

// TestCoalescingProperty is the property test of the coalescer: N >
// MaxBatch same-k requests behind a held leader produce results
// byte-identical to N independent KNN calls, every request is answered
// through the coalescer, no batch exceeds MaxBatch, and the batches
// partition the requests exactly. A queue that fills runs at once,
// beside the held leader (the size-triggered path); the rest runs when
// the leader returns (the hand-off path).
func TestCoalescingProperty(t *testing.T) {
	const (
		dim      = 6
		k        = 8
		requests = 48
		maxBatch = 4
	)
	ix := testIndex(t, dim, 1500, 8, 0)
	f := newHeldFront(t, ix, Config{MaxBatch: maxBatch}, dim, k)
	waitFollowers := fire(t, ix, f.cl, dim, k, 1, requests)

	// 47 followers: eleven full batches run while the leader is held,
	// three requests stay queued behind it.
	const full, rest = (requests - 1) / maxBatch, (requests - 1) % maxBatch
	eventually(t, "full queues flushed beside the held leader", func() bool {
		return f.srv.Stats().CoalescedBatches == 1+full
	})
	waitQueued(t, f.coal, groupKey{k: k}, rest)
	f.leader.open()
	f.waitLeader()
	waitFollowers()

	st := f.srv.Stats()
	if st.CoalescedQueries != requests {
		t.Errorf("CoalescedQueries = %d, want %d (every request must go through the coalescer)",
			st.CoalescedQueries, requests)
	}
	if st.MaxCoalescedBatch != maxBatch {
		t.Errorf("MaxCoalescedBatch = %d, want MaxBatch %d", st.MaxCoalescedBatch, maxBatch)
	}
	// Conservation: 1 + 11·4 + 3 requests in 1 + 11 + 1 searches.
	if want := int64(1 + full + 1); st.CoalescedBatches != want {
		t.Errorf("CoalescedBatches = %d, want %d", st.CoalescedBatches, want)
	}
	waitIdle(t, f.coal)
}

// TestCoalescerMixedK pins the grouping key: concurrent requests with
// different k never share a batch (a batch has one k), yet all answer
// correctly.
func TestCoalescerMixedK(t *testing.T) {
	const dim = 6
	ix := testIndex(t, dim, 1000, 8, 0)
	srv, err := New(ix, Config{MaxBatch: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := newLocalServer(t, srv)
	cl := client.New(ts)

	var wg sync.WaitGroup
	errs := make([]error, 24)
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := 1 + i%3 // three distinct ks
			ns, err := cl.KNN(context.Background(), randQuery(dim, i), k)
			if err == nil && len(ns) != k {
				err = errForLen(len(ns), k)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
	if st := srv.Stats(); st.CoalescedBatches < 3 {
		t.Errorf("CoalescedBatches = %d, want >= 3 (one per distinct k)", st.CoalescedBatches)
	}
	waitIdle(t, coalescerOf(srv))
}

// TestCoalescerKeyIsolation pins that a busy key delays nobody else: with
// a search of k held inside the engine, another k and the same k under
// another ε are answered at once, by searches of their own.
func TestCoalescerKeyIsolation(t *testing.T) {
	const dim, k = 6, 5
	ix := testIndex(t, dim, 1000, 8, 0)
	f := newHeldFront(t, ix, Config{}, dim, k)

	fire(t, ix, f.cl, dim, k+1, 1, 2)()
	ns, err := f.cl.KNNApprox(context.Background(), randQuery(dim, 2), k, parsearch.Approx{Epsilon: 0.5})
	if err != nil || len(ns) != k {
		t.Errorf("same k under another ε: %d neighbors, %v", len(ns), err)
	}
	if n, busy := f.coal.queued(groupKey{k: k}); !busy || n != 0 {
		t.Errorf("held key: busy %v with %d queued, want busy with none", busy, n)
	}
	if st := f.srv.Stats(); st.CoalescedBatches != 3 || st.CoalescedQueries != 3 {
		t.Errorf("%d queries in %d batches, want three searches of one", st.CoalescedQueries, st.CoalescedBatches)
	}
	// recall_target is no part of the key: it is an unknown field since the
	// LSH pre-filter went, so two old-client requests that differ only in
	// it queue behind the held search of their k and share one batch.
	var old sync.WaitGroup
	for _, rt := range []string{"0.5", "0.9"} {
		old.Add(1)
		go func() {
			defer old.Done()
			body := fmt.Sprintf(`{"query":%s,"k":%d,"recall_target":%s}`, asJSON(t, randQuery(dim, 3)), k, rt)
			resp, err := http.Post(f.url+"/v1/knn", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("recall_target %s: %v", rt, err)
				return
			}
			defer resp.Body.Close()
			var got struct{ Neighbors []json.RawMessage }
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode != http.StatusOK || len(got.Neighbors) != k {
				t.Errorf("recall_target %s: status %d, %d neighbors, %v", rt, resp.StatusCode, len(got.Neighbors), err)
			}
		}()
	}
	waitQueued(t, f.coal, groupKey{k: k}, 2)
	f.leader.open()
	f.waitLeader()
	old.Wait()
	if st := f.srv.Stats(); st.CoalescedBatches != 4 || st.CoalescedQueries != 5 || st.MaxCoalescedBatch != 2 {
		t.Errorf("%d queries in %d batches, largest %d; want the two recall_target requests in one batch of two",
			st.CoalescedQueries, st.CoalescedBatches, st.MaxCoalescedBatch)
	}
	waitIdle(t, f.coal)
}

// TestCoalescerRequesterTimeout pins the detach semantics: a waiter
// whose context expires while it is queued gets its deadline error while
// the batch still answers the other waiters.
func TestCoalescerRequesterTimeout(t *testing.T) {
	const dim, k = 6, 5
	ix := testIndex(t, dim, 800, 8, 0)
	f := newHeldFront(t, ix, Config{}, dim, k)
	impatient := client.New(f.url, client.WithMaxRetries(1), client.WithTimeout(20*time.Millisecond))

	waitPatient := fire(t, ix, f.cl, dim, k, 1, 2)
	waitQueued(t, f.coal, groupKey{k: k}, 1)
	_, err := impatient.KNN(context.Background(), randQuery(dim, 2), k)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("impatient waiter: err = %v, want its deadline", err)
	}
	f.leader.open()
	f.waitLeader()
	waitPatient()
	waitIdle(t, f.coal)
}

// TestCoalescerLeaderFailureHandsOff pins the deferred hand-off: a
// leader that is cancelled mid-search (which cancels its batch of one),
// or that panics out of the engine (net/http recovers a handler's
// panic), still passes its key on — the requests queued behind it are
// answered and the key goes idle.
func TestCoalescerLeaderFailureHandsOff(t *testing.T) {
	const dim, k, followers = 6, 5, 3
	for _, mode := range []string{"cancelled", "panics"} {
		t.Run(mode, func(t *testing.T) {
			ix := testIndex(t, dim, 800, 8, 0)
			h := newHoldTracer()
			leader := h.hold("batch")
			leader.panics = mode == "panics"
			srv, err := New(ix, Config{Tracer: h})
			if err != nil {
				t.Fatal(err)
			}
			sr, coal := srv.sr, coalescerOf(srv)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			leaderDone := make(chan any, 1)
			go func() {
				defer func() {
					if p := recover(); p != nil {
						leaderDone <- p
					}
				}()
				_, _, err := sr.KNN(ctx, randQuery(dim, 0), k, QueryOpts{})
				leaderDone <- err
			}()
			leader.wait(t)
			leader.pass() // the batch behind the leader must neither park nor panic

			// Stranded followers would wait for ever; bound the failure.
			bounded, stop := context.WithTimeout(context.Background(), 10*time.Second)
			defer stop()
			var wg sync.WaitGroup
			got := make([]string, followers)
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ns, _, err := sr.KNN(bounded, randQuery(dim, 1+i), k, QueryOpts{})
					if err != nil {
						t.Errorf("follower %d: %v", i, err)
					}
					b, _ := json.Marshal(ns)
					got[i] = string(b)
				}(i)
			}
			waitQueued(t, coal, groupKey{k: k}, followers)

			cancel()
			leader.open()
			switch out := <-leaderDone; {
			case mode == "panics" && out != "holdTracer: told to panic":
				t.Errorf("leader ended with %v, want the tracer's panic", out)
			case mode == "cancelled" && out != any(context.Canceled):
				t.Errorf("leader ended with %v, want context.Canceled", out)
			}
			wg.Wait()
			for i := range got {
				if want := wantKNN(t, ix, dim, 1+i, k); got[i] != want {
					t.Errorf("follower %d: result differs from the library's", i)
				}
			}
			if st := srv.Stats(); st.CoalescedBatches != 2 || st.CoalescedQueries != 1+followers {
				t.Errorf("%d queries in %d batches, want %d in 2", st.CoalescedQueries, st.CoalescedBatches, 1+followers)
			}
			waitIdle(t, coal)
		})
	}
}

// TestCoalescerAbandonedBatch pins that a batch nobody waits for any
// more is cancelled instead of run to the end, whether its waiters gave
// up while it was still queued or when it was already inside the engine:
// the followers are answered 504, the batch's engine call returns
// context.Canceled, and the key goes idle.
func TestCoalescerAbandonedBatch(t *testing.T) {
	const dim, k = 6, 5
	status := func(err error) int {
		var ae *client.APIError
		errors.As(err, &ae)
		if ae == nil {
			return 0
		}
		return ae.Status
	}
	// checkErrors asserts how the searches that failed ended in the
	// engine, in the order they did.
	checkErrors := func(t *testing.T, f *heldFront, want ...error) {
		t.Helper()
		waitIdle(t, f.coal)
		var wantEvents []string
		for _, err := range want {
			wantEvents = append(wantEvents, "batch: "+err.Error())
		}
		if got := f.h.errors(); !slices.Equal(got, wantEvents) {
			t.Errorf("searches ended with %q, want %q", got, wantEvents)
		}
		if st := f.srv.Stats(); st.CoalescedBatches != 2 || st.CoalescedQueries != 3 {
			t.Errorf("%d queries in %d batches, want 3 in 2", st.CoalescedQueries, st.CoalescedBatches)
		}
	}

	// Queued: 20 ms deadlines run out behind a held leader, so the queue
	// it hands off is dead on arrival. The leader's own deadline has run
	// out in the tracer's hands too, and it is its batch's.
	t.Run("queued", func(t *testing.T) {
		ix := testIndex(t, dim, 800, 8, 0)
		f := newHeldFront(t, ix, Config{DefaultTimeout: 20 * time.Millisecond}, dim, k)
		for i := 1; i <= 2; i++ {
			if _, err := f.cl.KNN(context.Background(), randQuery(dim, i), k); status(err) != http.StatusGatewayTimeout {
				t.Errorf("follower %d: err = %v, want http 504", i, err)
			}
		}
		if n, _ := f.coal.queued(groupKey{k: k}); n != 2 {
			t.Fatalf("%d requests queued behind the held leader, want both that gave up", n)
		}
		f.leader.open()
		checkErrors(t, f, context.DeadlineExceeded, context.Canceled)
		if st := f.srv.Stats(); st.DeadlineExpired != 3 {
			t.Errorf("DeadlineExpired = %d, want the followers' and the held leader's", st.DeadlineExpired)
		}
	})

	// Running: the waiters hang up on a batch that is inside the engine.
	t.Run("running", func(t *testing.T) {
		ix := testIndex(t, dim, 800, 8, 0)
		f := newHeldFront(t, ix, Config{}, dim, k)
		batch := f.h.hold("batch")
		ctx, hangUp := context.WithCancel(context.Background())
		defer hangUp()
		for i := 1; i <= 2; i++ {
			go f.cl.KNN(ctx, randQuery(dim, i), k)
		}
		waitQueued(t, f.coal, groupKey{k: k}, 2)
		f.leader.open()
		f.waitLeader()
		batch.wait(t)
		hangUp()
		eventually(t, "both waiters gone", func() bool { return f.srv.Stats().DeadlineExpired == 2 })
		batch.open()
		checkErrors(t, f, context.Canceled)
	})
}

// TestCoalescerShutdownDrainsQueue pins the drain across a hand-off:
// Shutdown with a leader held and followers queued behind it rejects new
// requests, answers all of the old ones with 200 and returns.
func TestCoalescerShutdownDrainsQueue(t *testing.T) {
	const dim, k, followers = 6, 5, 6
	ix := testIndex(t, dim, 800, 8, 0)
	f := newHeldFront(t, ix, Config{}, dim, k)
	waitFollowers := fire(t, ix, f.cl, dim, k, 1, 1+followers)
	waitQueued(t, f.coal, groupKey{k: k}, followers)

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- f.srv.Shutdown(context.Background()) }()
	eventually(t, "draining", func() bool { return f.srv.Stats().Draining })
	if _, err := f.cl.KNN(context.Background(), randQuery(dim, 99), k); !errors.Is(err, parsearch.ErrUnavailable) {
		t.Errorf("request during drain: err = %v, want ErrUnavailable", err)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) with %d requests in flight", err, 1+followers)
	default:
	}

	f.leader.open()
	f.waitLeader()
	waitFollowers()
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if st := f.srv.Stats(); st.InFlight != 0 || st.CoalescedBatches != 2 || st.CoalescedQueries != 1+followers {
		t.Errorf("after drain: %d in flight, %d queries in %d batches", st.InFlight, st.CoalescedQueries, st.CoalescedBatches)
	}
	leak.Check(t, "server.(*coalescer)")
	if _, busy := f.coal.queued(groupKey{k: k}); busy {
		t.Error("key still busy after Shutdown")
	}
}

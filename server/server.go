// Package server is the one HTTP/JSON front of parsearch — the
// query-serving subsystem. It serves a Searcher: an in-process
// parsearch.Index (New; the daemon is cmd/parsearchd) or a cluster
// behind a coord.Coordinator (coord.NewServer; cmd/parsearch-coord).
// The typed client is package client, and it cannot tell the two apart.
//
// Endpoints:
//
//	POST /v1/knn          {"query":[...], "k":10}
//	POST /v1/range        {"min":[...], "max":[...]}
//	POST /v1/partialmatch {"spec":[0.5, null, ...], "eps":0.1}
//	POST /v1/batch        {"queries":[[...], ...], "k":10}
//	POST /v1/catchup      snapshot+delta shipping (index backend only)
//	GET  /healthz         liveness + degraded/rerouted/draining state
//	GET  /varz            expvar dump (the backend's metrics registry)
//	GET  /statusz         backend status + serving stats + metrics snapshot
//
// The request pipeline layers three mechanisms over the backend:
//
//   - Admission control: at most MaxInFlight requests touch the backend
//     concurrently; up to MaxQueue more wait, each bounded by its own
//     deadline. Beyond that the server answers 429 (see internal/admit).
//   - Graceful drain: Shutdown stops admitting (503), lets every
//     in-flight request — including those queued behind a running
//     coalesced search — complete, then returns. Zero requests are
//     dropped mid-flight.
//   - Coalescing, behind the seam and for an index only: a /v1/knn
//     request runs at once when no search of its k is in flight, and the
//     requests that arrive while one is are merged into one BatchKNN
//     call (see coalesce.go). A coordinator does not coalesce: its one
//     benchmark drives a single client, so no number could show whether
//     batching a fan-out pays.
//
// Every request runs through the engine's *Context query variants, so
// deadlines propagate into the shard fan-out, the configured tracer
// sees every query, and the metrics registry counts network traffic
// exactly like library traffic.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parsearch"
	"parsearch/internal/admit"
	"parsearch/internal/metrics"
	"parsearch/internal/wire"
)

// Config are the serving knobs. The zero value selects the documented
// defaults. MaxBatch configures the index backend's coalescer and means
// nothing to any other Searcher.
type Config struct {
	// MaxBatch caps the size of one coalesced batch; default 16. A queue
	// that reaches it runs at once, beside the search it formed behind.
	MaxBatch int
	// MaxInFlight is the number of requests allowed to use the engine
	// concurrently; default 64.
	MaxInFlight int
	// MaxQueue is the number of requests allowed to wait for an
	// in-flight slot; requests beyond it are answered 429. Default 128.
	MaxQueue int
	// DefaultTimeout is the per-request deadline applied when the
	// incoming request context carries none; default 10s. Expired
	// requests are answered 504.
	DefaultTimeout time.Duration
	// MaxBatchRequest caps the query count of one /v1/batch body;
	// default 1024.
	MaxBatchRequest int
	// MaxBodyBytes caps a request body; default 8 MiB.
	MaxBodyBytes int64
	// Tracer, when non-nil, receives the engine's span events for
	// every served query (attached via parsearch.WithTracer).
	Tracer parsearch.Tracer
	// ExpvarName publishes the backend's metrics under this expvar name
	// ("" skips publishing; /varz then still dumps whatever is
	// published process-wide). Publishing an already-taken name is not
	// an error — the first publisher wins, the expvar registry being
	// global and permanent.
	ExpvarName string
}

// withDefaults fills the zero knobs.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 128
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxBatchRequest <= 0 {
		c.MaxBatchRequest = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// maxInt64 is an atomic running maximum.
type maxInt64 struct{ v atomic.Int64 }

func (m *maxInt64) max(n int64) {
	for {
		cur := m.v.Load()
		if n <= cur || m.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// serverStats are the serving-layer counters (the backend's own query
// metrics live in its registry). The front counts admissions and
// rejections; the index backend's coalescer counts the coalesced ones.
type serverStats struct {
	requests         atomic.Int64 // admitted query requests, by outcome below
	rejectedQueue    atomic.Int64 // 429: queue full
	rejectedDraining atomic.Int64 // 503: draining
	deadlineExpired  atomic.Int64 // 504: deadline hit in queue or in flight
	coalescedQueries atomic.Int64 // KNN requests answered by the coalescer
	coalescedBatches atomic.Int64 // searches the coalescer issued for them
	maxCoalesced     maxInt64     // largest coalesced batch observed
}

// coalesced records one search the coalescer issued for n requests; a
// lone request's is a batch of one.
func (s *serverStats) coalesced(n int) {
	s.coalescedBatches.Add(1)
	s.coalescedQueries.Add(int64(n))
	s.maxCoalesced.max(int64(n))
}

// Stats is a snapshot of the serving-layer counters.
type Stats struct {
	// Requests counts query requests admitted past admission control.
	Requests int64 `json:"requests"`
	// RejectedQueueFull counts 429s; RejectedDraining 503s issued
	// during drain; DeadlineExpired 504s.
	RejectedQueueFull int64 `json:"rejected_queue_full"`
	RejectedDraining  int64 `json:"rejected_draining"`
	DeadlineExpired   int64 `json:"deadline_expired"`
	// CoalescedQueries counts /v1/knn requests served through the
	// coalescer; CoalescedBatches the searches that served them, a lone
	// request's counting as a batch of one.
	// CoalescedBatches < CoalescedQueries means coalescing is actually
	// merging traffic.
	CoalescedQueries int64 `json:"coalesced_queries"`
	CoalescedBatches int64 `json:"coalesced_batches"`
	// MaxCoalescedBatch is the largest coalesced batch observed; it
	// never exceeds Config.MaxBatch.
	MaxCoalescedBatch int64 `json:"max_coalesced_batch"`
	// InFlight and Queued are instantaneous gauges.
	InFlight int64 `json:"in_flight"`
	Queued   int64 `json:"queued"`
	// Draining reports an in-progress Shutdown.
	Draining bool `json:"draining"`
}

// QueryOpts are the optional wire fields a query request may carry.
// Epsilon is the client's approximate-tier knob; Bound and Shard are
// what a coordinator ships to a shard.
type QueryOpts struct {
	Epsilon, Bound *float64
	Shard          *wire.ShardSpec
}

// Approx overlays the knobs the request carries on base, the backend's
// defaults (the wire decoder has already range-validated them).
func (o QueryOpts) Approx(base parsearch.Approx) parsearch.Approx {
	if o.Epsilon != nil {
		base.Epsilon = *o.Epsilon
	}
	if o.Bound != nil {
		base.Bound = *o.Bound
	}
	return base
}

// ErrBadRequest marks a Searcher error as the client's: the front
// answers 400 instead of 500.
var ErrBadRequest = errors.New("bad request")

// Searcher is the seam between the HTTP front and what answers the
// queries. There are two implementations: one over an in-process
// parsearch.Index (see New) and one over a coord.Coordinator. The
// front owns decoding, admission, deadlines, drain and the error
// mapping; a Searcher owns everything that differs between one
// process and many. Each query returns its statistics in the
// backend's own type, marshalled into the response as is.
type Searcher interface {
	Dim() int
	KNN(ctx context.Context, q []float64, k int, o QueryOpts) ([]parsearch.Neighbor, any, error)
	Range(ctx context.Context, min, max []float64, o QueryOpts) ([]parsearch.Neighbor, any, error)
	// PartialMatch takes the spec with parsearch.Wildcard for
	// unspecified dimensions.
	PartialMatch(ctx context.Context, spec []float64, eps float64, o QueryOpts) ([]parsearch.Neighbor, any, error)
	BatchKNN(ctx context.Context, queries [][]float64, k int, o QueryOpts) ([][]parsearch.Neighbor, any, error)
	// Health reports the backend's state as "ok", "rerouted" or
	// "degraded"; the front overrides it with "draining".
	Health(ctx context.Context) wire.Health
	// Status returns the backend's sections of the /statusz document,
	// keyed by section name; the front adds "serving" and "metrics".
	Status() map[string]any
	Metrics() metrics.Snapshot
}

// Server is the HTTP front over one Searcher. Create with New or
// NewFront, mount Handler(), stop with Shutdown.
type Server struct {
	sr    Searcher
	cfg   Config
	adm   *admit.Admission
	gate  *admit.Gate
	mux   *http.ServeMux
	stats *serverStats
}

// New returns a server over the index. The configuration is validated
// and defaulted; see Config.
func New(ix *parsearch.Index, cfg Config) (*Server, error) {
	if ix == nil {
		return nil, fmt.Errorf("server: nil index")
	}
	cfg = cfg.withDefaults()
	if cfg.MaxBatch > cfg.MaxBatchRequest {
		return nil, fmt.Errorf("server: MaxBatch %d exceeds MaxBatchRequest %d", cfg.MaxBatch, cfg.MaxBatchRequest)
	}
	stats := &serverStats{}
	sr := &indexSearcher{ix: ix, cfg: cfg, coal: newCoalescer(ix, cfg, stats)}
	s := newServer(sr, cfg, stats)
	s.mux.HandleFunc("POST /v1/catchup", sr.handleCatchup)
	return s, nil
}

// NewFront returns a server over any Searcher. The front itself never
// coalesces — whether to is the Searcher's decision — so cfg.MaxBatch
// is ignored.
func NewFront(sr Searcher, cfg Config) (*Server, error) {
	if sr == nil {
		return nil, fmt.Errorf("server: nil searcher")
	}
	return newServer(sr, cfg.withDefaults(), &serverStats{}), nil
}

func newServer(sr Searcher, cfg Config, stats *serverStats) *Server {
	s := &Server{
		sr:    sr,
		cfg:   cfg,
		adm:   admit.New(cfg.MaxInFlight, cfg.MaxQueue),
		gate:  &admit.Gate{},
		mux:   http.NewServeMux(),
		stats: stats,
	}
	if cfg.ExpvarName != "" && expvar.Get(cfg.ExpvarName) == nil {
		// The expvar registry is global and permanent; a taken name
		// (say, a previous server over the same backend) is fine — the
		// earlier publisher keeps serving its registry.
		expvar.Publish(cfg.ExpvarName, expvar.Func(func() any { return sr.Metrics() }))
	}
	s.mux.HandleFunc("POST /v1/knn", s.handleKNN)
	s.mux.HandleFunc("POST /v1/range", s.handleRange)
	s.mux.HandleFunc("POST /v1/partialmatch", s.handlePartialMatch)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /varz", expvar.Handler())
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	return s
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats snapshots the serving-layer counters.
func (s *Server) Stats() Stats {
	inflight, queued := s.adm.InFlight()
	return Stats{
		Requests:          s.stats.requests.Load(),
		RejectedQueueFull: s.stats.rejectedQueue.Load(),
		RejectedDraining:  s.stats.rejectedDraining.Load(),
		DeadlineExpired:   s.stats.deadlineExpired.Load(),
		CoalescedQueries:  s.stats.coalescedQueries.Load(),
		CoalescedBatches:  s.stats.coalescedBatches.Load(),
		MaxCoalescedBatch: s.stats.maxCoalesced.v.Load(),
		InFlight:          int64(inflight),
		Queued:            int64(queued),
		Draining:          s.gate.IsDraining(),
	}
}

// Shutdown drains the server: new requests are rejected with 503
// immediately, queued requests are woken and rejected, and Shutdown
// blocks until every in-flight request (including those queued behind
// a running coalesced search) has completed or ctx expires. It is the
// SIGTERM path of the daemons (see ListenAndServe) and is idempotent.
// The HTTP listener itself is the caller's to close afterwards
// (http.Server.Shutdown).
func (s *Server) Shutdown(ctx context.Context) error {
	if s.gate.Close() {
		s.adm.CloseDrain()
	}
	return s.gate.Wait(ctx)
}

// reqCtx derives a query context from the request: the default
// deadline when the client brought none, plus the configured tracer.
func (s *Server) reqCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	cancel := context.CancelFunc(func() {})
	if _, ok := ctx.Deadline(); !ok {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultTimeout)
	}
	if s.cfg.Tracer != nil {
		ctx = parsearch.WithTracer(ctx, s.cfg.Tracer)
	}
	return ctx, cancel
}

// enter runs admission control for one query request. On failure the
// rejection has already been written; callers must return. On success
// the caller must defer exit().
func (s *Server) enter(ctx context.Context, w http.ResponseWriter) bool {
	if err := s.adm.Acquire(ctx); err != nil {
		s.writeAdmissionError(w, err)
		return false
	}
	if err := s.gate.Enter(); err != nil {
		s.adm.Release()
		s.writeAdmissionError(w, err)
		return false
	}
	s.stats.requests.Add(1)
	return true
}

// exit releases what enter acquired.
func (s *Server) exit() {
	s.gate.Exit()
	s.adm.Release()
}

// writeAdmissionError maps an admission failure to its status code.
func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, admit.ErrQueueFull):
		s.stats.rejectedQueue.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, wire.CodeQueueFull, err)
	case errors.Is(err, admit.ErrDraining):
		s.stats.rejectedDraining.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, wire.CodeDraining, err)
	default: // context deadline or cancellation while queued
		s.stats.deadlineExpired.Add(1)
		writeError(w, http.StatusGatewayTimeout, wire.CodeDeadline, err)
	}
}

// writeQueryError maps a Searcher error to its status code.
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBadRequest):
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, err)
	case errors.Is(err, parsearch.ErrEmpty):
		writeError(w, http.StatusNotFound, wire.CodeEmpty, err)
	case errors.Is(err, parsearch.ErrUnavailable):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, wire.CodeUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.stats.deadlineExpired.Add(1)
		writeError(w, http.StatusGatewayTimeout, wire.CodeDeadline, err)
	default:
		writeError(w, http.StatusInternalServerError, wire.CodeInternal, err)
	}
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(wire.ErrorResponse{Error: err.Error(), Code: code})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// responseBody is a query response that encodes itself: wire.QueryResponse
// or wire.BatchResponse.
type responseBody interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// bodyPool holds response buffers between requests; one that grew past
// maxPooledBody (a huge range) is left to the collector.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// writeBody encodes a query response into a pooled buffer and writes it
// once, under its Content-Length. The bytes are what writeJSON would
// send, the encoder's trailing newline included. A body with no encoding
// (a non-finite coordinate in the index) is a 500.
func writeBody(w http.ResponseWriter, body responseBody) {
	bp := bodyPool.Get().(*[]byte)
	b, err := body.AppendJSON((*bp)[:0])
	if err != nil {
		bodyPool.Put(bp)
		writeError(w, http.StatusInternalServerError, wire.CodeInternal, fmt.Errorf("server: encoding response: %w", err))
		return
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	_, _ = w.Write(b)
	if cap(b) <= maxPooledBody {
		*bp = b
		bodyPool.Put(bp)
	}
}

// readBody reads a request body of at most max bytes; a failure is the
// client's: 413 when the body is larger, 400 otherwise.
func readBody(w http.ResponseWriter, r *http.Request, max int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, max))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, wire.CodeBadRequest, fmt.Errorf("server: reading body: %w", err))
		return nil, false
	}
	return body, true
}

// wireNeighbors converts engine results to the wire form. An empty
// result stays nil so it round-trips to the library's nil slice —
// byte-identity with direct calls includes the no-match case.
func wireNeighbors(ns []parsearch.Neighbor) []wire.Neighbor {
	if len(ns) == 0 {
		return nil
	}
	out := make([]wire.Neighbor, len(ns))
	for i, n := range ns {
		out[i] = wire.Neighbor{ID: n.ID, Point: n.Point, Dist: n.Dist}
	}
	return out
}

// rawStats marshals query statistics for the response; stats are
// advisory, so a marshal failure degrades to omitting them.
func rawStats(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return b
}

// queryResponse is the body of the three single-query kinds.
func queryResponse(ns []parsearch.Neighbor, stats any, err error) (responseBody, error) {
	return wire.QueryResponse{Neighbors: wireNeighbors(ns), Stats: rawStats(stats)}, err
}

// query is one decoded request, ready to run once admitted; it returns
// the response body.
type query func(ctx context.Context) (responseBody, error)

// serveQuery is the request pipeline every query kind shares: read the
// bounded body, decode it (a failure is a 400), admit the request
// under its deadline, run it, and write the response or the mapped
// error.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, decode func(body []byte) (query, error)) {
	body, ok := readBody(w, r, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	run, err := decode(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, err)
		return
	}
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	if !s.enter(ctx, w) {
		return
	}
	defer s.exit()

	resp, err := run(ctx)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	writeBody(w, resp)
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, func(body []byte) (query, error) {
		req, err := wire.DecodeKNN(body, s.sr.Dim())
		if err != nil {
			return nil, err
		}
		o := QueryOpts{Epsilon: req.Epsilon, Bound: req.Bound, Shard: req.Shard}
		return func(ctx context.Context) (responseBody, error) {
			return queryResponse(s.sr.KNN(ctx, req.Query, req.K, o))
		}, nil
	})
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, func(body []byte) (query, error) {
		req, err := wire.DecodeRange(body, s.sr.Dim())
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context) (responseBody, error) {
			return queryResponse(s.sr.Range(ctx, req.Min, req.Max, QueryOpts{Shard: req.Shard}))
		}, nil
	})
}

func (s *Server) handlePartialMatch(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, func(body []byte) (query, error) {
		req, err := wire.DecodePartialMatch(body, s.sr.Dim())
		if err != nil {
			return nil, err
		}
		spec := make([]float64, len(req.Spec))
		for i, v := range req.Spec {
			if v == nil {
				spec[i] = parsearch.Wildcard
			} else {
				spec[i] = *v
			}
		}
		return func(ctx context.Context) (responseBody, error) {
			return queryResponse(s.sr.PartialMatch(ctx, spec, req.Eps, QueryOpts{Shard: req.Shard}))
		}, nil
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, func(body []byte) (query, error) {
		req, err := wire.DecodeBatch(body, s.sr.Dim(), s.cfg.MaxBatchRequest)
		if err != nil {
			return nil, err
		}
		o := QueryOpts{Epsilon: req.Epsilon, Bound: req.Bound, Shard: req.Shard}
		return func(ctx context.Context) (responseBody, error) {
			results, stats, err := s.sr.BatchKNN(ctx, req.Queries, req.K, o)
			out := make([][]wire.Neighbor, len(results))
			for i, ns := range results {
				out[i] = wireNeighbors(ns)
			}
			return wire.BatchResponse{Results: out, Stats: rawStats(stats)}, err
		}, nil
	})
}

// handleHealthz reports the backend's health, overridden by the drain
// state only the front knows: 503 while draining or degraded.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.sr.Health(r.Context())
	if h.Draining = s.gate.IsDraining(); h.Draining {
		h.Status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	if h.Status == "degraded" || h.Status == "draining" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(h)
}

type statuszServe struct {
	MaxBatch         int     `json:"max_batch"`
	MaxInFlight      int     `json:"max_in_flight"`
	MaxQueue         int     `json:"max_queue"`
	DefaultTimeoutMs float64 `json:"default_timeout_ms"`
	Stats            Stats   `json:"stats"`
}

// handleStatusz writes the backend's status sections plus the serving
// knobs and counters and the backend's metrics snapshot.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	doc := s.sr.Status()
	doc["serving"] = statuszServe{
		MaxBatch:         s.cfg.MaxBatch,
		MaxInFlight:      s.cfg.MaxInFlight,
		MaxQueue:         s.cfg.MaxQueue,
		DefaultTimeoutMs: float64(s.cfg.DefaultTimeout) / float64(time.Millisecond),
		Stats:            s.Stats(),
	}
	doc["metrics"] = s.sr.Metrics()
	writeJSON(w, doc)
}

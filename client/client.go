// Package client is the typed Go client of the parsearch serving API
// (package server / cmd/parsearchd). It mirrors the library surface —
// KNN, Range, PartialMatch, BatchKNN — over HTTP/JSON, mapping wire
// error codes back to the engine's sentinel errors so callers can keep
// using errors.Is(err, parsearch.ErrEmpty) and friends unchanged.
//
// Retry policy: a 503 (server draining, or no live replica) and any
// transport-level failure are retried with jittered exponential
// backoff, up to MaxRetries attempts, always respecting the caller's
// context. A 429 (admission queue full) is NOT retried by default —
// the server is telling the caller to shed load, and hammering it back
// defeats admission control; opt in with WithRetryOn429 where the
// caller knows the burst is transient.
package client

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
	"strings"
	"time"

	"parsearch"
	"parsearch/internal/wire"
)

// APIError is a non-2xx response from the server. It unwraps to the
// matching engine sentinel error when the wire code identifies one, so
// errors.Is(err, parsearch.ErrUnavailable) works across the network
// boundary.
type APIError struct {
	// Status is the HTTP status code; Code the machine-readable wire
	// code (wire.Code*); Msg the server's human-readable message.
	Status int
	Code   string
	Msg    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("parsearch server: %s (http %d, code %s)", e.Msg, e.Status, e.Code)
}

// Unwrap maps wire codes to the engine's sentinel errors.
func (e *APIError) Unwrap() error {
	switch e.Code {
	case wire.CodeEmpty:
		return parsearch.ErrEmpty
	case wire.CodeUnavailable, wire.CodeDraining:
		return parsearch.ErrUnavailable
	case wire.CodeDeadline:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// ErrEncode marks a request the client could not encode as JSON — a
// non-finite number among the caller's arguments. No server was
// contacted, and no other server would do better.
var ErrEncode = errors.New("client: encoding request")

// Client talks to one parsearch server. Create with New; the zero
// value is not usable. Client is safe for concurrent use.
type Client struct {
	base       string
	hc         *http.Client
	timeout    time.Duration
	maxRetries int
	baseDelay  time.Duration
	maxDelay   time.Duration
	retryOn429 bool
	rnd        func() float64 // jitter source, swappable in tests
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient swaps the underlying HTTP client (default
// http.DefaultClient).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithTimeout sets the per-request timeout applied when the caller's
// context has no deadline (default 30s; 0 disables).
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.timeout = d } }

// WithMaxRetries sets the total number of attempts per request
// (default 3; 1 disables retries).
func WithMaxRetries(n int) Option { return func(c *Client) { c.maxRetries = n } }

// WithBackoff sets the base and cap of the jittered exponential
// backoff between attempts (defaults 50ms and 1s).
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) { c.baseDelay, c.maxDelay = base, max }
}

// WithRetryOn429 also retries queue-full rejections. Off by default:
// 429 means the server is shedding load, and retrying works against
// its admission control.
func WithRetryOn429() Option { return func(c *Client) { c.retryOn429 = true } }

// New returns a client for the server at base (e.g.
// "http://localhost:7080").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:       strings.TrimRight(base, "/"),
		hc:         http.DefaultClient,
		timeout:    30 * time.Second,
		maxRetries: 3,
		baseDelay:  50 * time.Millisecond,
		maxDelay:   time.Second,
		rnd:        rand.Float64,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// retryable reports whether an attempt's failure warrants another try.
func (c *Client) retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		if ae.Status == http.StatusServiceUnavailable {
			return true
		}
		if ae.Status == http.StatusTooManyRequests {
			return c.retryOn429
		}
		return false
	}
	// Transport-level failure (connection refused, reset, ...) — but a
	// context expiry is the caller's deadline, not the server's fault.
	return !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled)
}

// backoff returns the jittered delay before attempt n (0-based):
// base·2ⁿ capped at maxDelay, scaled by a random factor in [0.5, 1).
func (c *Client) backoff(n int) time.Duration {
	d := float64(c.baseDelay) * math.Pow(2, float64(n))
	if d > float64(c.maxDelay) {
		d = float64(c.maxDelay)
	}
	return time.Duration(d * (0.5 + 0.5*c.rnd()))
}

// post runs one request with retries, handing a 2xx body to decode.
func (c *Client) post(ctx context.Context, path string, reqBody any, decode func(body []byte) error) error {
	cancel := context.CancelFunc(func() {})
	if _, ok := ctx.Deadline(); !ok && c.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
	}
	defer cancel()

	payload, err := json.Marshal(reqBody)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrEncode, err)
	}
	var lastErr error
	for attempt := 0; attempt < c.maxRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(c.backoff(attempt - 1)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		lastErr = c.once(ctx, path, payload, decode)
		if lastErr == nil || !c.retryable(lastErr) {
			return lastErr
		}
	}
	return lastErr
}

// maxResponseBytes caps the response body the client will read.
const maxResponseBytes = 64 << 20

// once runs a single attempt.
func (c *Client) once(ctx context.Context, path string, payload []byte, decode func(body []byte) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		// Surface the caller's deadline as such, not as a URL error.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	// Read into a buffer of the announced size (the front sets
	// Content-Length) instead of growing one by doubling.
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 && n <= maxResponseBytes {
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, maxResponseBytes)); err != nil {
		return fmt.Errorf("client: reading response: %w", err)
	}
	body := buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		var er wire.ErrorResponse
		if json.Unmarshal(body, &er) != nil || er.Code == "" {
			er = wire.ErrorResponse{Error: strings.TrimSpace(string(body)), Code: wire.CodeInternal}
		}
		return &APIError{Status: resp.StatusCode, Code: er.Code, Msg: er.Error}
	}
	if err := decode(body); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// query posts a single-query request and decodes its response.
func (c *Client) query(ctx context.Context, path string, req any) (resp wire.QueryResponse, err error) {
	err = c.post(ctx, path, req, func(body []byte) (err error) {
		resp, err = wire.DecodeQueryResponse(body)
		return err
	})
	return resp, err
}

// queryRaw is query plus the decoded per-query statistics.
func (c *Client) queryRaw(ctx context.Context, path string, req any) ([]parsearch.Neighbor, parsearch.QueryStats, error) {
	resp, err := c.query(ctx, path, req)
	if err != nil {
		return nil, parsearch.QueryStats{}, err
	}
	var stats parsearch.QueryStats
	decodeStats(resp.Stats, &stats)
	return neighbors(resp.Neighbors), stats, nil
}

// batch posts a /v1/batch request and decodes its response.
func (c *Client) batch(ctx context.Context, req wire.BatchRequest) (out [][]parsearch.Neighbor, stats json.RawMessage, err error) {
	err = c.post(ctx, "/v1/batch", req, func(body []byte) error {
		resp, err := wire.DecodeBatchResponse(body)
		if err != nil {
			return err
		}
		out, stats = make([][]parsearch.Neighbor, len(resp.Results)), resp.Stats
		for i, ws := range resp.Results {
			out[i] = neighbors(ws)
		}
		return nil
	})
	return out, stats, err
}

// neighbors converts wire results back to engine types. An empty
// result stays nil, matching the library's no-match convention.
func neighbors(ws []wire.Neighbor) []parsearch.Neighbor {
	if len(ws) == 0 {
		return nil
	}
	out := make([]parsearch.Neighbor, len(ws))
	for i, n := range ws {
		out[i] = parsearch.Neighbor{ID: n.ID, Point: n.Point, Dist: n.Dist}
	}
	return out
}

// KNN finds the k nearest neighbors of q.
func (c *Client) KNN(ctx context.Context, q []float64, k int) ([]parsearch.Neighbor, error) {
	resp, err := c.query(ctx, "/v1/knn", wire.KNNRequest{Query: q, K: k})
	return neighbors(resp.Neighbors), err
}

// KNNApprox is KNN with an explicit approximate-tier knob: the server
// runs the query with the given ε instead of its own default (see
// parsearch.Approx). A zero Approx forces an exact search regardless of
// the server's configuration.
func (c *Client) KNNApprox(ctx context.Context, q []float64, k int, a parsearch.Approx) ([]parsearch.Neighbor, error) {
	resp, err := c.query(ctx, "/v1/knn", wire.KNNRequest{Query: q, K: k, Epsilon: &a.Epsilon})
	return neighbors(resp.Neighbors), err
}

// Range finds all points inside the axis-aligned box [min, max].
func (c *Client) Range(ctx context.Context, min, max []float64) ([]parsearch.Neighbor, error) {
	resp, err := c.query(ctx, "/v1/range", wire.RangeRequest{Min: min, Max: max})
	return neighbors(resp.Neighbors), err
}

// PartialMatch finds points matching the specified dimensions of spec
// within eps. Wildcard dimensions use parsearch.Wildcard (NaN), which
// the client transports as JSON null.
func (c *Client) PartialMatch(ctx context.Context, spec []float64, eps float64) ([]parsearch.Neighbor, error) {
	ws := make([]*float64, len(spec))
	for i := range spec {
		if !math.IsNaN(spec[i]) {
			v := spec[i]
			ws[i] = &v
		}
	}
	resp, err := c.query(ctx, "/v1/partialmatch", wire.PartialMatchRequest{Spec: ws, Eps: eps})
	return neighbors(resp.Neighbors), err
}

// BatchKNN answers many k-NN queries in one request.
func (c *Client) BatchKNN(ctx context.Context, queries [][]float64, k int) ([][]parsearch.Neighbor, error) {
	out, _, err := c.batch(ctx, wire.BatchRequest{Queries: queries, K: k})
	return out, err
}

// BatchKNNApprox is BatchKNN with an explicit approximate-tier knob,
// applied to every query of the batch (see KNNApprox).
func (c *Client) BatchKNNApprox(ctx context.Context, queries [][]float64, k int, a parsearch.Approx) ([][]parsearch.Neighbor, error) {
	out, _, err := c.batch(ctx, wire.BatchRequest{Queries: queries, K: k, Epsilon: &a.Epsilon})
	return out, err
}

// decodeStats decodes the advisory stats blob of a response; a missing
// or malformed blob degrades to zero stats, mirroring the server's
// omit-on-failure behavior.
func decodeStats(raw json.RawMessage, out any) {
	if len(raw) > 0 {
		_ = json.Unmarshal(raw, out)
	}
}

// KNNRaw posts a fully-specified wire request and returns the decoded
// per-query statistics with the neighbors. This is the coordinator's
// entry point: unlike KNN/KNNApprox it transports the shard
// restriction and the cross-network bound verbatim, and surfaces the
// shard's cost accounting (PagesSavedByRemoteBound et al.) that the
// convenience methods discard.
func (c *Client) KNNRaw(ctx context.Context, req wire.KNNRequest) ([]parsearch.Neighbor, parsearch.QueryStats, error) {
	return c.queryRaw(ctx, "/v1/knn", req)
}

// RangeRaw is KNNRaw for range queries.
func (c *Client) RangeRaw(ctx context.Context, req wire.RangeRequest) ([]parsearch.Neighbor, parsearch.QueryStats, error) {
	return c.queryRaw(ctx, "/v1/range", req)
}

// PartialMatchRaw is KNNRaw for partial-match queries.
func (c *Client) PartialMatchRaw(ctx context.Context, req wire.PartialMatchRequest) ([]parsearch.Neighbor, parsearch.QueryStats, error) {
	return c.queryRaw(ctx, "/v1/partialmatch", req)
}

// BatchKNNRaw is KNNRaw for batches.
func (c *Client) BatchKNNRaw(ctx context.Context, req wire.BatchRequest) ([][]parsearch.Neighbor, parsearch.BatchStats, error) {
	out, raw, err := c.batch(ctx, req)
	if err != nil {
		return nil, parsearch.BatchStats{}, err
	}
	var stats parsearch.BatchStats
	decodeStats(raw, &stats)
	return out, stats, nil
}

// Catchup requests one snapshot+delta round from the server (POST
// /v1/catchup). have/gen/offset describe the local durable directory's
// chain position — usually from parsearch.CatchupScan.
func (c *Client) Catchup(ctx context.Context, have bool, gen uint64, offset int64) (parsearch.CatchupDelta, error) {
	var resp wire.CatchupResponse
	err := c.post(ctx, "/v1/catchup", wire.CatchupRequest{Have: have, Gen: gen, Offset: offset},
		func(body []byte) error { return json.Unmarshal(body, &resp) })
	if err != nil {
		return parsearch.CatchupDelta{}, err
	}
	delta := parsearch.CatchupDelta{
		Gen:        resp.Gen,
		NextOffset: resp.NextOffset,
		Reset:      resp.Reset,
	}
	for _, f := range resp.Files {
		delta.Files = append(delta.Files, parsearch.CatchupFile{Name: f.Name, Offset: f.Offset, Data: f.Data})
	}
	return delta, nil
}

// CatchupDir brings the durable directory up to the server's current
// synced state: it scans the local chain position, requests the delta,
// and applies it, looping until a round ships no bytes (each round may
// race new leader writes, so convergence can take more than one). The
// directory is then ready for parsearch.Open. Returns the bytes shipped.
func (c *Client) CatchupDir(ctx context.Context, dir string) (int64, error) {
	var total int64
	for {
		have, gen, offset, err := parsearch.CatchupScan(dir)
		if err != nil {
			return total, err
		}
		delta, err := c.Catchup(ctx, have, gen, offset)
		if err != nil {
			return total, err
		}
		var n int64
		for _, f := range delta.Files {
			n += int64(len(f.Data))
		}
		if n == 0 && !delta.Reset {
			return total, nil
		}
		if err := parsearch.CatchupApply(dir, delta); err != nil {
			return total, err
		}
		total += n
		if n == 0 {
			return total, nil
		}
	}
}

// Health fetches GET /healthz. Unlike the query methods it never
// retries and treats 503 as a successful fetch of a degraded status.
func (c *Client) Health(ctx context.Context) (wire.Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return wire.Health{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return wire.Health{}, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	var h wire.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return wire.Health{}, fmt.Errorf("client: decoding health: %w", err)
	}
	return h, nil
}

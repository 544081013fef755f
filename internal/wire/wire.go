// Package wire defines the JSON wire format of the parsearch serving
// layer: the request and response bodies of the /v1 endpoints, shared
// by the server and the typed client, plus the validating request
// decoder the server runs on every body.
//
// Decoding is strict about the things the engine would otherwise have
// to police per query: every vector must have exactly the index's
// dimensionality and only finite components (no NaN/Inf — JSON cannot
// carry them literally, but a decoder must not rely on that), k must be
// positive, range bounds must be ordered, and a partial-match spec must
// specify at least one dimension. A request failing validation is a
// client error (HTTP 400), never a panic or an engine error.
package wire

import (
	"encoding/json"
	"fmt"
	"math"
)

// The /v1 operation names, doubling as the request-decoder dispatch
// keys: each one is the path suffix of its endpoint.
const (
	OpKNN          = "knn"
	OpRange        = "range"
	OpPartialMatch = "partialmatch"
	OpBatch        = "batch"
)

// KNNRequest is the body of POST /v1/knn. Epsilon is the
// approximate-tier knob: an absent (null) field falls back to the
// served index's default; a present field overrides it per request (0
// forces an exact search). Bound and Shard are the cluster fields a
// scatter-gather coordinator sets; both are optional, and servers
// predating them ignore the unknown keys (encoding/json discards
// unknown fields).
type KNNRequest struct {
	Query   []float64 `json:"query"`
	K       int       `json:"k"`
	Epsilon *float64  `json:"epsilon,omitempty"`
	// Bound, when present, makes the query a k-NN within that distance
	// (see parsearch.Approx.Bound): the response holds the shard's
	// points inside the bound only, possibly fewer than k or none. A
	// coordinator forwards its caller's bound; an older one shipped the
	// k-th distance another shard group had already achieved, which
	// leaves the merged top k unchanged.
	Bound *float64 `json:"bound,omitempty"`
	// Shard, when present, restricts the query to a subset of the
	// declustered disks (see parsearch.ShardSpec).
	Shard *ShardSpec `json:"shard,omitempty"`
}

// ShardSpec mirrors parsearch.ShardSpec on the wire: the query serves
// the disks d with d mod Of in Groups.
type ShardSpec struct {
	Of     int   `json:"of"`
	Groups []int `json:"groups"`
}

// RangeRequest is the body of POST /v1/range. Shard behaves as in
// KNNRequest (a box query has no distance bound to ship).
type RangeRequest struct {
	Min   []float64  `json:"min"`
	Max   []float64  `json:"max"`
	Shard *ShardSpec `json:"shard,omitempty"`
}

// PartialMatchRequest is the body of POST /v1/partialmatch. Wildcard
// dimensions are JSON nulls (NaN is not representable in JSON); the
// server maps them to parsearch.Wildcard. Shard behaves as in
// KNNRequest.
type PartialMatchRequest struct {
	Spec  []*float64 `json:"spec"`
	Eps   float64    `json:"eps"`
	Shard *ShardSpec `json:"shard,omitempty"`
}

// BatchRequest is the body of POST /v1/batch. Epsilon, Bound, and Shard
// behave as in KNNRequest and apply to every query of the batch.
type BatchRequest struct {
	Queries [][]float64 `json:"queries"`
	K       int         `json:"k"`
	Epsilon *float64    `json:"epsilon,omitempty"`
	Bound   *float64    `json:"bound,omitempty"`
	Shard   *ShardSpec  `json:"shard,omitempty"`
}

// Neighbor mirrors parsearch.Neighbor on the wire. Dist is NaN for
// partial-match results (the engine reports the distance to the query
// box center, undefined under wildcards); JSON cannot carry NaN, so a
// non-finite distance travels as null and is restored to NaN on decode.
type Neighbor struct {
	ID    int       `json:"id"`
	Point []float64 `json:"point"`
	Dist  float64   `json:"dist"`
}

// wireNeighbor is the JSON shape of Neighbor: Dist nullable.
type wireNeighbor struct {
	ID    int       `json:"id"`
	Point []float64 `json:"point"`
	Dist  *float64  `json:"dist"`
}

// MarshalJSON emits a non-finite Dist as null.
func (n Neighbor) MarshalJSON() ([]byte, error) {
	a := wireNeighbor{ID: n.ID, Point: n.Point}
	if finite(n.Dist) {
		a.Dist = &n.Dist
	}
	return json.Marshal(a)
}

// UnmarshalJSON restores a null Dist to NaN.
func (n *Neighbor) UnmarshalJSON(data []byte) error {
	var a wireNeighbor
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	*n = a.neighbor()
	return nil
}

// neighbor restores a null Dist to NaN.
func (a wireNeighbor) neighbor() Neighbor {
	n := Neighbor{ID: a.ID, Point: a.Point, Dist: math.NaN()}
	if a.Dist != nil {
		n.Dist = *a.Dist
	}
	return n
}

// QueryResponse is the body of a successful single-query response
// (/v1/knn, /v1/range, /v1/partialmatch). Stats carries the engine's
// QueryStats verbatim (its exported field names are the JSON keys).
type QueryResponse struct {
	Neighbors []Neighbor      `json:"neighbors"`
	Stats     json.RawMessage `json:"stats,omitempty"`
}

// BatchResponse is the body of a successful /v1/batch response.
type BatchResponse struct {
	Results [][]Neighbor    `json:"results"`
	Stats   json.RawMessage `json:"stats,omitempty"`
}

// CatchupRequest is the body of POST /v1/catchup: the follower's chain
// position (see parsearch.CatchupScan). Have false requests a full
// reset delta regardless of Gen/Offset.
type CatchupRequest struct {
	Have   bool   `json:"have"`
	Gen    uint64 `json:"gen"`
	Offset int64  `json:"offset"`
}

// CatchupFile mirrors parsearch.CatchupFile on the wire; Data is
// base64-encoded by encoding/json.
type CatchupFile struct {
	Name   string `json:"name"`
	Offset int64  `json:"offset"`
	Data   []byte `json:"data"`
}

// CatchupResponse is the body of a successful /v1/catchup response,
// mirroring parsearch.CatchupDelta.
type CatchupResponse struct {
	Gen        uint64        `json:"gen"`
	NextOffset int64         `json:"next_offset"`
	Reset      bool          `json:"reset,omitempty"`
	Files      []CatchupFile `json:"files"`
}

// ErrorResponse is the body of every non-2xx response. Code is the
// machine-readable classification the client maps back to sentinel
// errors; Error is human-readable.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// The error codes of ErrorResponse.Code.
const (
	CodeBadRequest  = "bad_request" // malformed or invalid request body
	CodeEmpty       = "empty"       // parsearch.ErrEmpty: the index holds no vectors
	CodeUnavailable = "unavailable" // parsearch.ErrUnavailable: no live copy reachable
	CodeQueueFull   = "queue_full"  // admission queue at capacity (HTTP 429)
	CodeDraining    = "draining"    // server is draining for shutdown (HTTP 503)
	CodeDeadline    = "deadline"    // request deadline expired in queue or in flight
	CodeInternal    = "internal"    // unexpected engine failure
)

// Health is the body of GET /healthz.
type Health struct {
	// Status is "ok" (all disks live), "rerouted" (failures fully
	// covered by replicas), "degraded" (some data unreachable), or
	// "draining" (shutdown in progress). The endpoint answers HTTP 200
	// for the first two and 503 for the rest, so load balancers pull a
	// degraded or draining instance out of rotation.
	Status string `json:"status"`
	Disks  int    `json:"disks"`
	// FailedDisks lists the disks currently failed; Unreachable the
	// subset whose data has no live replica.
	FailedDisks []int `json:"failed_disks,omitempty"`
	Unreachable []int `json:"unreachable,omitempty"`
	Draining    bool  `json:"draining"`
	// Durability is present when the served index runs with a durable
	// mutation log; absent for a purely in-memory index.
	Durability *Durability `json:"durability,omitempty"`
}

// Durability is the durable-log block of Health: the live WAL state
// (generation, fsync policy, un-synced byte lag) plus what the crash
// recovery at startup found. WALLagBytes is the data a crash right now
// would lose — always 0 between mutations under the "always" policy.
type Durability struct {
	Generation       uint64 `json:"generation"`
	SyncPolicy       string `json:"sync_policy"`
	WALLagBytes      int64  `json:"wal_lag_bytes"`
	Recovered        bool   `json:"recovered"`
	RecoveredRecords int    `json:"recovered_records"`
	TornBytes        int64  `json:"torn_bytes,omitempty"`
	Salvaged         bool   `json:"salvaged,omitempty"`
}

// checkVector validates one request vector: exact dimensionality and
// finite components.
func checkVector(name string, v []float64, dim int) error {
	if len(v) != dim {
		return fmt.Errorf("wire: %s has dimension %d, want %d", name, len(v), dim)
	}
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("wire: %s component %d is not finite", name, i)
		}
	}
	return nil
}

// maxEpsilon mirrors the engine's cap on the ε knob; anything larger
// is a client bug (or garbage), not a meaningful recall trade.
const maxEpsilon = 1e6

// checkEpsilon validates the optional approximate-tier knob of a
// request: a present epsilon must be finite, ≥ 0, and ≤ 1e6. An absent
// (nil) knob is valid — the server fills it from the index default.
func checkEpsilon(epsilon *float64) error {
	if epsilon == nil {
		return nil
	}
	if e := *epsilon; math.IsNaN(e) || e < 0 || e > maxEpsilon {
		return fmt.Errorf("wire: epsilon %v outside [0, %g]", e, float64(maxEpsilon))
	}
	return nil
}

// maxShardOf bounds the shard-group count of a wire ShardSpec: no real
// deployment partitions one declustered disk set into more process
// shards than this, so anything larger is garbage (or an attack) and a
// cheap way to make the server allocate. The engine additionally
// requires Of <= Disks.
const maxShardOf = 4096

// checkShard validates an optional shard restriction: a present spec
// must name a positive group count and at least one distinct group in
// [0, of). A nil spec is valid (the query serves every disk).
func checkShard(s *ShardSpec) error {
	if s == nil {
		return nil
	}
	if s.Of < 1 || s.Of > maxShardOf {
		return fmt.Errorf("wire: shard group count %d outside [1, %d]", s.Of, maxShardOf)
	}
	if len(s.Groups) == 0 {
		return fmt.Errorf("wire: shard spec selects no groups")
	}
	if len(s.Groups) > s.Of {
		return fmt.Errorf("wire: %d shard groups listed, only %d exist", len(s.Groups), s.Of)
	}
	seen := make(map[int]bool, len(s.Groups))
	for _, g := range s.Groups {
		if g < 0 || g >= s.Of {
			return fmt.Errorf("wire: shard group %d outside [0, %d)", g, s.Of)
		}
		if seen[g] {
			return fmt.Errorf("wire: duplicate shard group %d", g)
		}
		seen[g] = true
	}
	return nil
}

// checkBound validates an optional cross-network k-th-distance bound:
// a present bound must be a finite distance >= 0.
func checkBound(bound *float64) error {
	if bound == nil {
		return nil
	}
	if b := *bound; math.IsNaN(b) || math.IsInf(b, 0) || b < 0 {
		return fmt.Errorf("wire: bound %v, want a finite distance >= 0", *bound)
	}
	return nil
}

// decode unmarshals into dst, classifying syntax errors uniformly.
func decode(data []byte, dst any) error {
	if err := json.Unmarshal(data, dst); err != nil {
		return fmt.Errorf("wire: invalid request body: %w", err)
	}
	return nil
}

// DecodeKNN decodes and validates a /v1/knn body against the index
// dimensionality.
func DecodeKNN(data []byte, dim int) (KNNRequest, error) {
	var req KNNRequest
	if err := decode(data, &req); err != nil {
		return KNNRequest{}, err
	}
	if err := req.Validate(dim); err != nil {
		return KNNRequest{}, err
	}
	return req, nil
}

// Validate checks a k-NN request against the index dimensionality by
// the rules DecodeKNN applies to a body, so a sender can refuse what
// the server would: a request that passes always encodes as JSON.
func (req KNNRequest) Validate(dim int) error {
	if err := checkVector("query", req.Query, dim); err != nil {
		return err
	}
	if req.K < 1 {
		return fmt.Errorf("wire: k = %d, want >= 1", req.K)
	}
	if err := checkEpsilon(req.Epsilon); err != nil {
		return err
	}
	if err := checkBound(req.Bound); err != nil {
		return err
	}
	return checkShard(req.Shard)
}

// DecodeRange decodes and validates a /v1/range body.
func DecodeRange(data []byte, dim int) (RangeRequest, error) {
	var req RangeRequest
	if err := decode(data, &req); err != nil {
		return RangeRequest{}, err
	}
	if err := req.Validate(dim); err != nil {
		return RangeRequest{}, err
	}
	return req, nil
}

// Validate is KNNRequest.Validate for a range request.
func (req RangeRequest) Validate(dim int) error {
	if err := checkVector("min", req.Min, dim); err != nil {
		return err
	}
	if err := checkVector("max", req.Max, dim); err != nil {
		return err
	}
	for i := range req.Min {
		if req.Min[i] > req.Max[i] {
			return fmt.Errorf("wire: min > max in dimension %d", i)
		}
	}
	return checkShard(req.Shard)
}

// DecodePartialMatch decodes and validates a /v1/partialmatch body.
// Null spec entries are wildcards; at least one dimension must be
// specified, and specified values must be finite.
func DecodePartialMatch(data []byte, dim int) (PartialMatchRequest, error) {
	var req PartialMatchRequest
	if err := decode(data, &req); err != nil {
		return PartialMatchRequest{}, err
	}
	if err := req.Validate(dim); err != nil {
		return PartialMatchRequest{}, err
	}
	return req, nil
}

// Validate is KNNRequest.Validate for a partial-match request.
func (req PartialMatchRequest) Validate(dim int) error {
	if len(req.Spec) != dim {
		return fmt.Errorf("wire: spec has dimension %d, want %d", len(req.Spec), dim)
	}
	specified := 0
	for i, v := range req.Spec {
		if v == nil {
			continue
		}
		if math.IsNaN(*v) || math.IsInf(*v, 0) {
			return fmt.Errorf("wire: spec component %d is not finite", i)
		}
		specified++
	}
	if specified == 0 {
		return fmt.Errorf("wire: partial-match spec specifies no dimension")
	}
	if math.IsNaN(req.Eps) || math.IsInf(req.Eps, 0) || req.Eps < 0 {
		return fmt.Errorf("wire: invalid tolerance %v", req.Eps)
	}
	return checkShard(req.Shard)
}

// DecodeBatch decodes and validates a /v1/batch body. maxQueries
// bounds the batch size (0 = unbounded) so a single request cannot
// monopolize the engine.
func DecodeBatch(data []byte, dim, maxQueries int) (BatchRequest, error) {
	var req BatchRequest
	if err := decode(data, &req); err != nil {
		return BatchRequest{}, err
	}
	if err := req.Validate(dim, maxQueries); err != nil {
		return BatchRequest{}, err
	}
	return req, nil
}

// Validate is KNNRequest.Validate for a batch of at most maxQueries
// queries (0 = unbounded).
func (req BatchRequest) Validate(dim, maxQueries int) error {
	if len(req.Queries) == 0 {
		return fmt.Errorf("wire: batch holds no queries")
	}
	if maxQueries > 0 && len(req.Queries) > maxQueries {
		return fmt.Errorf("wire: batch holds %d queries, limit %d", len(req.Queries), maxQueries)
	}
	for i, q := range req.Queries {
		if err := checkVector(fmt.Sprintf("query %d", i), q, dim); err != nil {
			return err
		}
	}
	if req.K < 1 {
		return fmt.Errorf("wire: k = %d, want >= 1", req.K)
	}
	if err := checkEpsilon(req.Epsilon); err != nil {
		return err
	}
	if err := checkBound(req.Bound); err != nil {
		return err
	}
	return checkShard(req.Shard)
}

// DecodeCatchup decodes and validates a /v1/catchup body.
func DecodeCatchup(data []byte) (CatchupRequest, error) {
	var req CatchupRequest
	if err := decode(data, &req); err != nil {
		return CatchupRequest{}, err
	}
	if req.Offset < 0 {
		return CatchupRequest{}, fmt.Errorf("wire: negative catch-up offset %d", req.Offset)
	}
	return req, nil
}

// DecodeQueryRequest dispatches a request body to the decoder of the
// given operation (one of the Op* constants) — the single entry point
// the fuzz harness drives. Unknown operations are an error.
func DecodeQueryRequest(op string, data []byte, dim int) (any, error) {
	switch op {
	case OpKNN:
		return DecodeKNN(data, dim)
	case OpRange:
		return DecodeRange(data, dim)
	case OpPartialMatch:
		return DecodePartialMatch(data, dim)
	case OpBatch:
		return DecodeBatch(data, dim, 0)
	default:
		return nil, fmt.Errorf("wire: unknown operation %q", op)
	}
}

package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"parsearch"
	"parsearch/internal/metrics"
	"parsearch/internal/wire"
)

// indexSearcher is the Searcher over one in-process parsearch.Index.
// Everything specific to a single index sits on this side of the seam:
// the coalescer, the engine form of the bound and shard fields a
// coordinator ships, /v1/catchup and the durability health block.
type indexSearcher struct {
	ix   *parsearch.Index
	cfg  Config
	coal *coalescer
}

func (s *indexSearcher) Dim() int { return s.ix.Dim() }

// shards converts a wire shard restriction to the engine's form,
// rejecting group counts beyond the served index's disk count — a
// structural mismatch only this side can see (the wire decoder knows
// no disk count), and the coordinator's misconfiguration, not an
// engine fault, so it maps to 400.
func (s *indexSearcher) shards(spec *wire.ShardSpec) (parsearch.ShardSpec, error) {
	if spec == nil {
		return parsearch.ShardSpec{}, nil
	}
	if disks := s.ix.Disks(); spec.Of > disks {
		return parsearch.ShardSpec{}, fmt.Errorf("server: %d shard groups over %d disks: %w", spec.Of, disks, ErrBadRequest)
	}
	return parsearch.ShardSpec{Of: spec.Of, Groups: spec.Groups}, nil
}

func (s *indexSearcher) KNN(ctx context.Context, q []float64, k int, o QueryOpts) ([]parsearch.Neighbor, any, error) {
	shards, err := s.shards(o.Shard)
	if err != nil {
		return nil, nil, err
	}
	a := o.Approx(s.ix.ApproxDefaults())
	if shards.Enabled() || o.Bound != nil {
		// Coordinator fan-out requests bypass the coalescer: their
		// per-request bound and shard restriction are query-private and
		// must not leak into a coalesced group's shared Approx knobs.
		return s.ix.KNNShardContext(ctx, q, k, a, shards)
	}
	res := s.coal.submit(ctx, q, k, a)
	return res.neighbors, res.stats, res.err
}

func (s *indexSearcher) Range(ctx context.Context, min, max []float64, o QueryOpts) ([]parsearch.Neighbor, any, error) {
	shards, err := s.shards(o.Shard)
	if err != nil {
		return nil, nil, err
	}
	return s.ix.RangeQueryShardContext(ctx, min, max, shards)
}

func (s *indexSearcher) PartialMatch(ctx context.Context, spec []float64, eps float64, o QueryOpts) ([]parsearch.Neighbor, any, error) {
	shards, err := s.shards(o.Shard)
	if err != nil {
		return nil, nil, err
	}
	return s.ix.PartialMatchShardContext(ctx, spec, eps, shards)
}

func (s *indexSearcher) BatchKNN(ctx context.Context, queries [][]float64, k int, o QueryOpts) ([][]parsearch.Neighbor, any, error) {
	shards, err := s.shards(o.Shard)
	if err != nil {
		return nil, nil, err
	}
	return s.ix.BatchKNNShardContext(ctx, queries, k, o.Approx(s.ix.ApproxDefaults()), shards)
}

// failedDisks lists the failed disks and, among them, those with no
// live replica.
func (s *indexSearcher) failedDisks() (failed, unreachable []int) {
	for d := 0; d < s.ix.Disks(); d++ {
		if !s.ix.DiskFailed(d) {
			continue
		}
		failed = append(failed, d)
		if r := s.ix.ReplicaDisk(d); r < 0 || s.ix.DiskFailed(r) {
			unreachable = append(unreachable, d)
		}
	}
	return failed, unreachable
}

// Health computes the health view from the fault-routing state: a
// failed disk whose chained replica is live is "rerouted" (queries
// stay exact); a failed disk with no live replica makes data
// unreachable and the instance "degraded".
func (s *indexSearcher) Health(context.Context) wire.Health {
	h := wire.Health{Status: "ok", Disks: s.ix.Disks()}
	h.FailedDisks, h.Unreachable = s.failedDisks()
	switch {
	case len(h.Unreachable) > 0:
		h.Status = "degraded"
	case len(h.FailedDisks) > 0:
		h.Status = "rerouted"
	}
	if d := s.ix.Durability(); d.Durable {
		h.Durability = &wire.Durability{
			Generation:       d.Generation,
			SyncPolicy:       d.SyncPolicy,
			WALLagBytes:      d.WALLagBytes,
			Recovered:        d.Recovery.Recovered,
			RecoveredRecords: d.Recovery.Records,
			TornBytes:        d.Recovery.TornBytes,
			Salvaged:         d.Recovery.Salvaged,
		}
	}
	return h
}

type statuszIndex struct {
	Dim         int    `json:"dim"`
	Disks       int    `json:"disks"`
	Strategy    string `json:"strategy"`
	Replication int    `json:"replication"`
	Points      int    `json:"points"`
	FailedDisks []int  `json:"failed_disks,omitempty"`
}

// Status is the index geometry plus, when the index is durable, the
// full parsearch.DurabilityInfo (WAL lengths, lag, recovery detail).
func (s *indexSearcher) Status() map[string]any {
	failed, _ := s.failedDisks()
	doc := map[string]any{"index": statuszIndex{
		Dim:         s.ix.Dim(),
		Disks:       s.ix.Disks(),
		Strategy:    s.ix.Strategy(),
		Replication: s.ix.Replication(),
		Points:      s.ix.Len(),
		FailedDisks: failed,
	}}
	if d := s.ix.Durability(); d.Durable {
		doc["durability"] = d
	}
	return doc
}

func (s *indexSearcher) Metrics() metrics.Snapshot { return s.ix.Metrics() }

// handleCatchup serves one snapshot+delta round to a catching-up
// follower (see parsearch.Index.Catchup). Catch-up bypasses query
// admission: it does not touch the query engine, and a replica must be
// able to converge even while the serving path is saturated — its cost
// is bounded by the checkpoint lock it shares with generation rotation.
func (s *indexSearcher) handleCatchup(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	req, err := wire.DecodeCatchup(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, err)
		return
	}
	delta, err := s.ix.Catchup(req.Have, req.Gen, req.Offset)
	if err != nil {
		switch {
		case errors.Is(err, parsearch.ErrClosed):
			writeError(w, http.StatusServiceUnavailable, wire.CodeUnavailable, err)
		case !s.ix.Durability().Durable:
			writeError(w, http.StatusBadRequest, wire.CodeBadRequest, err)
		default:
			writeError(w, http.StatusInternalServerError, wire.CodeInternal, err)
		}
		return
	}
	files := make([]wire.CatchupFile, len(delta.Files))
	for i, f := range delta.Files {
		files[i] = wire.CatchupFile{Name: f.Name, Offset: f.Offset, Data: f.Data}
	}
	writeJSON(w, wire.CatchupResponse{
		Gen:        delta.Gen,
		NextOffset: delta.NextOffset,
		Reset:      delta.Reset,
		Files:      files,
	})
}

package coord

import (
	"context"
	"fmt"
	"time"

	"parsearch"
	"parsearch/internal/metrics"
	"parsearch/internal/wire"
	"parsearch/server"
)

// ServerConfig configures the coordinator's HTTP front: it is the
// shard daemon's server.Config, defaults included. MaxBatch is
// ignored: a coordinator does not coalesce — its one benchmark drives a
// single client, so no number could show whether batching a fan-out
// pays.
type ServerConfig = server.Config

// NewServer returns the HTTP front of a coordinator: the one front of
// package server over the cluster, so package client works against a
// cluster unchanged, with admission control and graceful drain at the
// cluster entrance.
func NewServer(co *Coordinator, cfg ServerConfig) (*server.Server, error) {
	if co == nil {
		return nil, fmt.Errorf("coord: nil coordinator")
	}
	return server.NewFront(searcher{co}, cfg)
}

// searcher adapts a Coordinator to the front's seam. It holds only
// what is specific to a cluster: the refusal of the coordinator's own
// wire fields, the shard re-probe behind /healthz and the topology.
type searcher struct{ co *Coordinator }

func (s searcher) Dim() int { return s.co.Dim() }

// refuse rejects the bound and shard fields: the coordinator owns the
// partition and the bound protocol, and honoring a caller's
// restriction would silently return partial answers.
func refuse(o server.QueryOpts) error {
	if o.Bound != nil || o.Shard != nil {
		return fmt.Errorf("coord: bound/shard are coordinator-internal fields: %w", server.ErrBadRequest)
	}
	return nil
}

func (s searcher) KNN(ctx context.Context, q []float64, k int, o server.QueryOpts) ([]parsearch.Neighbor, any, error) {
	if err := refuse(o); err != nil {
		return nil, nil, err
	}
	return s.co.KNNApprox(ctx, q, k, o.Approx(parsearch.Approx{}))
}

func (s searcher) Range(ctx context.Context, min, max []float64, o server.QueryOpts) ([]parsearch.Neighbor, any, error) {
	if err := refuse(o); err != nil {
		return nil, nil, err
	}
	return s.co.Range(ctx, min, max)
}

func (s searcher) PartialMatch(ctx context.Context, spec []float64, eps float64, o server.QueryOpts) ([]parsearch.Neighbor, any, error) {
	if err := refuse(o); err != nil {
		return nil, nil, err
	}
	return s.co.PartialMatch(ctx, spec, eps)
}

func (s searcher) BatchKNN(ctx context.Context, queries [][]float64, k int, o server.QueryOpts) ([][]parsearch.Neighbor, any, error) {
	if err := refuse(o); err != nil {
		return nil, nil, err
	}
	return s.co.BatchKNNApprox(ctx, queries, k, o.Approx(parsearch.Approx{}))
}

// Health re-probes the shards before reporting, so a load balancer's
// health checks double as the recovery path.
func (s searcher) Health(ctx context.Context) wire.Health {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	s.co.CheckHealth(ctx)
	return s.co.Health()
}

func (s searcher) Status() map[string]any {
	return map[string]any{"cluster": s.co.Topology()}
}

func (s searcher) Metrics() metrics.Snapshot { return s.co.Metrics() }

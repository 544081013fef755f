package parsearch

import (
	"errors"
	"time"

	"parsearch/internal/disk"
	"parsearch/internal/xtree"
)

// This file is the fault-tolerance layer of the index: replicated
// declustering (every storage cell keeps a second copy on a chained
// replica disk), per-query failure routing (reads on failed disks are
// transparently served by the replica), and degraded-mode semantics
// (when a page has no live copy, queries return best-effort results
// flagged Degraded instead of erroring). See README "Failure semantics".

// ErrDiskFailed is wrapped by query errors when a page read hit a disk
// that failed mid-query (a disk failed *before* the query starts is
// routed around instead). Classify with errors.Is.
var ErrDiskFailed = disk.ErrDiskFailed

// ErrTransient is wrapped by query errors when a read kept failing
// transiently after the retry budget of the fault model was exhausted.
var ErrTransient = disk.ErrTransient

// ErrUnavailable is returned when every disk holding a live copy of the
// data is failed, so not even a best-effort answer exists.
var ErrUnavailable = errors.New("parsearch: no live copy of the data is reachable")

// FaultModel configures fault injection on the simulated disks: a
// per-read transient error probability (absorbed by a bounded retry
// with exponential backoff, charged as service time) and latency
// spikes. All randomness is drawn from per-disk RNGs seeded from Seed,
// so runs reproduce. The zero model disables fault injection.
type FaultModel struct {
	// TransientProb is the per-read probability of a transient error.
	TransientProb float64
	// MaxRetries bounds the retries of one page read; a read still
	// failing after MaxRetries retries surfaces as ErrTransient.
	MaxRetries int
	// RetryBackoff is the simulated wait charged before the first
	// retry, doubling on every further attempt.
	RetryBackoff time.Duration
	// SpikeProb is the per-read probability of a latency spike.
	SpikeProb float64
	// SpikeLatency is the extra service time charged per spike.
	SpikeLatency time.Duration
	// Seed seeds the per-disk RNGs (disk d uses Seed+d).
	Seed int64
}

// diskFaults converts the public model to the disk simulator's.
func (m FaultModel) diskFaults() disk.FaultModel {
	return disk.FaultModel{
		TransientProb: m.TransientProb,
		MaxRetries:    m.MaxRetries,
		RetryBackoff:  m.RetryBackoff,
		SpikeProb:     m.SpikeProb,
		SpikeLatency:  m.SpikeLatency,
		Seed:          m.Seed,
	}
}

// SetFaults installs (or, with the zero model, removes) the disk fault
// model. It takes effect for queries that start after the call.
func (ix *Index) SetFaults(m FaultModel) error {
	return ix.array.SetFaults(m.diskFaults())
}

// replicaOf returns the disk holding the replica of disk d's cells:
// the next disk modulo n (chained declustering). The shift guarantees
// primary != replica for n >= 2 and keeps the replica load perfectly
// balanced — every disk hosts exactly one neighbor's copy, so any
// single failure adds at most one disk's worth of load to one survivor.
func replicaOf(d, n int) int { return (d + 1) % n }

// ReplicaDisk returns the disk holding the replica of disk d's cells,
// or -1 when the index was opened without replication (or d is out of
// range).
func (ix *Index) ReplicaDisk(d int) int {
	if ix.opts.Replication == 0 || d < 0 || d >= ix.opts.Disks {
		return -1
	}
	return replicaOf(d, ix.opts.Disks)
}

// route describes how one logical shard is served during a query: the
// tree to search and the physical disk charged for its page reads. tree
// is nil (and disk -1) when neither the primary nor the replica disk is
// live — the shard's data is unreachable. masked marks a disk a
// ShardSpec excluded from the query: it is neither searched nor
// accounted (another process shard serves it), unlike an unreachable
// disk, whose absence is charged as Unreachable/Degraded.
type route struct {
	tree     *xtree.Tree
	disk     int
	rerouted bool
	masked   bool
}

// plan snapshots the failure flags once and routes every logical shard
// to a live copy: the primary disk when it is up, the chained replica
// when only the primary is down, unreachable when both are. A query
// plans once and uses the same routing for its search and its I/O
// accounting, so a single query sees one consistent failure state;
// failures flipped mid-query surface as ReadBatch errors, never as
// silently wrong results. degraded reports whether any non-empty shard
// is unreachable (its points are invisible to the query); the query
// refines this into QueryStats.Degraded, which stays false when the
// unreachable pages provably could not have changed the answer.
//
// mask, when non-nil, is a ShardSpec's disk selection: excluded disks
// get a masked route — skipped entirely, with no degraded accounting
// (they are another process shard's responsibility, not lost data).
func (ix *Index) plan(v *version, mask []bool) (routes []route, degraded bool) {
	n := len(v.shards)
	routes = make([]route, n)
	for d := 0; d < n; d++ {
		if mask != nil && !mask[d] {
			routes[d] = route{disk: -1, masked: true}
			continue
		}
		if !ix.array.Failed(d) {
			routes[d] = route{tree: v.shards[d], disk: d}
			continue
		}
		if v.replicas != nil {
			if r := replicaOf(d, n); !ix.array.Failed(r) {
				routes[d] = route{tree: v.replicas[r], disk: r, rerouted: true}
				continue
			}
		}
		routes[d] = route{disk: -1}
		if v.shards[d].Len() > 0 {
			degraded = true
		}
	}
	return routes, degraded
}

// healthyPlan routes every shard to its own disk regardless of the
// failure flags — the accounting path of capacity planning
// (ServiceDemands), which models the healthy system.
func healthyPlan(v *version) []route {
	routes := make([]route, len(v.shards))
	for d := range routes {
		routes[d] = route{tree: v.shards[d], disk: d}
	}
	return routes
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// opKind is one operation class of a workload's sequence.
type opKind int

const (
	opKNN opKind = iota
	opKNNEps
	opRange
	opPartial
	opBatch
	opInsert
	opDelete
	opCheckpoint
	opReorg
	numKinds
)

var kindNames = [numKinds]string{"knn", "knn-eps", "range", "partialmatch", "batch", "insert", "delete", "checkpoint", "reorganize"}

func (k opKind) String() string { return kindNames[k] }

const (
	knnK      = 10  // k of every k-NN operation
	batchSize = 16  // queries per batch operation
	epsilon   = 0.1 // ε of the approximate k-NN operations
)

// deployment is what the clients drive.
type deployment int

const (
	deployLib     deployment = iota // in-process *parsearch.Index
	deployServer                    // server front over loopback, through client.Client
	deployCluster                   // coord front over three shard fronts
	deployDurable                   // in-process durable index, WALSync always
)

// spec is one workload: its data, its deployment and its operation mix.
// The names and mixes are the benchmark's contract (see README.md); a
// change to them invalidates every number measured before it.
type spec struct {
	name   string
	deploy deployment
	// clients is the number of closed-loop clients: 2, the reference box's
	// nproc, except where one operation alone already fills both cores.
	clients int
	// data
	points, dim int
	fourier     bool // data.Fourier with QueriesFromData, else uniform
	quantile    bool
	// mix is the share of each operation class, in percent.
	mix [numKinds]int
	// second is the operation class the second_* latencies report.
	second opKind
	// setupReps is how often one run sets the deployment up and reopenReps
	// how often it brings the index back from its persisted form; setup_s
	// and recover_s are the medians.
	setupReps, reopenReps int
}

const disks = 16

// specs are the four workloads. Sizes are the full ones; smoke() shrinks
// them for the tests.
var specs = []spec{
	{
		name: "lib-scale", deploy: deployLib, clients: 2,
		points: 1_000_000, dim: 10,
		mix:    mixOf(map[opKind]int{opKNN: 90, opRange: 10}),
		second: opRange, setupReps: 3, reopenReps: 3,
	},
	{
		name: "serve-mixed", deploy: deployServer, clients: 2,
		points: 50_000, dim: 16, fourier: true, quantile: true,
		mix:    mixOf(map[opKind]int{opKNN: 55, opKNNEps: 10, opRange: 15, opPartial: 5, opBatch: 15}),
		second: opBatch, setupReps: 7, reopenReps: 5,
	},
	{
		// One client: a cluster operation already runs on both cores (two
		// shard RPCs side by side, each fanning out over its disks), and a
		// second client tripled the run-to-run spread of every timing.
		name: "cluster-knn", deploy: deployCluster, clients: 1,
		points: 50_000, dim: 16, fourier: true, quantile: true,
		mix:    mixOf(map[opKind]int{opKNN: 80, opRange: 10, opBatch: 10}),
		second: opBatch, setupReps: 7, reopenReps: 5,
	},
	{
		name: "live-durable", deploy: deployDurable, clients: 2,
		points: 100_000, dim: 10, quantile: true,
		mix:    mixOf(map[opKind]int{opKNN: 70, opInsert: 25, opDelete: 5}),
		second: opInsert, setupReps: 5, reopenReps: 5,
	},
}

func mixOf(m map[opKind]int) (mix [numKinds]int) {
	total := 0
	for k, share := range m {
		mix[k] = share
		total += share
	}
	if total != 100 {
		panic(fmt.Sprintf("bench: mix sums to %d", total))
	}
	return mix
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// smoke shrinks a workload to thousands of points so the tests finish in
// seconds; the shape (deployment, mix, checks, traced pass) is unchanged.
func (s spec) smoke() spec {
	s.points /= 25
	if s.points > 8000 {
		s.points = 8000
	}
	s.setupReps, s.reopenReps = 2, 2
	return s
}

// Metric directions as BENCHMARK.json spells them.
const (
	lower  = "lower"
	higher = "higher"
)

// metricDef names one metric of the contract. BENCHMARK.json carries the
// same names, units and directions plus the bounds; the test keeps the
// two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system would see, measured with
// tracing off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", lower},
	{"ops_per_s", "1/s", higher},
	{"knn_p50_ms", "ms", lower},
	{"knn_p90_ms", "ms", lower},
	{"second_p50_ms", "ms", lower},
	{"recover_s", "s", lower},
	{"mem_amp", "ratio", lower},
	{"sim_speedup", "ratio", higher},
	{"approx_recall", "ratio", higher},
}

// perLayer are the metrics of single layers, measured on the traced pass
// and by the layer probes. The prefix is the module.
var perLayer = []metricDef{
	{"slab.dists_ns_per_point", "ns", lower},
	{"slab.mindists_ns_per_rect", "ns", lower},
	{"slab.inrect_ns_per_point", "ns", lower},
	{"slab.build_ns_per_point", "ns", lower},

	{"xtree.bulkload_ns_per_point", "ns", lower},
	{"xtree.insert_us", "us", lower},
	{"xtree.range_us", "us", lower},
	{"xtree.leaf_fill", "ratio", higher},
	{"xtree.supernodes", "count", lower},

	{"knn.hsshared_us", "us", lower},
	{"knn.hsshared_allocs", "count", lower},
	{"knn.pages_per_search", "count", lower},

	{"engine.knn_us", "us", lower},
	{"engine.range_us", "us", lower},
	{"engine.batch_item_us", "us", lower},
	{"engine.plan_share", "ratio", lower},
	{"engine.search_share", "ratio", lower},
	{"engine.merge_share", "ratio", lower},
	{"engine.io_share", "ratio", lower},
	{"engine.record_share", "ratio", lower},
	{"engine.search_skew", "ratio", lower},
	{"engine.allocs_per_knn", "count", lower},
	{"engine.bytes_per_knn", "count", lower},
	{"engine.search_pages_per_knn", "count", lower},
	{"engine.saved_pages_per_knn", "count", higher},
	{"engine.bound_prune_ratio", "ratio", higher},
	{"engine.pages_per_knn", "count", lower},
	{"engine.max_pages_per_knn", "count", lower},
	{"engine.balance", "ratio", higher},
	{"engine.approx_pages_skipped", "count", higher},
	{"engine.build_s", "s", lower},
	{"engine.insert_us", "us", lower},
	{"engine.checkpoint_s", "s", lower},
	{"engine.reorg_s", "s", lower},
	{"engine.reorg_buckets_split", "count", higher},
	{"engine.heap_mb", "MB", lower},

	{"disk.readbatch_us", "us", lower},
	{"disk.sim_parallel_ms", "ms", lower},

	{"wal.append_us", "us", lower},
	{"wal.fsyncs_per_insert", "ratio", lower},
	{"wal.bytes_per_insert", "count", lower},
	{"wal.replay_ns_per_record", "ns", lower},

	{"durable.save_s", "s", lower},
	{"durable.snapshot_load_s", "s", lower},
	{"durable.disk_amp", "ratio", lower},
	{"durable.recovered_records", "count", lower},

	{"wire.decode_knn_us", "us", lower},
	{"wire.encode_resp_us", "us", lower},
	{"wire.decode_resp_us", "us", lower},
	{"wire.req_bytes", "count", lower},
	{"wire.resp_bytes", "count", lower},
	{"wire.allocs_per_roundtrip", "count", lower},

	{"server.handle_us", "us", lower},
	{"server.self_us", "us", lower},
	{"server.coalesce_wait_us", "us", lower},
	{"server.coalesce_batch_size", "ratio", higher},
	{"server.rejected", "count", lower},

	{"client.rpc_us", "us", lower},
	{"client.self_us", "us", lower},

	{"coord.handle_us", "us", lower},
	{"coord.self_us", "us", lower},
	{"coord.rpc_us", "us", lower},
	{"coord.rpc_gap_us", "us", lower},
	{"coord.phase1_share", "ratio", lower},
	{"coord.rpcs_per_query", "ratio", lower},
	{"coord.remote_saved_pages_per_query", "count", higher},
	{"coord.shard_retries", "count", lower},

	{"op.knn_p99_ms", "ms", lower},
	{"op.second_p90_ms", "ms", lower},
	{"trace.overhead_share", "ratio", lower},
	{"residual_share", "ratio", lower},
}

// contract is BENCHMARK.json, the benchmark's agreement with the driver.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadContract reads BENCHMARK.json from the working directory or its
// parent: the driver runs the benchmark from the root of the checkout,
// `go test` from bench/.
func loadContract() (contract, error) {
	var c contract
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(p)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return c, err
		}
		if err := json.Unmarshal(data, &c); err != nil {
			return c, fmt.Errorf("%s: %w", p, err)
		}
		return c, nil
	}
	return c, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func (c contract) bound(name string) float64 {
	for _, m := range c.EndToEnd {
		if m.Name == name && m.Bound != nil {
			return *m.Bound
		}
	}
	return 0
}

func (c contract) runTime() time.Duration { return time.Duration(c.RunSeconds) * time.Second }

package main

import (
	"fmt"
	"runtime"
	"time"
)

// measured is one metric's value with the number of samples behind it.
type measured struct {
	value float64
	n     int
}

// result is the outcome of one pass over one workload.
type result struct {
	workload          string
	metrics           map[string]measured
	attempted, failed int
	// problems are the first few failed checks, for the reader.
	problems []string
	// classes holds the latency of every operation class the pass ran,
	// printed for orientation; only the contract's metrics are reported.
	classes map[opKind]latency
	spans   []span
}

// config is what the command line decides for every pass.
type config struct {
	seed   int64
	window time.Duration
	smoke  bool
	tmp    string
}

// speedupQueries is how many pool queries give a workload its simulated
// speed-up.
const speedupQueries = 1000

// liveHeap returns the heap in use after a collection, in bytes.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// endToEndPass measures a workload with tracing off: repeated set-up, one
// closed-loop phase, the reopen, then the output check.
func endToEndPass(s spec, cfg config) (*result, error) {
	ds := generate(s, cfg.seed, cfg.smoke)
	res := &result{workload: s.name, metrics: map[string]measured{}}

	var (
		r      *rig
		setups []time.Duration
	)
	for i := 0; i < s.setupReps; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC() // each set-up starts from a collected heap
		var took time.Duration
		var err error
		r, took, err = setUp(ds, s.deploy, nil, cfg.tmp)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took)
	}
	defer r.close()
	res.metrics["setup_s"] = measured{medianDuration(setups).Seconds(), len(setups)}
	res.metrics["mem_amp"] = measured{liveHeap() / ds.rawBytes(), 1}

	ph := drive(r, ds, cfg.seed, cfg.window, nil)
	res.attempted, res.failed = ph.count()
	res.metrics["ops_per_s"] = measured{ph.opsPerSecond(), res.attempted - res.failed}
	// One tail is bounded: p90 of the thousands of k-NN operations, the
	// highest percentile that repeats about as well as the median on every
	// workload. Further out a slow spell of the shared host moves a tail
	// twice as far as the median (README.md, Bounds), so the k-NN p99 and
	// the second class's p90 are per-layer metrics of the traced pass.
	knn := ph.latencyOf(opKNN, opKNNEps)
	second := ph.latencyOf(s.second)
	res.metrics["knn_p50_ms"] = measured{knn.p50, knn.n}
	res.metrics["knn_p90_ms"] = measured{knn.p90, knn.n}
	res.metrics["second_p50_ms"] = measured{second.p50, second.n}
	res.classes = ph.classes()

	reopened, took, err := r.reopen(ds, s.reopenReps, cfg.tmp)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	res.metrics["recover_s"] = measured{took.Seconds(), s.reopenReps}

	v := verify(r, ds, model(ds, ph), cfg.seed)
	verifyReopened(reopened, ds, ph, &v)
	res.attempted += v.attempted
	res.failed += v.failed
	res.problems = v.first
	res.metrics["approx_recall"] = measured{v.recall, v.queries}
	// The simulated speed-up is read where QueryStats is at hand, in process,
	// over the head of the query pool: the typed client drops a front's
	// statistics and the coordinator reports none. A fixed query set makes
	// it repeat exactly for a seed on a read-only workload.
	n := speedupQueries
	if s.points > 100_000 {
		n = speedupQueries / 4 // a query costs 7 ms on a million points
	}
	speedup := 0.0
	for _, q := range ds.queries[:n] {
		_, st, err := r.ix.KNN(q, knnK)
		if err != nil {
			return nil, fmt.Errorf("reading QueryStats: %w", err)
		}
		speedup += st.Speedup / float64(n)
	}
	res.metrics["sim_speedup"] = measured{speedup, n}
	return res, nil
}

// tracedPass measures a workload's layers: a traced phase between two
// untraced ones (their ratio is the tracing overhead), the public counters,
// the output check, the layer probes, and the stack probes for the layers
// the workload's deployment does not pass through.
func tracedPass(s spec, cfg config) (*result, error) {
	ds := generate(s, cfg.seed, cfg.smoke)
	res := &result{workload: s.name, metrics: map[string]measured{}}

	// The traced phase runs between two halves of the untraced one, each
	// on a rig of its own, so drift over the pass weighs on both alike.
	bare, _, err := setUp(ds, s.deploy, nil, cfg.tmp)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer bare.close()
	heap := liveHeap() // the data set and one index
	tr := newTracer()
	r, _, err := setUp(ds, s.deploy, tr, cfg.tmp)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.close()
	layers := layerSet{
		"engine.build_s": r.build.Seconds(),
		"engine.heap_mb": heap / 1e6,
	}
	tr.take() // the set-up's first answer is not part of the pass
	before := r.ix.Metrics()
	untraced := drive(bare, ds, cfg.seed, cfg.window/4, nil)
	ph := drive(r, ds, cfg.seed, cfg.window/2, tr)
	after := drive(bare, ds, cfg.seed, cfg.window/4, nil)
	untracedOps := (untraced.opsPerSecond() + after.opsPerSecond()) / 2
	res.attempted, res.failed = ph.count()
	res.spans = tr.take()
	layers.fill(spanMetrics(res.spans))
	layers.fill(counterMetrics(r, before, r.ix.Metrics(), tr))
	layers["trace.overhead_share"] = 1 - ph.opsPerSecond()/untracedOps
	layers["op.knn_p99_ms"] = ph.latencyOf(opKNN, opKNNEps).p99
	layers["op.second_p90_ms"] = ph.latencyOf(s.second).p90
	res.classes = ph.classes()
	if r.dir != "" {
		m, err := durableMetrics(r, ds, ph, cfg.tmp)
		if err != nil {
			return nil, fmt.Errorf("durable metrics: %w", err)
		}
		layers.fill(m)
	}

	v := verify(r, ds, model(ds, ph), cfg.seed)
	res.attempted += v.attempted
	res.failed += v.failed
	res.problems = v.first

	// The deterministic page counts: QueryStats of the first 100 pool queries.
	c, err := engineCosts(r.ix, ds.queries[:100])
	if err != nil {
		return nil, fmt.Errorf("reading QueryStats: %w", err)
	}
	layers.fill(c.layers())
	i := 0
	layers["engine.allocs_per_knn"], layers["engine.bytes_per_knn"] = allocsPer(100, func() {
		r.ix.KNN(ds.query(i), knnK)
		i++
	})

	budget := probeBudget
	if cfg.smoke {
		budget /= 10
	}
	probes, err := kernelProbes(ds, c, budget, cfg.tmp)
	if err != nil {
		return nil, err
	}
	layers.fill(probes)
	path, saved, err := r.saveSnapshot(cfg.tmp)
	if err != nil {
		return nil, fmt.Errorf("saving a snapshot: %w", err)
	}
	_, loaded, err := loadSnapshot(path)
	if err != nil {
		return nil, fmt.Errorf("loading a snapshot: %w", err)
	}
	layers["durable.save_s"], layers["durable.snapshot_load_s"] = saved.Seconds(), loaded.Seconds()

	stack, err := stackProbes(ds, r.ix, tr, cfg.smoke, cfg.tmp)
	if err != nil {
		return nil, err
	}
	layers.fill(stack)

	for name, v := range layers {
		res.metrics[name] = measured{v, 0}
	}
	return res, nil
}

// Command bench is the repository's benchmark: four seed-generated
// workloads driven against the real deployments (library, server front,
// coordinator over three shard fronts, durable write path), end-to-end
// metrics with tracing off, per-layer metrics from a traced pass and layer
// probes, and an output check against a linear scan. BENCHMARK.json at the
// root of the repository is its contract; README.md explains every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload: lib-scale, serve-mixed, cluster-knn or live-durable (default all)")
		seed     = flag.Int64("seed", 1, "seed of the data, the queries and the operation order")
		seconds  = flag.Float64("seconds", 0, "length of the measured phase (default run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", -1, "0: end-to-end pass, tracing off; 1: traced pass and layer probes; default both")
		traceOut = flag.String("trace-out", "", "write the traced pass's spans to this file, one JSON object a line")
		smoke    = flag.Bool("smoke", false, "shrink every workload to thousands of points (for tests)")
		repeat   = flag.Int("repeat", 0, "run the end-to-end passes this many times and compare them against the bounds")
		tmp      = flag.String("tmp", ".bench_build/tmp", "directory for durable directories and snapshots")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *traceOut, *smoke, *repeat, *tmp); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, traceOut string, smoke bool, repeat int, tmp string) error {
	con, err := loadContract()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	cfg := config{seed: seed, window: con.runTime(), smoke: smoke, tmp: tmp}
	if seconds > 0 {
		cfg.window = time.Duration(seconds * float64(time.Second))
	}
	todo := specs
	if workload != "" {
		s, ok := specByName(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		todo = []spec{s}
	}
	if smoke {
		for i := range todo {
			todo[i] = todo[i].smoke()
		}
	}
	fmt.Printf("GOMAXPROCS %d, closed loop, seed %d, measured phase %v; durable workloads run with WALSync always\n",
		runtime.GOMAXPROCS(0), seed, cfg.window)
	if repeat > 0 {
		return repeatSets(todo, cfg, con, repeat)
	}
	passes := []struct {
		skippedBy int // the value of -trace that leaves this pass out
		run       func(spec, config) (*result, error)
		defs      []metricDef
	}{{1, endToEndPass, endToEnd}, {0, tracedPass, perLayer}}
	failed := 0
	for _, s := range todo {
		for _, p := range passes {
			if trace == p.skippedBy {
				continue
			}
			res, err := p.run(s, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			if traceOut != "" && res.spans != nil {
				if err := writeSpans(traceOut, res.spans); err != nil {
					return err
				}
			}
			report(res, p.defs, con)
			failed += res.failed
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed or answered wrongly", failed)
	}
	return nil
}

// report prints one pass: a line per metric for the reader, then the
// result object the driver parses.
func report(res *result, defs []metricDef, con contract) {
	fmt.Printf("\n%s\n", res.workload)
	for k := opKind(0); k < numKinds; k++ {
		if l, ok := res.classes[k]; ok {
			fmt.Printf("  %-14s n=%-7d mean %9.3f  p50 %9.3f  p90 %9.3f  p99 %9.3f ms\n",
				k, l.n, l.mean, l.p50, l.p90, l.p99)
		}
	}
	type out struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]out{}
	for _, d := range defs {
		m, ok := res.metrics[d.name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			// Every metric of the list is due on every workload.
			fmt.Printf("  %-36s missing\n", d.name)
			res.failed++
			res.problems = append(res.problems, "metric "+d.name+" was not measured")
			continue
		}
		line := fmt.Sprintf("  %-36s %14.6g %-6s %s is better", d.name, m.value, d.unit, d.better)
		if m.n > 0 {
			line += fmt.Sprintf("  n=%d", m.n)
		}
		if b := con.bound(d.name); b > 0 {
			line += fmt.Sprintf("  bound %.2f", b)
		}
		fmt.Println(line)
		metrics[d.name] = out{m.value, d.unit}
	}
	for _, p := range res.problems {
		fmt.Println("  FAILED:", p)
	}
	fmt.Printf("  attempted %d, failed %d\n", res.attempted, res.failed)
	line, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]out `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	fmt.Println(string(line))
}

// repeatRuns is how many end-to-end passes make one set of the
// repeatability check; a set's figure is their median, as the driver judges
// medians of runs, not single runs.
const repeatRuns = 3

// repeatSets measures every workload n times on the same seed — each time
// the median of repeatRuns end-to-end passes — and prints, per workload and
// metric, the n values, the largest relative difference from the first, and
// the bound. It fails when a difference exceeds its bound or an operation
// failed.
func repeatSets(todo []spec, cfg config, con contract, n int) error {
	sets := make([]map[string]map[string]float64, n)
	bad := 0
	for i := range sets {
		sets[i] = map[string]map[string]float64{}
		for _, s := range todo {
			runs := map[string][]float64{}
			for j := 0; j < repeatRuns; j++ {
				res, err := endToEndPass(s, cfg)
				if err != nil {
					return fmt.Errorf("%s: %w", s.name, err)
				}
				fmt.Printf("set %d, run %d: %s attempted %d, failed %d\n", i+1, j+1, s.name, res.attempted, res.failed)
				bad += res.failed
				for name, m := range res.metrics {
					runs[name] = append(runs[name], m.value)
				}
			}
			sets[i][s.name] = map[string]float64{}
			for name, vs := range runs {
				sets[i][s.name][name] = median(vs)
			}
		}
	}
	for _, s := range todo {
		fmt.Printf("\n%s (medians of %d runs)\n", s.name, repeatRuns)
		for _, d := range endToEnd {
			first := sets[0][s.name][d.name]
			line := fmt.Sprintf("  %-16s", d.name)
			worst := 0.0
			for i := range sets {
				v := sets[i][s.name][d.name]
				line += fmt.Sprintf(" %12.6g", v)
				worst = math.Max(worst, math.Abs(v-first)/first)
			}
			bound := con.bound(d.name)
			verdict := "ok"
			if worst > bound {
				verdict = "OVER"
				bad++
			}
			fmt.Printf("%s %-5s diff %.4f  bound %.2f  %s\n", line, d.unit, worst, bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics differ by more than their bound, or operations failed", bad)
	}
	return nil
}

package main

import (
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

func smokeConfig(t *testing.T, seed int64) config {
	return config{seed: seed, window: 400 * time.Millisecond, smoke: true, tmp: t.TempDir()}
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

func measuredNames(res *result) []string {
	var out []string
	for name := range res.metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestContract keeps BENCHMARK.json and the benchmark's own tables in
// step: the same workloads, the same metrics with the same units and
// directions, every name well-formed, every end-to-end metric bounded.
func TestContract(t *testing.T) {
	con, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	var want, got []string
	for _, s := range specs {
		want = append(want, s.name)
	}
	for _, w := range con.Workloads {
		got = append(got, w.Name)
		if !wellFormed.MatchString(w.Name) {
			t.Errorf("workload name %q is malformed", w.Name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark runs %v", got, want)
	}
	for _, list := range []struct {
		kind     string
		contract []contractMetric
		defs     []metricDef
	}{{"end_to_end", con.EndToEnd, endToEnd}, {"per_layer", con.PerLayer, perLayer}} {
		if len(list.contract) != len(list.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", list.kind, len(list.contract), len(list.defs))
		}
		for i, m := range list.contract {
			d := list.defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the benchmark %s/%s/%s",
					list.kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			if !wellFormed.MatchString(m.Name) {
				t.Errorf("metric name %q is malformed", m.Name)
			}
			if bounded := m.Bound != nil; bounded != (list.kind == "end_to_end") {
				t.Errorf("%s metric %s: bound present = %v", list.kind, m.Name, bounded)
			}
		}
	}
	if b := con.bound("setup_s"); b <= 0 || b > 0.25 {
		t.Errorf("setup_s bound %v outside (0, 0.25]", b)
	}
}

// TestSmoke runs every workload at a tiny size through both passes — the
// closed loop, the reopen, the output check, the traced pass, the layer and
// stack probes — and demands that nothing fails and that each pass reports
// exactly the metrics of its list.
func TestSmoke(t *testing.T) {
	for _, s := range specs {
		s := s.smoke()
		t.Run(s.name, func(t *testing.T) {
			cfg := smokeConfig(t, 1)
			for _, pass := range []struct {
				name string
				run  func(spec, config) (*result, error)
				defs []metricDef
			}{{"end-to-end", endToEndPass, endToEnd}, {"traced", tracedPass, perLayer}} {
				res, err := pass.run(s, cfg)
				if err != nil {
					t.Fatalf("%s pass: %v", pass.name, err)
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Errorf("%s pass: %d of %d operations failed: %v", pass.name, res.failed, res.attempted, res.problems)
				}
				if got, want := measuredNames(res), names(pass.defs); !reflect.DeepEqual(got, want) {
					t.Errorf("%s pass reports %v, want %v", pass.name, got, want)
				}
				if pass.name == "traced" && len(res.spans) == 0 {
					t.Error("traced pass recorded no spans")
				}
			}
		})
	}
}

// TestSeedDeterminism: the seed alone decides the inputs and the counts the
// program derives from them.
func TestSeedDeterminism(t *testing.T) {
	s, _ := specByName("lib-scale")
	s = s.smoke()
	if a, b := generate(s, 1, true), generate(s, 1, true); !reflect.DeepEqual(a.ops, b.ops) || !reflect.DeepEqual(a.points, b.points) {
		t.Fatal("the same seed generated different inputs")
	}
	if a, b := generate(s, 1, true), generate(s, 2, true); reflect.DeepEqual(a.ops, b.ops) {
		t.Fatal("different seeds generated the same sequence")
	}
	counts := func(seed int64) map[string]float64 {
		cfg := smokeConfig(t, seed)
		e2e, err := endToEndPass(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := tracedPass(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return map[string]float64{
			"sim_speedup":          e2e.metrics["sim_speedup"].value,
			"engine.pages_per_knn": traced.metrics["engine.pages_per_knn"].value,
			"knn.pages_per_search": traced.metrics["knn.pages_per_search"].value,
		}
	}
	first, again, other := counts(1), counts(1), counts(2)
	if !reflect.DeepEqual(first, again) {
		t.Errorf("seed 1 gave %v, then %v", first, again)
	}
	for name, v := range first {
		if v == 0 || other[name] == v {
			t.Errorf("%s = %v on seed 1 and %v on seed 2", name, v, other[name])
		}
	}
}

func TestThroughputIsMedianOfFifths(t *testing.T) {
	ph := &phase{window: 5 * time.Second}
	// One stalled fifth must not decide the figure: 100 operations begin in
	// each second but the third, where 10 do.
	for f := 0; f < 5; f++ {
		n := 100
		if f == 2 {
			n = 10
		}
		for i := 0; i < n; i++ {
			ph.samples = append(ph.samples, sample{kind: opKNN, start: int64(f)*int64(time.Second) + int64(i), dur: int64(time.Millisecond)})
		}
	}
	if got := ph.opsPerSecond(); got != 100 {
		t.Errorf("opsPerSecond = %v, want 100", got)
	}
	if l := ph.latencyOf(opKNN); l.n != 410 || l.p50 != 1 || l.p99 != 1 {
		t.Errorf("latency = %+v, want n 410, p50 and p99 1 ms", l)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	x := indexSpans([]span{
		{ID: 1, Name: "op.knn", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client.rpc", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "client.rpc", Start: 40, End: 90}, // overlaps the first
		{ID: 4, Parent: 2, Name: "server.handle", Start: 20, End: 50},
	})
	if got := x.self(0); got != 20 {
		t.Errorf("op self = %d, want 20", got)
	}
	if got := x.self(1); got != 20 {
		t.Errorf("rpc self = %d, want 20", got)
	}
	m := spanMetrics(x.spans)
	if m["residual_share"] != 0.2 {
		t.Errorf("residual_share = %v, want 0.2", m["residual_share"])
	}
}

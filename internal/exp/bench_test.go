package exp

import (
	"encoding/json"
	"strings"
	"testing"
)

// tinyProfile keeps the harness test fast.
func tinyProfile() BenchProfile {
	return BenchProfile{Name: "tiny", Points: 600, Queries: 6, K: 4}
}

func TestRunBenchReport(t *testing.T) {
	report, err := RunBench(tinyProfile(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if report.Disks != BenchDisks || report.Profile != "tiny" {
		t.Fatalf("report header %+v", report)
	}
	names := []string{"knn16", "knn16-eps01", "range16", "batch16", "coord-knn16"}
	if len(report.Workloads) != len(names) {
		t.Fatalf("%d rows, want the %d of %v", len(report.Workloads), len(names), names)
	}
	for _, name := range names {
		w := report.Workload(name)
		if w == nil {
			t.Fatalf("workload %s missing from report", name)
		}
		// The tiny range workload can select zero pages (balance 0);
		// whenever pages were read the coefficient must be in (0, 1].
		if w.Balance < 0 || w.Balance > 1 || (w.PagesPerQuery > 0 && w.Balance == 0) {
			t.Errorf("%s: balance %v inconsistent with %v pages/query", name, w.Balance, w.PagesPerQuery)
		}
		if wantRecall := name == "knn16-eps01"; (w.Recall != 0) != wantRecall || w.Recall > 1 {
			t.Errorf("%s: recall %v", name, w.Recall)
		}
	}
	if report.Workload("knn16").PagesPerQuery <= 0 {
		t.Error("knn16 measured no pages")
	}
	// The multi-node row answers through a 3-shard cluster in one round:
	// no bound crosses the network, so none saves a page, and each group
	// stops at its own k-th distance, never inside the global one — the
	// cluster executes at least the library's pages.
	coordRow := report.Workload("coord-knn16")
	if coordRow.PagesPerQuery < report.Workload("knn16").PagesPerQuery {
		t.Errorf("coord-knn16 executed %v pages/query, below the library's %v",
			coordRow.PagesPerQuery, report.Workload("knn16").PagesPerQuery)
	}
	if coordRow.SavedPagesPerQuery != 0 {
		t.Errorf("coord-knn16 saved %v pages/query with no bound shipped, want 0",
			coordRow.SavedPagesPerQuery)
	}

	// Both k-NN paths search. (That the one queue never costs a page or
	// changes an answer is checked against independent searches by the
	// root package's tests.)
	for _, name := range []string{"knn16", "batch16"} {
		if w := report.Workload(name); w.SearchPagesPerQuery <= 0 {
			t.Errorf("%s: search %v pages/query, want > 0", name, w.SearchPagesPerQuery)
		}
	}

	// The property the ledger rests on: a second run reproduces every
	// deterministic column exactly — executed pages, balance, recall,
	// search pages and saved pages on every row — and so
	// compares clean against the first, whichever of the two is the
	// baseline.
	again, err := RunBench(tinyProfile(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range report.Workloads {
		a := again.Workload(w.Name)
		if a.PagesPerQuery != w.PagesPerQuery || a.Balance != w.Balance || a.Recall != w.Recall {
			t.Errorf("%s: pages %v/%v balance %v/%v recall %v/%v across identical runs",
				w.Name, w.PagesPerQuery, a.PagesPerQuery, w.Balance, a.Balance, w.Recall, a.Recall)
		}
		if a.SearchPagesPerQuery != w.SearchPagesPerQuery {
			t.Errorf("%s: search pages %v/%v across identical runs", w.Name, w.SearchPagesPerQuery, a.SearchPagesPerQuery)
		}
		if a.SavedPagesPerQuery != w.SavedPagesPerQuery {
			t.Errorf("%s: saved %v/%v across identical runs", w.Name, w.SavedPagesPerQuery, a.SavedPagesPerQuery)
		}
	}
	if diffs := append(CompareBench(report, again), CompareBench(again, report)...); len(diffs) != 0 {
		t.Errorf("identical runs do not compare clean: %v", diffs)
	}

	// The report round-trips through its JSON form, and has no clock in
	// it: no time, no latency, no core count.
	blob, err := MarshalBenchReport(report)
	if err != nil {
		t.Fatal(err)
	}
	var decoded BenchReport
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Workloads) != len(report.Workloads) {
		t.Fatalf("decoded %d workloads, want %d", len(decoded.Workloads), len(report.Workloads))
	}
	for _, key := range []string{"ns_per_op", "latency", "gomaxprocs", "reps"} {
		if strings.Contains(string(blob), key) {
			t.Errorf("report carries %q:\n%s", key, blob)
		}
	}

	if _, err := RunBench(BenchProfile{}, 1); err == nil {
		t.Error("zero profile accepted")
	}
}

func TestCompareBench(t *testing.T) {
	base := BenchReport{Profile: "short", Workloads: []BenchWorkload{
		{Name: "knn16", PagesPerQuery: 50, Balance: 0.8, SearchPagesPerQuery: 30, SavedPagesPerQuery: 10},
		{Name: "knn16-eps01", PagesPerQuery: 50, Balance: 0.8, SearchPagesPerQuery: 25, Recall: 1},
		{Name: "range16", PagesPerQuery: 8, Balance: 0.7, SearchPagesPerQuery: 12},
	}}
	// edit returns base with one row changed (or, with a nil change, dropped).
	edit := func(name string, change func(*BenchWorkload)) BenchReport {
		out := BenchReport{Profile: base.Profile}
		for _, w := range base.Workloads {
			if w.Name == name {
				if change == nil {
					continue
				}
				change(&w)
			}
			out.Workloads = append(out.Workloads, w)
		}
		return out
	}
	for _, c := range []struct {
		name    string
		current BenchReport
		want    string // substring of the one expected line; "" = compares clean
	}{
		{"identical", edit("", nil), ""},
		{"row only in the current report", BenchReport{Profile: "short", Workloads: append(
			[]BenchWorkload{{Name: "batch16", PagesPerQuery: 1}}, base.Workloads...)}, ""},
		{"saved pages are reported, not gated", edit("knn16", func(w *BenchWorkload) { w.SavedPagesPerQuery = 1 }), ""},
		{"recall above the floor", edit("knn16-eps01", func(w *BenchWorkload) { w.Recall = 0.97 }), ""},
		{"page cost grew", edit("range16", func(w *BenchWorkload) { w.PagesPerQuery += 1.0 / 48 }), "range16: pages/query"},
		{"page cost fell", edit("knn16", func(w *BenchWorkload) { w.PagesPerQuery -= 1.0 / 48 }), "knn16: pages/query"},
		{"approximate row's page cost moved", edit("knn16-eps01", func(w *BenchWorkload) { w.PagesPerQuery++ }), "knn16-eps01: pages/query"},
		{"balance moved", edit("knn16", func(w *BenchWorkload) { w.Balance = 0.8001 }), "knn16: balance"},
		{"deterministic search pages moved", edit("range16", func(w *BenchWorkload) { w.SearchPagesPerQuery = 12.5 }), "range16: search pages/query"},
		{"recall below the floor", edit("knn16-eps01", func(w *BenchWorkload) { w.Recall = 0.9 }), "recall 0.900 below"},
		{"recall no longer measured", edit("knn16-eps01", func(w *BenchWorkload) { w.Recall = 0 }), "recall 0.000 below"},
		{"baseline row missing from the run", edit("range16", nil), "range16: in the baseline, missing"},
		{"profile mismatch", BenchReport{Profile: "scale", Workloads: base.Workloads}, `profile "short" does not match run profile "scale"`},
	} {
		diffs := CompareBench(base, c.current)
		switch {
		case c.want == "" && len(diffs) != 0:
			t.Errorf("%s: unexpected differences: %v", c.name, diffs)
		case c.want != "" && (len(diffs) != 1 || !strings.Contains(diffs[0], c.want)):
			t.Errorf("%s: differences %v, want one containing %q", c.name, diffs, c.want)
		}
	}
}

// TestCompareBenchSearchPages: the k-NN rows' visited count is as
// deterministic as the range row's, so any move of it — by a page,
// either way — is a difference, while saved pages are not gated.
func TestCompareBenchSearchPages(t *testing.T) {
	base := BenchReport{Workloads: []BenchWorkload{
		{Name: "knn16", PagesPerQuery: 50, SearchPagesPerQuery: 30, SavedPagesPerQuery: 10},
		{Name: "knn16-eps01", PagesPerQuery: 50, SearchPagesPerQuery: 28, Recall: 1},
	}}
	ok := BenchReport{Workloads: []BenchWorkload{
		{Name: "knn16", PagesPerQuery: 50, SearchPagesPerQuery: 30, SavedPagesPerQuery: 8},
		{Name: "knn16-eps01", PagesPerQuery: 50, SearchPagesPerQuery: 28, Recall: 1},
	}}
	if regs := CompareBench(base, ok); len(regs) != 0 {
		t.Errorf("unexpected regressions: %v", regs)
	}
	for _, moved := range []float64{29, 31} {
		cur := BenchReport{Workloads: []BenchWorkload{
			{Name: "knn16", PagesPerQuery: 50, SearchPagesPerQuery: moved, SavedPagesPerQuery: 10},
			{Name: "knn16-eps01", PagesPerQuery: 50, SearchPagesPerQuery: 28, Recall: 1},
		}}
		if regs := CompareBench(base, cur); len(regs) != 1 || !strings.Contains(regs[0], "knn16: search pages/query") {
			t.Errorf("search pages %v against %v: differences %v, want one", moved, 30.0, regs)
		}
	}
}

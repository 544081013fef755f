package exp

import (
	"encoding/json"
	"strings"
	"testing"
)

// tinyProfile keeps the harness test fast.
func tinyProfile() BenchProfile {
	return BenchProfile{Name: "tiny", Points: 600, Queries: 6, K: 4, Reps: 2}
}

func TestRunBenchReport(t *testing.T) {
	report, err := RunBench(tinyProfile(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if report.Disks != BenchDisks || report.Profile != "tiny" {
		t.Fatalf("report header %+v", report)
	}
	for _, name := range []string{"knn16", "range16", "batch16",
		"coord-knn16", "wal-ingest", "mixed-serve16", "mixed-reorg16"} {
		w := report.Workload(name)
		if w == nil {
			t.Fatalf("workload %s missing from report", name)
		}
		if w.NsPerOp <= 0 {
			t.Errorf("%s: ns/op %d", name, w.NsPerOp)
		}
		// The tiny range workload can select zero pages (balance 0);
		// whenever pages were read the coefficient must be in (0, 1].
		if w.Balance < 0 || w.Balance > 1 || (w.PagesPerQuery > 0 && w.Balance == 0) {
			t.Errorf("%s: balance %v inconsistent with %v pages/query", name, w.Balance, w.PagesPerQuery)
		}
	}
	if report.Workload("knn16").PagesPerQuery <= 0 {
		t.Error("knn16 measured no pages")
	}
	// The multi-node row answers through a 3-shard cluster: it executes
	// pages and the phase-2 shards prune against the shipped remote
	// bound even at the tiny scale (16 disks split 6/5/5 across groups,
	// so two thirds of the cluster receives a bound).
	coordRow := report.Workload("coord-knn16")
	if coordRow.PagesPerQuery <= 0 {
		t.Error("coord-knn16 measured no pages")
	}
	if coordRow.SavedPagesPerQuery <= 0 {
		t.Errorf("coord-knn16 remote bound saved %v pages/query, want > 0",
			coordRow.SavedPagesPerQuery)
	}

	// The cooperative bound is alive on both k-NN paths. (That it never
	// costs a page or changes an answer is checked against independent
	// searches by the knn and root packages' tests.)
	for _, name := range []string{"knn16", "batch16"} {
		if w := report.Workload(name); w.SavedPagesPerQuery <= 0 || w.SearchPagesPerQuery <= 0 {
			t.Errorf("%s: search %v, saved %v pages/query, want both > 0",
				name, w.SearchPagesPerQuery, w.SavedPagesPerQuery)
		}
	}

	// Executed page costs are deterministic: a second run agrees exactly.
	// So do the search and saved pages of the batch row, whose items
	// search their disks one after the other; on the parallel rows they
	// depend on goroutine timing.
	again, err := RunBench(tinyProfile(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range report.Workloads {
		if strings.HasPrefix(w.Name, "mixed-") {
			// The mixed rows query while mutating (and, in the reorganize
			// variant, while the tree restructures): their page costs are
			// legitimately run-dependent.
			continue
		}
		a := again.Workload(w.Name)
		if a.PagesPerQuery != w.PagesPerQuery || a.Balance != w.Balance {
			t.Errorf("%s: pages %v/%v balance %v/%v across identical runs",
				w.Name, w.PagesPerQuery, a.PagesPerQuery, w.Balance, a.Balance)
		}
		if w.Name == "batch16" && (a.SearchPagesPerQuery != w.SearchPagesPerQuery || a.SavedPagesPerQuery != w.SavedPagesPerQuery) {
			t.Errorf("batch16: search %v/%v saved %v/%v across identical runs",
				w.SearchPagesPerQuery, a.SearchPagesPerQuery, w.SavedPagesPerQuery, a.SavedPagesPerQuery)
		}
	}

	// The report round-trips through its JSON form.
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

	if _, err := RunBench(BenchProfile{}, 1); err == nil {
		t.Error("zero profile accepted")
	}
}

func TestCompareBench(t *testing.T) {
	base := BenchReport{Workloads: []BenchWorkload{
		{Name: "knn16", NsPerOp: 1000, PagesPerQuery: 50},
		{Name: "range16", NsPerOp: 400, PagesPerQuery: 8},
	}}
	ok := BenchReport{Workloads: []BenchWorkload{
		{Name: "knn16", NsPerOp: 1200, PagesPerQuery: 50}, // +20% < 25%
		{Name: "range16", NsPerOp: 300, PagesPerQuery: 8},
		{Name: "batch16", NsPerOp: 9999, PagesPerQuery: 1}, // new workload: ignored
	}}
	if regs := CompareBench(base, ok, 0.25); len(regs) != 0 {
		t.Errorf("unexpected regressions: %v", regs)
	}

	bad := BenchReport{Workloads: []BenchWorkload{
		{Name: "knn16", NsPerOp: 1300, PagesPerQuery: 50},  // +30% > 25%
		{Name: "range16", NsPerOp: 400, PagesPerQuery: 12}, // page cost grew
	}}
	regs := CompareBench(base, bad, 0.25)
	if len(regs) != 2 {
		t.Fatalf("%d regressions, want 2: %v", len(regs), regs)
	}

	// The mixed rows mutate while measuring: page drift is expected and
	// not gated, and the ns threshold is tripled like the wal rows'.
	mixBase := BenchReport{Workloads: []BenchWorkload{
		{Name: "mixed-reorg16", NsPerOp: 1000, PagesPerQuery: 50, SearchPagesPerQuery: 30},
	}}
	mixOK := BenchReport{Workloads: []BenchWorkload{
		{Name: "mixed-reorg16", NsPerOp: 1700, PagesPerQuery: 80, SearchPagesPerQuery: 60}, // +70% < 75%
	}}
	if regs := CompareBench(mixBase, mixOK, 0.25); len(regs) != 0 {
		t.Errorf("mixed row within slack flagged: %v", regs)
	}
	mixBad := BenchReport{Workloads: []BenchWorkload{
		{Name: "mixed-reorg16", NsPerOp: 1800, PagesPerQuery: 50}, // +80% > 75%
	}}
	if regs := CompareBench(mixBase, mixBad, 0.25); len(regs) != 1 {
		t.Errorf("mixed row past tripled threshold: %d regressions, want 1: %v", len(regs), regs)
	}
}

// TestCompareBenchSearchPages: the visited count of the parallel k-NN
// path may wander a little between runs, but pruning that got weaker by
// more than 10% + 1 page is a regression.
func TestCompareBenchSearchPages(t *testing.T) {
	base := BenchReport{Workloads: []BenchWorkload{
		{Name: "knn16", NsPerOp: 1000, PagesPerQuery: 50, SearchPagesPerQuery: 30, SavedPagesPerQuery: 10},
	}}
	ok := BenchReport{Workloads: []BenchWorkload{
		{Name: "knn16", NsPerOp: 1000, PagesPerQuery: 50, SearchPagesPerQuery: 32, SavedPagesPerQuery: 8},
	}}
	if regs := CompareBench(base, ok, 0.25); len(regs) != 0 {
		t.Errorf("unexpected regressions: %v", regs)
	}
	weaker := BenchReport{Workloads: []BenchWorkload{
		{Name: "knn16", NsPerOp: 1000, PagesPerQuery: 50, SearchPagesPerQuery: 39, SavedPagesPerQuery: 1},
	}}
	if regs := CompareBench(base, weaker, 0.25); len(regs) != 1 {
		t.Errorf("weaker pruning: %d regressions, want 1: %v", len(regs), regs)
	}
}

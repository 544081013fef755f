package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parsearch/internal/exp"
)

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestListMode(t *testing.T) {
	out, _, code := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	for _, id := range []string{"fig1", "fig12", "fig17", "abl-knn", "ext-queueing"} {
		if !strings.Contains(out, id) {
			t.Errorf("listing missing %s:\n%s", id, out)
		}
	}
}

func TestNoArgsShowsHelp(t *testing.T) {
	out, _, code := runCLI(t)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(out, "run one with -run") {
		t.Errorf("missing hint:\n%s", out)
	}
}

func TestUnknownExperiment(t *testing.T) {
	_, errOut, code := runCLI(t, "-run", "fig99")
	if code == 0 {
		t.Fatal("expected nonzero exit")
	}
	if !strings.Contains(errOut, "unknown experiment") {
		t.Errorf("stderr: %q", errOut)
	}
}

func TestRunCheapExperimentWithTSV(t *testing.T) {
	dir := t.TempDir()
	out, _, code := runCLI(t, "-run", "fig7,fig10", "-tsv", dir)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(out, "== fig7") || !strings.Contains(out, "== fig10") {
		t.Errorf("missing results:\n%s", out)
	}
	for _, name := range []string{"fig7.tsv", "fig10.tsv"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("TSV not written: %v", err)
		}
		if !strings.Contains(string(b), "\t") {
			t.Errorf("%s does not look like TSV: %q", name, b)
		}
	}
}

func TestBadFlags(t *testing.T) {
	if _, _, code := runCLI(t, "-bogus"); code == 0 {
		t.Error("expected nonzero exit for unknown flag")
	}
}

func TestBenchSubcommand(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "BENCH_parsearch.json")

	_, errOut, code := runCLI(t, "bench", "-profile", "nope")
	if code == 0 || !strings.Contains(errOut, "unknown bench profile") {
		t.Fatalf("bad profile: code %d, stderr %q", code, errOut)
	}

	_, errOut, code = runCLI(t, "bench", "-profile", "short", "-out", outPath)
	if code != 0 {
		t.Fatalf("bench run failed (%d): %s", code, errOut)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var report exp.BenchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if report.Disks != exp.BenchDisks || len(report.Workloads) != 5 {
		t.Fatalf("report %+v", report)
	}
	// The cluster row runs each k-NN in one round: it executes pages,
	// and no shipped bound saves any.
	if w := report.Workload("coord-knn16"); w == nil || w.PagesPerQuery <= 0 || w.SavedPagesPerQuery != 0 {
		t.Fatalf("report lacks a one-round cluster row (pages > 0, none saved): %+v", w)
	}
	if w := report.Workload("knn16-eps01"); w == nil || w.Recall < exp.RecallFloor || w.Recall > 1 {
		t.Fatalf("approximate row %+v, want a recall in [%v, 1]", w, exp.RecallFloor)
	}
	for _, w := range report.Workloads {
		if w.Balance <= 0 || w.Balance > 1 {
			t.Errorf("%s balance %v", w.Name, w.Balance)
		}
	}

	// The gate: a run reproduces its own report and the committed
	// baseline, and exits 1 on a baseline that differs from it in a
	// deterministic value, holds a row the run no longer produces, or
	// was recorded under another profile.
	forge := func(name string, change func(*exp.BenchReport)) string {
		t.Helper()
		forged := report
		forged.Workloads = append([]exp.BenchWorkload(nil), report.Workloads...)
		change(&forged)
		blob, err := exp.MarshalBenchReport(forged)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, c := range []struct {
		name, baseline string
		code           int
		stderr         string
	}{
		{"own report", outPath, 0, "reproduces the baseline"},
		{"committed baseline", filepath.Join("..", "..", "BENCH_parsearch.json"), 0, "reproduces the baseline"},
		{"a page fewer in the baseline", forge("page", func(r *exp.BenchReport) {
			r.Workload("knn16").PagesPerQuery -= 1 / float64(r.Queries)
		}), 1, "MISMATCH knn16: pages/query"},
		{"a row the run no longer produces", forge("row", func(r *exp.BenchReport) {
			r.Workloads = append(r.Workloads, exp.BenchWorkload{Name: "server-knn16", PagesPerQuery: 108})
		}), 1, "MISMATCH server-knn16: in the baseline, missing from this run"},
		{"another profile's baseline", forge("profile", func(r *exp.BenchReport) {
			r.Profile = "full"
		}), 1, "does not match run profile"},
	} {
		_, errOut, code := runCLI(t, "bench", "-profile", "short", "-out", "-", "-baseline", c.baseline)
		if code != c.code || !strings.Contains(errOut, c.stderr) {
			t.Errorf("%s: code %d, stderr %q; want code %d and %q", c.name, code, errOut, c.code, c.stderr)
		}
	}
}

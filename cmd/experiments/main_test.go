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

	// A profile small enough for a unit test does not exist by name, so
	// use short but verify only the report structure, not timings.
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
	if report.Disks != exp.BenchDisks || len(report.Workloads) != 10 {
		t.Fatalf("report %+v", report)
	}
	if report.Workload("server-knn16") == nil {
		t.Fatal("report lacks the serving-latency row")
	}
	if w := report.Workload("coord-knn16"); w == nil || w.SavedPagesPerQuery <= 0 {
		t.Fatalf("report lacks a cluster row with remote-bound savings: %+v", w)
	}
	for _, name := range []string{"knn16-eps01", "knn16-lsh"} {
		w := report.Workload(name)
		if w == nil {
			t.Fatalf("report lacks the approximate row %s", name)
		}
		if w.Recall < exp.RecallFloor || w.Recall > 1 {
			t.Fatalf("%s recall %v outside [%v, 1]", name, w.Recall, exp.RecallFloor)
		}
	}
	for _, name := range []string{"mixed-serve16", "mixed-reorg16"} {
		if w := report.Workload(name); w == nil || w.NsPerOp <= 0 {
			t.Fatalf("report lacks a measured live-mutation row %s: %+v", name, w)
		}
	}
	if w := report.Workload("wal-ingest"); w == nil || w.NsPerOp <= 0 {
		t.Fatalf("report lacks a measured durable-ingest row: %+v", w)
	}
	for _, w := range report.Workloads {
		if w.Name == "wal-ingest" {
			continue // mutation-only: reads no pages, balance undefined
		}
		if w.Balance <= 0 || w.Balance > 1 {
			t.Errorf("%s balance %v", w.Name, w.Balance)
		}
	}

	// Gating against its own report passes; against a forged faster
	// baseline it fails with a regression message. The self-gate run
	// uses a wide threshold: this test shares the machine with the rest
	// of the suite, so wall-clock noise on the syscall-bound rows is
	// expected — regression *detection* is proven by the forged
	// baseline below, which no threshold can absorb.
	_, errOut, code = runCLI(t, "bench", "-profile", "short", "-out", "-",
		"-baseline", outPath, "-threshold", "3")
	if code != 0 {
		t.Fatalf("self-baseline gate failed (%d): %s", code, errOut)
	}
	forged := report
	forged.Workloads = append([]exp.BenchWorkload(nil), report.Workloads...)
	for i := range forged.Workloads {
		forged.Workloads[i].NsPerOp = 1 // impossibly fast baseline
	}
	blob, err := exp.MarshalBenchReport(forged)
	if err != nil {
		t.Fatal(err)
	}
	forgedPath := filepath.Join(dir, "forged.json")
	if err := os.WriteFile(forgedPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, errOut, code = runCLI(t, "bench", "-baseline", forgedPath)
	if code != 1 || !strings.Contains(errOut, "REGRESSION") {
		t.Fatalf("forged baseline: code %d, stderr %q", code, errOut)
	}

	// A baseline from a different profile is reported, not compared.
	mismatched := report
	mismatched.Profile = "full"
	blob, err = exp.MarshalBenchReport(mismatched)
	if err != nil {
		t.Fatal(err)
	}
	mismatchPath := filepath.Join(dir, "mismatch.json")
	if err := os.WriteFile(mismatchPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, errOut, code = runCLI(t, "bench", "-baseline", mismatchPath)
	if code != 0 || !strings.Contains(errOut, "does not match") {
		t.Fatalf("profile mismatch: code %d, stderr %q", code, errOut)
	}
}

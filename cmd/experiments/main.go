// Command experiments reproduces the figures of "Fast Parallel Similarity
// Search in Multimedia Databases" (SIGMOD 1997) and the repository's
// ablations, printing each as a numeric table.
//
// Usage:
//
//	experiments -list
//	experiments -run fig12
//	experiments -run all [-scale 0.5] [-queries 10] [-seed 42]
//
// The bench subcommand runs the deterministic cost ledger (see
// internal/exp.RunBench) and writes the machine-readable report CI
// compares against the committed baseline:
//
//	experiments bench [-profile short|full|scale] [-out BENCH_parsearch.json]
//	                  [-baseline BENCH_parsearch.json] [-seed 42]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"parsearch/internal/exp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command against the given argument list and streams;
// it returns the process exit code. Split from main for testability.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "bench" {
		return runBench(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the available experiments")
	runID := fs.String("run", "", "experiment id to run, or \"all\"")
	scale := fs.Float64("scale", 1.0, "data-set scale factor (1.0 = standard)")
	queries := fs.Int("queries", 20, "query points per measurement")
	seed := fs.Int64("seed", 42, "random seed")
	tsvDir := fs.String("tsv", "", "also write each result as a TSV file into this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list || *runID == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range exp.All() {
			fmt.Fprintf(stdout, "  %-14s %-18s %s\n", e.ID, e.Figure, e.Title)
		}
		if *runID == "" && !*list {
			fmt.Fprintln(stdout, "\nrun one with -run <id>, or -run all")
		}
		return 0
	}

	cfg := exp.Config{Scale: *scale, Queries: *queries, Seed: *seed}
	ids := strings.Split(*runID, ",")
	if *runID == "all" {
		ids = ids[:0]
		for _, e := range exp.All() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		e, ok := exp.Get(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(stderr, "experiments: unknown experiment %q (use -list)\n", id)
			return 1
		}
		start := time.Now()
		result := e.Run(cfg)
		fmt.Fprint(stdout, result.Format())
		fmt.Fprintf(stdout, "(%s, %s)\n\n", e.Figure, time.Since(start).Round(time.Millisecond))
		if *tsvDir != "" {
			path := filepath.Join(*tsvDir, result.ID+".tsv")
			if err := os.WriteFile(path, []byte(result.TSV()), 0o644); err != nil {
				fmt.Fprintf(stderr, "experiments: %v\n", err)
				return 1
			}
		}
	}
	return 0
}

// runBench implements the bench subcommand: run the ledger, write the
// report, and optionally gate against a baseline (exit 1 on any
// difference exp.CompareBench finds).
func runBench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	profile := fs.String("profile", "short", "bench profile: short, full, or scale")
	out := fs.String("out", "", "write the JSON report to this file ('-' or empty = stdout)")
	baseline := fs.String("baseline", "", "baseline BENCH_parsearch.json to gate against")
	seed := fs.Int64("seed", 42, "random seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p, ok := exp.BenchProfiles[*profile]
	if !ok {
		fmt.Fprintf(stderr, "experiments: unknown bench profile %q (short, full, scale)\n", *profile)
		return 1
	}
	report, err := exp.RunBench(p, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 1
	}
	blob, err := exp.MarshalBenchReport(report)
	if err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 1
	}
	if *out == "" || *out == "-" {
		stdout.Write(blob)
	} else if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 1
	}
	for _, w := range report.Workloads {
		fmt.Fprintf(stderr, "bench %-12s %10.1f pages/query  balance %.3f  %10.1f search pages/query\n",
			w.Name, w.PagesPerQuery, w.Balance, w.SearchPagesPerQuery)
	}

	if *baseline == "" {
		return 0
	}
	raw, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintf(stderr, "experiments: reading baseline: %v\n", err)
		return 1
	}
	var base exp.BenchReport
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(stderr, "experiments: parsing baseline: %v\n", err)
		return 1
	}
	if diffs := exp.CompareBench(base, report); len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Fprintf(stderr, "experiments: MISMATCH %s\n", d)
		}
		return 1
	}
	fmt.Fprintln(stderr, "bench: the run reproduces the baseline")
	return 0
}

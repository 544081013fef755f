// Command parsearchd serves a parallel similarity index over HTTP.
// It loads an index snapshot (or self-populates a synthetic one),
// mounts the serving API of package server, and drains gracefully on
// SIGTERM/SIGINT: in-flight queries complete, new requests get 503,
// then the listener closes.
//
// Usage:
//
//	parsearchd -snapshot index.snap -listen :7080
//	parsearchd -points 100000 -dim 10 -disks 16        # synthetic index
//	parsearchd -snapshot index.snap -max-batch 32
//	parsearchd -durable-dir /var/lib/parsearch         # WAL + crash recovery
//
// With -durable-dir the daemon opens (or creates) a durable index in
// that directory: prior state is recovered from the newest snapshot
// generation plus the write-ahead log, and the graceful drain closes
// the index so a clean shutdown leaves no torn log tail.
//
// Endpoints: POST /v1/{knn,range,partialmatch,batch}; GET /healthz,
// /varz, /statusz. See the server package documentation for the wire
// format and the admission/coalescing knobs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"parsearch"
	"parsearch/client"
	"parsearch/internal/data"
	"parsearch/server"
)

// config collects the flag values.
type config struct {
	snapshot    string
	durableDir  string
	walSync     string
	salvage     bool
	catchupFrom string
	listen      string

	// synthetic-index knobs (used when no snapshot is given)
	points   int
	dim      int
	disks    int
	strategy string
	seed     int64

	maxBatch     int
	maxInFlight  int
	maxQueue     int
	timeout      time.Duration
	drainTimeout time.Duration

	faultProb    float64
	faultRetries int
	spikeProb    float64
	spikeLatency time.Duration
}

func parseFlags(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("parsearchd", flag.ContinueOnError)
	fs.StringVar(&c.snapshot, "snapshot", "", "index snapshot to serve (parsearch.Save format); empty builds a synthetic index")
	fs.StringVar(&c.durableDir, "durable-dir", "", "directory for the durable mutation log; recovers existing state at startup")
	fs.StringVar(&c.walSync, "wal-sync", "always", "durable: WAL fsync policy, always|os")
	fs.BoolVar(&c.salvage, "salvage", false, "durable: recover the valid prefix of a corrupt log instead of refusing to start")
	fs.StringVar(&c.catchupFrom, "catchup-from", "", "durable: before opening, catch the durable dir up from this peer's base URL (snapshot+delta shipping)")
	fs.StringVar(&c.listen, "listen", ":7080", "listen address")
	fs.IntVar(&c.points, "points", 20000, "synthetic index: number of points")
	fs.IntVar(&c.dim, "dim", 10, "synthetic index: dimensionality")
	fs.IntVar(&c.disks, "disks", 16, "synthetic index: number of disks")
	fs.StringVar(&c.strategy, "strategy", "near-optimal", "synthetic index: declustering strategy")
	fs.Int64Var(&c.seed, "seed", 42, "synthetic index: data seed")
	fs.IntVar(&c.maxBatch, "max-batch", 16, "max coalesced batch size")
	fs.IntVar(&c.maxInFlight, "max-in-flight", 64, "admission: max concurrent requests")
	fs.IntVar(&c.maxQueue, "max-queue", 128, "admission: max queued requests (excess gets 429)")
	fs.DurationVar(&c.timeout, "timeout", 10*time.Second, "default per-request deadline")
	fs.DurationVar(&c.drainTimeout, "drain-timeout", 30*time.Second, "max wait for in-flight queries on shutdown")
	fs.Float64Var(&c.faultProb, "fault-prob", 0, "fault injection: per-read transient error probability")
	fs.IntVar(&c.faultRetries, "fault-retries", 3, "fault injection: max retries per page read")
	fs.Float64Var(&c.spikeProb, "spike-prob", 0, "fault injection: per-read latency spike probability")
	fs.DurationVar(&c.spikeLatency, "spike-latency", 20*time.Millisecond, "fault injection: extra service time per spike")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	return c, nil
}

// openIndex opens the durable directory, loads the snapshot, or builds
// a synthetic uniform index, in that order of preference. A fresh
// durable directory is seeded with the synthetic dataset so the first
// start and every restart go through the same code path.
func openIndex(c config) (*parsearch.Index, error) {
	if c.catchupFrom != "" && c.durableDir == "" {
		return nil, fmt.Errorf("-catchup-from requires -durable-dir")
	}
	if c.durableDir != "" {
		if c.snapshot != "" {
			return nil, fmt.Errorf("-snapshot and -durable-dir are mutually exclusive")
		}
		if c.catchupFrom != "" {
			shipped, err := client.New(c.catchupFrom).CatchupDir(context.Background(), c.durableDir)
			if err != nil {
				return nil, fmt.Errorf("catching up from %s: %w", c.catchupFrom, err)
			}
			fmt.Fprintf(os.Stderr, "parsearchd: caught up %s from %s (%d bytes shipped)\n",
				c.durableDir, c.catchupFrom, shipped)
		}
		ix, err := parsearch.Open(parsearch.Options{
			Dim:     c.dim,
			Disks:   c.disks,
			Kind:    parsearch.Kind(c.strategy),
			Durable: true,
			Dir:     c.durableDir,
			WALSync: parsearch.WALSyncPolicy(c.walSync),
			Salvage: c.salvage,
		})
		if err != nil {
			return nil, err
		}
		rec := ix.Recovery()
		if rec.Recovered {
			fmt.Fprintf(os.Stderr, "parsearchd: recovered %d points from %s (%d WAL records, %d log generations",
				ix.Len(), c.durableDir, rec.Records, rec.WALsReplayed)
			if rec.TornBytes > 0 {
				fmt.Fprintf(os.Stderr, ", %d torn bytes truncated", rec.TornBytes)
			}
			if rec.Salvaged {
				fmt.Fprintf(os.Stderr, ", salvaged %d bytes dropped", rec.DroppedBytes)
			}
			fmt.Fprintln(os.Stderr, ")")
			return ix, nil
		}
		if c.points > 0 {
			pts := data.Uniform(c.points, c.dim, c.seed)
			raw := make([][]float64, len(pts))
			for i, p := range pts {
				raw[i] = p
			}
			if err := ix.Build(raw); err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "parsearchd: seeded fresh durable dir %s with %d points\n", c.durableDir, c.points)
		}
		return ix, nil
	}
	if c.snapshot != "" {
		f, err := os.Open(c.snapshot)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		ix, err := parsearch.Load(f)
		if err != nil {
			return nil, fmt.Errorf("loading snapshot %s: %w", c.snapshot, err)
		}
		return ix, nil
	}
	ix, err := parsearch.Open(parsearch.Options{
		Dim:   c.dim,
		Disks: c.disks,
		Kind:  parsearch.Kind(c.strategy),
	})
	if err != nil {
		return nil, err
	}
	pts := data.Uniform(c.points, c.dim, c.seed)
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	if err := ix.Build(raw); err != nil {
		return nil, err
	}
	return ix, nil
}

// run is main minus the exit code, separated for tests. ready, when
// non-nil, receives the bound listen address once serving.
func run(ctx context.Context, c config, ready chan<- string) error {
	ix, err := openIndex(c)
	if err != nil {
		return err
	}
	if c.faultProb > 0 || c.spikeProb > 0 {
		err := ix.SetFaults(parsearch.FaultModel{
			TransientProb: c.faultProb,
			MaxRetries:    c.faultRetries,
			SpikeProb:     c.spikeProb,
			SpikeLatency:  c.spikeLatency,
		})
		if err != nil {
			return err
		}
	}
	srv, err := server.New(ix, server.Config{
		MaxBatch:       c.maxBatch,
		MaxInFlight:    c.maxInFlight,
		MaxQueue:       c.maxQueue,
		DefaultTimeout: c.timeout,
		ExpvarName:     "parsearch",
	})
	if err != nil {
		return err
	}

	return srv.ListenAndServe(ctx, "parsearchd", c.listen, c.drainTimeout, func(addr net.Addr) {
		fmt.Fprintf(os.Stderr, "parsearchd: serving %d points on %d disks at %s\n", ix.Len(), ix.Disks(), addr)
		if ready != nil {
			ready <- addr.String()
		}
	}, func() {
		// With the query layer drained, close the index: the WAL is
		// flushed to its sync point and further mutations are refused,
		// so the next start recovers with no torn tail. Queries served
		// during the HTTP wind-down still work on a closed index.
		if err := ix.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "parsearchd: closing index: %v\n", err)
		}
	})
}

func main() {
	c, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		os.Exit(2)
	}
	if err := run(context.Background(), c, nil); err != nil {
		fmt.Fprintf(os.Stderr, "parsearchd: %v\n", err)
		os.Exit(1)
	}
}

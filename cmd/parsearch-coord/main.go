// Command parsearch-coord serves a multi-node parsearch cluster: it
// fans queries out to a set of parsearchd shard daemons (package
// coord), merges the per-group answers into results byte-identical to
// the single-process library, and drains gracefully on SIGTERM/SIGINT.
//
// Usage:
//
//	parsearch-coord -shards http://s0:7080,http://s1:7080,http://s2:7080 \
//	    -dim 10 -disks 16 -listen :7090
//
// Shard i primarily serves group i of the disk → disk mod m partition;
// every shard holds the full snapshot (bootstrap one with
// parsearchd -catchup-from), so a dead shard's groups fail over to the
// next live shard. A k-NN query asks every shard at once, in one
// round. The coordinator re-probes shard health every -health-interval
// and on every GET /healthz.
//
// The -strategy flag is removed: it picked the home shard of the old
// two-round k-NN, and a one-round query has none.
//
// Endpoints: POST /v1/{knn,range,partialmatch,batch}; GET /healthz,
// /varz, /statusz — the same surface as parsearchd, so package client
// works against a cluster unchanged.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"parsearch/coord"
)

// config collects the flag values.
type config struct {
	shards string
	listen string
	dim    int
	disks  int

	maxInFlight    int
	maxQueue       int
	timeout        time.Duration
	drainTimeout   time.Duration
	healthInterval time.Duration
}

func parseFlags(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("parsearch-coord", flag.ContinueOnError)
	fs.StringVar(&c.shards, "shards", "", "comma-separated shard daemon base URLs; shard i serves group i (required)")
	fs.StringVar(&c.listen, "listen", ":7090", "listen address")
	fs.IntVar(&c.dim, "dim", 10, "vector dimensionality of the served index")
	fs.IntVar(&c.disks, "disks", 16, "declustered disk count of the served index")
	fs.IntVar(&c.maxInFlight, "max-in-flight", 64, "admission: max concurrent fan-outs")
	fs.IntVar(&c.maxQueue, "max-queue", 128, "admission: max queued requests (excess gets 429)")
	fs.DurationVar(&c.timeout, "timeout", 10*time.Second, "default per-request deadline")
	fs.DurationVar(&c.drainTimeout, "drain-timeout", 30*time.Second, "max wait for in-flight fan-outs on shutdown")
	fs.DurationVar(&c.healthInterval, "health-interval", 2*time.Second, "shard health re-probe interval")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	return c, nil
}

// run is main minus the exit code, separated for tests. ready, when
// non-nil, receives the bound listen address once serving.
func run(ctx context.Context, c config, ready chan<- string) error {
	var shards []string
	for _, s := range strings.Split(c.shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shards = append(shards, s)
		}
	}
	co, err := coord.New(coord.Config{Shards: shards, Dim: c.dim, Disks: c.disks})
	if err != nil {
		return err
	}
	if live := co.CheckHealth(ctx); live < len(shards) {
		fmt.Fprintf(os.Stderr, "parsearch-coord: %d of %d shards live at startup\n", live, len(shards))
	}
	srv, err := coord.NewServer(co, coord.ServerConfig{
		MaxInFlight:    c.maxInFlight,
		MaxQueue:       c.maxQueue,
		DefaultTimeout: c.timeout,
		ExpvarName:     "parsearch_coord",
	})
	if err != nil {
		return err
	}

	// The watch outlives ctx: shards keep being re-probed through the
	// drain, for the fan-outs still in flight.
	watchCtx, stopWatch := context.WithCancel(context.WithoutCancel(ctx))
	defer stopWatch()
	go co.WatchHealth(watchCtx, c.healthInterval)

	return srv.ListenAndServe(ctx, "parsearch-coord", c.listen, c.drainTimeout, func(addr net.Addr) {
		fmt.Fprintf(os.Stderr, "parsearch-coord: coordinating %d shard groups over %d disks at %s\n",
			co.Groups(), co.Disks(), addr)
		if ready != nil {
			ready <- addr.String()
		}
	}, nil)
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
		fmt.Fprintf(os.Stderr, "parsearch-coord: %v\n", err)
		os.Exit(1)
	}
}

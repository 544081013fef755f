package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"parsearch"
	"parsearch/client"
	"parsearch/internal/data"
	"parsearch/internal/leak"
	"parsearch/server"
)

// startDaemon runs the daemon on an ephemeral port and returns its
// base URL plus the cancel that plays the role of SIGTERM.
func startDaemon(t *testing.T, c config) (string, context.CancelFunc, chan error) {
	t.Helper()
	c.listen = "127.0.0.1:0"
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, c, ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr, cancel, done
	case err := <-done:
		cancel()
		t.Fatalf("daemon exited before ready: %v", err)
		return "", nil, nil
	}
}

func baseConfig() config {
	c, _ := parseFlags(nil)
	c.points = 1500
	c.dim = 6
	c.disks = 8
	return c
}

// snapshotFile builds a 4-d index over 600 uniform points with the given
// disk model and saves it where the -snapshot flag can find it.
func snapshotFile(t *testing.T, params *parsearch.DiskParams) (*parsearch.Index, string) {
	t.Helper()
	ix, err := parsearch.Open(parsearch.Options{Dim: 4, Disks: 4, DiskParams: params})
	if err != nil {
		t.Fatal(err)
	}
	pts := data.Uniform(600, 4, 9)
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return ix, path
}

// servingStats fetches the serving counters of /statusz.
func servingStats(t *testing.T, base string) (st server.Stats) {
	t.Helper()
	resp, err := http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Serving struct {
			Stats *server.Stats `json:"stats"`
		} `json:"serving"`
	}
	doc.Serving.Stats = &st
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDaemonServesAndDrains boots a daemon, delivers the shutdown signal
// with one search inside the engine and two requests queued behind it,
// and verifies the graceful exit: all three are answered, run returns
// nil, and nothing of the coalescer is left running. What holds the
// search in flight is a slow disk: the snapshot carries a disk model
// whose reads really take their service time (DiskParams.Throttle), a
// few hundred milliseconds a query.
func TestDaemonServesAndDrains(t *testing.T) {
	slow := parsearch.DefaultDiskParams()
	slow.Throttle = 10
	c := baseConfig()
	_, c.snapshot = snapshotFile(t, &slow)
	base, cancel, done := startDaemon(t, c)
	defer cancel()
	cl := client.New(base)
	if h, err := cl.Health(context.Background()); err != nil || h.Status != "ok" {
		t.Fatalf("health = %+v, %v", h, err)
	}

	inflight := make(chan error, 3)
	knn := func(q float64) {
		ns, err := cl.KNN(context.Background(), []float64{q, q, q, q}, 3)
		if err == nil && len(ns) != 3 {
			err = fmt.Errorf("got %d neighbors", len(ns))
		}
		inflight <- err
	}
	waitInFlight := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); servingStats(t, base).InFlight != n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("never saw %d requests in flight", n)
			}
		}
	}
	go knn(0.5)
	waitInFlight(1)
	go knn(0.4)
	go knn(0.6)
	waitInFlight(3)
	// One search issued, for the leader: the other two are queued behind
	// it and become a batch only during the drain.
	if st := servingStats(t, base); st.CoalescedBatches != 1 || st.InFlight != 3 {
		t.Fatalf("%d searches issued with %d requests in flight: the disk was too fast to hold the leader", st.CoalescedBatches, st.InFlight)
	}
	cancel()

	for i := 0; i < 3; i++ {
		if err := <-inflight; err != nil {
			t.Errorf("in-flight query failed during drain: %v", err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after signal")
	}
	// The listener is gone: a further request fails at the transport.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after shutdown")
	}
	leak.Check(t, "server.(*coalescer)")
}

// TestDaemonServesSnapshot round-trips an index through a snapshot
// file and the -snapshot flag.
func TestDaemonServesSnapshot(t *testing.T) {
	ix, path := snapshotFile(t, nil)

	c := baseConfig()
	c.snapshot = path
	base, cancel, done := startDaemon(t, c)
	defer cancel()
	cl := client.New(base)

	q := []float64{0.5, 0.5, 0.5, 0.5}
	served, err := cl.KNN(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := ix.KNN(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if served[i].ID != direct[i].ID || served[i].Dist != direct[i].Dist {
			t.Fatalf("snapshot-served neighbor %d = %+v, direct %+v", i, served[i], direct[i])
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("run: %v", err)
	}
	leak.Check(t, "server.(*coalescer)")
}

// TestDaemonDurableRestart boots a daemon on a fresh durable directory,
// drains it (which closes the index and flushes the WAL), restarts on
// the same directory, and verifies the recovered instance reports the
// recovery on /healthz and serves identical answers.
func TestDaemonDurableRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	c := baseConfig()
	c.points = 400
	c.durableDir = dir

	base, cancel, done := startDaemon(t, c)
	cl := client.New(base)
	q := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	first, err := cl.KNN(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cl.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Durability == nil {
		t.Fatal("durable daemon reports no durability block on /healthz")
	}
	if h.Durability.SyncPolicy != "always" {
		t.Fatalf("sync policy = %q", h.Durability.SyncPolicy)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("first run: %v", err)
	}

	base, cancel, done = startDaemon(t, c)
	defer cancel()
	cl = client.New(base)
	h, err = cl.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Durability == nil || !h.Durability.Recovered {
		t.Fatalf("restarted daemon reports no recovery: %+v", h.Durability)
	}
	if h.Durability.TornBytes != 0 {
		t.Fatalf("clean shutdown left a torn tail of %d bytes", h.Durability.TornBytes)
	}
	second, err := cl.KNN(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i].ID != second[i].ID || first[i].Dist != second[i].Dist {
			t.Fatalf("answer %d changed across restart: %+v vs %+v", i, first[i], second[i])
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("second run: %v", err)
	}
	leak.Check(t, "server.(*coalescer)")
}

// TestDaemonBadFlags pins flag validation surfacing as errors, not
// panics.
func TestDaemonBadFlags(t *testing.T) {
	if _, err := parseFlags([]string{"-not-a-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	c := baseConfig()
	c.snapshot = filepath.Join(t.TempDir(), "missing.snap")
	err := run(context.Background(), c, nil)
	if err == nil || !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing snapshot: err = %v, want not-exist", err)
	}
	c = baseConfig()
	c.strategy = "not-a-strategy"
	if err := run(context.Background(), c, nil); err == nil {
		t.Error("bad strategy accepted")
	}
	c = baseConfig()
	c.snapshot = "x.snap"
	c.durableDir = "y"
	if err := run(context.Background(), c, nil); err == nil {
		t.Error("snapshot + durable-dir accepted")
	}
	c = baseConfig()
	c.durableDir = filepath.Join(t.TempDir(), "d")
	c.walSync = "sometimes"
	if err := run(context.Background(), c, nil); err == nil {
		t.Error("unknown wal-sync policy accepted")
	}
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"parsearch/client"
)

// buildBinaries compiles parsearchd and parsearch-coord once into a
// temp dir, returning their paths.
func buildBinaries(t *testing.T) (shardBin, coordBin string) {
	t.Helper()
	dir := t.TempDir()
	shardBin = filepath.Join(dir, "parsearchd")
	coordBin = filepath.Join(dir, "parsearch-coord")
	for bin, pkg := range map[string]string{
		shardBin: "parsearch/cmd/parsearchd",
		coordBin: "parsearch/cmd/parsearch-coord",
	} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = "../.." // module root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	return shardBin, coordBin
}

// startProc launches a daemon binary and scans its stderr for the
// "at HOST:PORT" serving line, returning the base URL and the process.
func startProc(t *testing.T, bin string, args ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if !strings.Contains(line, "serving") && !strings.Contains(line, "coordinating") {
				continue
			}
			if i := strings.LastIndex(line, " at "); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+4:]):
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr, cmd
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not report a listen address", filepath.Base(bin))
		return "", nil
	}
}

// TestThreeProcessCluster is the deployment-shaped acceptance test: a
// leader parsearchd seeds a durable dataset, two followers bootstrap
// full snapshots from it over the catch-up protocol, a parsearch-coord
// process coordinates the three, and the cluster keeps answering
// exactly after one shard dies.
func TestThreeProcessCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster test; skipped with -short")
	}
	shardBin, coordBin := buildBinaries(t)
	ctx := context.Background()

	const (
		dim, disks, points = 6, 16, 2000
	)
	common := []string{
		"-listen", "127.0.0.1:0",
		"-dim", fmt.Sprint(dim), "-disks", fmt.Sprint(disks),
	}

	// Leader: seeds the durable dataset.
	leaderDir := filepath.Join(t.TempDir(), "leader")
	leaderURL, _ := startProc(t, shardBin, append(common,
		"-durable-dir", leaderDir, "-points", fmt.Sprint(points))...)

	// Followers: bootstrap their full snapshot from the leader with the
	// catch-up protocol, then serve it.
	shardURLs := []string{leaderURL}
	var followers []*exec.Cmd
	for i := 0; i < 2; i++ {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("follower%d", i))
		url, cmd := startProc(t, shardBin, append(common,
			"-durable-dir", dir, "-catchup-from", leaderURL, "-points", "0")...)
		shardURLs = append(shardURLs, url)
		followers = append(followers, cmd)
	}

	// Every shard must hold the identical dataset: same healthz disks,
	// same answer to a spot-check query.
	q := make([]float64, dim)
	for i := range q {
		q[i] = 0.4 + 0.02*float64(i)
	}
	spot := ""
	for i, u := range shardURLs {
		ns, err := client.New(u).KNN(ctx, q, 5)
		if err != nil {
			t.Fatalf("shard %d spot query: %v", i, err)
		}
		b, _ := json.Marshal(ns)
		if spot == "" {
			spot = string(b)
		} else if string(b) != spot {
			t.Fatalf("shard %d dataset differs from leader after catch-up", i)
		}
	}

	// The coordinator over the three processes.
	coordURL, coordCmd := startProc(t, coordBin,
		"-shards", strings.Join(shardURLs, ","),
		"-dim", fmt.Sprint(dim), "-disks", fmt.Sprint(disks),
		"-listen", "127.0.0.1:0", "-health-interval", "100ms")
	cl := client.New(coordURL)

	want, err := client.New(leaderURL).KNN(ctx, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.KNN(ctx, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if string(gb) != string(wb) {
		t.Error("coordinated result differs from a full single-shard query")
	}

	// Kill one follower outright; the cluster keeps answering exactly.
	_ = followers[0].Process.Kill()
	_, _ = followers[0].Process.Wait()
	got, err = cl.KNN(ctx, q, 10)
	if err != nil {
		t.Fatalf("query after shard kill: %v", err)
	}
	if gb, _ := json.Marshal(got); string(gb) != string(wb) {
		t.Error("post-kill coordinated result differs")
	}
	// The health view converges to rerouted (the watcher probes every
	// 100ms).
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(coordURL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Status string `json:"status"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if h.Status == "rerouted" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health never reached rerouted, last %q", h.Status)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Graceful coordinator shutdown on SIGTERM.
	if err := coordCmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- coordCmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("coordinator exit after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("coordinator did not exit after SIGTERM")
	}
}

// TestCoordBadFlags pins flag validation failures.
func TestCoordBadFlags(t *testing.T) {
	if _, err := parseFlags([]string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
	c, err := parseFlags([]string{"-shards", ""})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), c, nil); err == nil {
		t.Error("run accepted an empty shard list")
	}
}

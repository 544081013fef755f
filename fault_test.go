package parsearch

// Conformance tests for the fault-tolerance layer: replicated
// declustering, degraded-mode queries, fault injection at the index
// level, and snapshot persistence of the replication option. The
// acceptance criterion: with Replication = 1 and any single disk
// failed, every query is exactly right (not degraded, no error); with
// a primary and its chained replica both failed, queries return
// best-effort results flagged Degraded instead of erroring.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"parsearch/internal/data"
)

// buildFaultIndex builds a seeded index and returns it with the
// id→point ground truth.
func buildFaultIndex(t *testing.T, opts Options, n int) (*Index, map[int][]float64) {
	t.Helper()
	ix, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	pts := data.Uniform(n, opts.Dim, 123)
	raw := make([][]float64, n)
	expected := make(map[int][]float64, n)
	for i, p := range pts {
		raw[i] = p
		expected[i] = p
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}
	return ix, expected
}

// fullBox returns a range covering all of data.Uniform's [0, 1) space.
func fullBox(dim int) (lo, hi []float64) {
	lo = make([]float64, dim)
	hi = make([]float64, dim)
	for i := range lo {
		lo[i], hi[i] = -1, 2
	}
	return lo, hi
}

// liveIDs returns the IDs a (possibly degraded) full-box range query
// can still reach.
func liveIDs(t *testing.T, ix *Index, dim int) map[int][]float64 {
	t.Helper()
	lo, hi := fullBox(dim)
	res, _, err := ix.RangeQuery(lo, hi)
	if err != nil {
		t.Fatalf("full-box RangeQuery: %v", err)
	}
	out := make(map[int][]float64, len(res))
	for _, n := range res {
		out[n.ID] = n.Point
	}
	return out
}

func TestReplicationOptionValidation(t *testing.T) {
	for _, opts := range []Options{
		{Dim: 4, Disks: 4, Replication: 2},
		{Dim: 4, Disks: 4, Replication: -1},
		{Dim: 4, Disks: 1, Replication: 1},
	} {
		if _, err := Open(opts); err == nil {
			t.Errorf("Open(%+v) should error", opts)
		}
	}

	plain, err := Open(Options{Dim: 4, Disks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.ReplicaDisk(0); got != -1 {
		t.Errorf("ReplicaDisk without replication = %d, want -1", got)
	}
	if err := plain.SetFaults(FaultModel{TransientProb: 1.5}); err == nil {
		t.Error("SetFaults with a transient probability of 1.5 should error")
	}

	repl, err := Open(Options{Dim: 4, Disks: 4, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 4; d++ {
		if got, want := repl.ReplicaDisk(d), (d+1)%4; got != want {
			t.Errorf("ReplicaDisk(%d) = %d, want %d", d, got, want)
		}
	}
	for _, d := range []int{-1, 4} {
		if got := repl.ReplicaDisk(d); got != -1 {
			t.Errorf("ReplicaDisk(%d) = %d, want -1", d, got)
		}
	}
}

// TestReplicatedSingleFailureExact is the headline acceptance test:
// with Replication = 1, any single disk failure is invisible to
// results — KNN, RangeQuery and BatchKNN stay identical to the linear
// scan, not degraded, with reads rerouted to the replica.
func TestReplicatedSingleFailureExact(t *testing.T) {
	const dim, disks, n = 6, 8, 2000
	ix, expected := buildFaultIndex(t, Options{Dim: dim, Disks: disks, Replication: 1}, n)
	if err := ix.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	m, err := Euclidean.vecMetric()
	if err != nil {
		t.Fatal(err)
	}
	queries := data.Uniform(6, dim, 321)

	for d := 0; d < disks; d++ {
		if err := ix.FailDisk(d); err != nil {
			t.Fatal(err)
		}
		rerouted := 0
		for qi, q := range queries {
			const k = 8
			got, stats, err := ix.KNN(q, k)
			if err != nil {
				t.Fatalf("disk %d query %d: %v", d, qi, err)
			}
			if stats.Degraded || stats.Unreachable != 0 {
				t.Fatalf("disk %d query %d flagged degraded with a live replica: %+v", d, qi, stats)
			}
			if stats.PagesPerDisk[d] != 0 {
				t.Fatalf("disk %d query %d charged pages to the failed disk", d, qi)
			}
			rerouted += stats.Rerouted
			requireScan(t, fmt.Sprintf("disk %d query %d", d, qi), got, scanKNN(expected, q, k, m))

			// BatchKNN must agree with the one-at-a-time path.
			batchRes, bstats, err := ix.BatchKNN([][]float64{q}, k)
			if err != nil {
				t.Fatalf("disk %d BatchKNN: %v", d, err)
			}
			if bstats.Degraded || bstats.Unreachable != 0 {
				t.Fatalf("disk %d BatchKNN flagged degraded: %+v", d, bstats)
			}
			if !reflect.DeepEqual(batchRes[0], got) {
				t.Fatalf("disk %d query %d: BatchKNN differs from KNN", d, qi)
			}
		}
		if rerouted == 0 {
			t.Errorf("disk %d: no reads rerouted to the replica across %d queries", d, len(queries))
		}

		// Range queries too: exact against a direct box filter.
		lo, hi := fullBox(dim)
		for i := range lo {
			lo[i], hi[i] = 0.1, 0.9
		}
		res, stats, err := ix.RangeQuery(lo, hi)
		if err != nil {
			t.Fatalf("disk %d RangeQuery: %v", d, err)
		}
		if stats.Degraded || stats.Unreachable != 0 {
			t.Fatalf("disk %d RangeQuery flagged degraded: %+v", d, stats)
		}
		if gotIDs, wantIDs := resultIDs(res), scanBox(expected, lo, hi); !reflect.DeepEqual(gotIDs, wantIDs) {
			t.Fatalf("disk %d RangeQuery: got %d ids, want %d", d, len(gotIDs), len(wantIDs))
		}

		if err := ix.HealDisk(d); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDegradedPairFailure: a primary and its chained replica both
// failed leaves that shard's data with no live copy — queries return
// best-effort results flagged Degraded, exactly right over the
// reachable data, with no error.
func TestDegradedPairFailure(t *testing.T) {
	const dim, disks, n = 5, 6, 1500
	ix, expected := buildFaultIndex(t, Options{Dim: dim, Disks: disks, Replication: 1}, n)
	m, err := Euclidean.vecMetric()
	if err != nil {
		t.Fatal(err)
	}

	const dead = 2
	if err := ix.FailDisk(dead); err != nil {
		t.Fatal(err)
	}
	if err := ix.FailDisk(ix.ReplicaDisk(dead)); err != nil {
		t.Fatal(err)
	}

	// The reachable subset is everything minus disk `dead`'s shard
	// (disk dead+1's own data is still served by ITS replica on dead+2).
	live := liveIDs(t, ix, dim)
	if len(live) == len(expected) {
		t.Fatal("killing a primary and its replica lost no data — test is vacuous")
	}
	for id, p := range live {
		if !reflect.DeepEqual(rounded(expected[id]), p) {
			t.Fatalf("degraded range query returned corrupted point %d", id)
		}
	}

	queries := data.Uniform(6, dim, 99)
	sawDegraded := false
	for qi, q := range queries {
		const k = 7
		got, stats, err := ix.KNN(q, k)
		if err != nil {
			t.Fatalf("degraded query %d errored: %v", qi, err)
		}
		// Degraded ⇒ exact over the live subset; not Degraded ⇒ the
		// dead pages were provably outside the sphere, so exact over
		// the FULL data set.
		truth := expected
		if stats.Degraded {
			sawDegraded = true
			if stats.Unreachable == 0 {
				t.Errorf("query %d: Degraded but Unreachable = 0", qi)
			}
			truth = live
		}
		requireScan(t, fmt.Sprintf("query %d (degraded %v)", qi, stats.Degraded), got, scanKNN(truth, q, k, m))
	}
	if !sawDegraded {
		t.Error("no query was flagged Degraded with a dead shard — test is vacuous")
	}

	// Heal both: back to exact, unflagged.
	if err := ix.HealDisk(dead); err != nil {
		t.Fatal(err)
	}
	if err := ix.HealDisk(ix.ReplicaDisk(dead)); err != nil {
		t.Fatal(err)
	}
	if _, stats, err := ix.KNN(queries[0], 3); err != nil || stats.Degraded {
		t.Fatalf("healed index: err %v, degraded %v", err, stats.Degraded)
	}
}

// TestAllCopiesDead: when no disk holding data is live, k-NN has no
// best-effort answer and reports ErrUnavailable; a range query still
// answers (the empty result over zero reachable data), flagged.
func TestAllCopiesDead(t *testing.T) {
	const dim, disks = 4, 2
	ix, _ := buildFaultIndex(t, Options{Dim: dim, Disks: disks, Replication: 1}, 300)
	for d := 0; d < disks; d++ {
		if err := ix.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	q := make([]float64, dim)
	if _, _, err := ix.KNN(q, 3); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("KNN on a fully dead array: %v, want ErrUnavailable", err)
	}
	if _, _, err := ix.NN(q); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("NN on a fully dead array: %v, want ErrUnavailable", err)
	}
	if _, _, err := ix.BatchKNN([][]float64{q}, 3); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("BatchKNN on a fully dead array: %v, want ErrUnavailable", err)
	}
	lo, hi := fullBox(dim)
	res, stats, err := ix.RangeQuery(lo, hi)
	if err != nil {
		t.Fatalf("RangeQuery on a fully dead array: %v", err)
	}
	if len(res) != 0 || !stats.Degraded || stats.Unreachable == 0 {
		t.Fatalf("RangeQuery on a fully dead array: %d results, stats %+v", len(res), stats)
	}
}

// TestReplicatedInsertDelete: replication is maintained through
// mutations — after inserts and deletes the replica invariants hold
// and a single-disk failure is still invisible to results.
func TestReplicatedInsertDelete(t *testing.T) {
	const dim, disks = 5, 4
	ix, expected := buildFaultIndex(t, Options{Dim: dim, Disks: disks, Replication: 1}, 600)
	extra := data.Uniform(200, dim, 7)
	for _, p := range extra {
		id, err := ix.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		expected[id] = p
	}
	for id := 0; id < 600; id += 3 {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(expected, id)
	}
	if err := ix.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}

	m, err := Euclidean.vecMetric()
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	for _, q := range data.Uniform(4, dim, 8) {
		const k = 5
		got, stats, err := ix.KNN(q, k)
		if err != nil || stats.Degraded {
			t.Fatalf("KNN after mutations + failure: err %v, degraded %v", err, stats.Degraded)
		}
		want := scanKNN(expected, q, k, m)
		for j := range got {
			if got[j].ID != want[j].ID || got[j].Dist != want[j].Dist {
				t.Fatalf("neighbor %d: got (id %d, %v), want (id %d, %v)",
					j, got[j].ID, got[j].Dist, want[j].ID, want[j].Dist)
			}
		}
	}
}

// TestSnapshotRoundTripReplication: the Replication option survives
// Save/Load, and the loaded index routes around failures like the
// original.
func TestSnapshotRoundTripReplication(t *testing.T) {
	const dim, disks = 5, 4
	ix, expected := buildFaultIndex(t, Options{Dim: dim, Disks: disks, Replication: 1}, 800)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.opts.Replication != 1 {
		t.Fatalf("loaded Replication = %d, want 1", loaded.opts.Replication)
	}
	if err := loaded.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	m, err := Euclidean.vecMetric()
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	for _, q := range data.Uniform(4, dim, 55) {
		const k = 6
		got, stats, err := loaded.KNN(q, k)
		if err != nil || stats.Degraded {
			t.Fatalf("loaded degraded query: err %v, degraded %v", err, stats.Degraded)
		}
		want := scanKNN(expected, q, k, m)
		for j := range got {
			if got[j].ID != want[j].ID || got[j].Dist != want[j].Dist {
				t.Fatalf("loaded neighbor %d: got (id %d, %v), want (id %d, %v)",
					j, got[j].ID, got[j].Dist, want[j].ID, want[j].Dist)
			}
		}
	}
}

// TestIndexFaultInjection: a fault model installed with SetFaults
// makes queries retry transient errors — visible in
// QueryStats.Retries — and surface ErrTransient when the budget is
// exhausted; the zero model clears it.
func TestIndexFaultInjection(t *testing.T) {
	const dim, disks = 5, 4
	ix, _ := buildFaultIndex(t, Options{Dim: dim, Disks: disks}, 1200)
	if err := ix.SetFaults(FaultModel{
		TransientProb: 0.3,
		MaxRetries:    24,
		RetryBackoff:  time.Millisecond,
		Seed:          17,
	}); err != nil {
		t.Fatal(err)
	}

	retries := 0
	for _, q := range data.Uniform(8, dim, 18) {
		_, stats, err := ix.KNN(q, 5)
		if err != nil {
			t.Fatalf("retry budget should absorb a 30%% transient rate: %v", err)
		}
		retries += stats.Retries
	}
	if retries == 0 {
		t.Fatal("no retries recorded at a 30% transient rate")
	}

	// Certain transient faults with a tiny budget: the query fails
	// with a classified error.
	if err := ix.SetFaults(FaultModel{TransientProb: 1, MaxRetries: 1, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	q := make([]float64, dim)
	if _, _, err := ix.KNN(q, 3); !errors.Is(err, ErrTransient) {
		t.Fatalf("exhausted retries: %v, want ErrTransient", err)
	}

	// The zero model disables injection again.
	if err := ix.SetFaults(FaultModel{}); err != nil {
		t.Fatal(err)
	}
	if _, stats, err := ix.KNN(q, 3); err != nil || stats.Retries != 0 {
		t.Fatalf("cleared fault model: err %v, retries %d", err, stats.Retries)
	}
}

// TestRetriesCountAttemptsNotSleeps: QueryStats.Retries counts re-read
// attempts, decoupled from backoff charging — a zero-length
// RetryBackoff must report exactly the retries a backed-off model does
// (fault injection is seed-deterministic and independent of the
// backoff), while only the backed-off run pays the wait as service
// time. Regression test for retry accounting that keyed off the
// charged sleep instead of the attempt.
func TestRetriesCountAttemptsNotSleeps(t *testing.T) {
	const dim, disks, n = 5, 4, 1200
	faulty := func(backoff time.Duration) *Index {
		ix, _ := buildFaultIndex(t, Options{Dim: dim, Disks: disks}, n)
		if err := ix.SetFaults(FaultModel{TransientProb: 0.35, MaxRetries: 32, RetryBackoff: backoff, Seed: 29}); err != nil {
			t.Fatal(err)
		}
		return ix
	}
	slow, fast := faulty(time.Millisecond), faulty(0)

	totalRetries := 0
	for qi, q := range data.Uniform(8, dim, 41) {
		_, sSlow, err := slow.KNN(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		_, sFast, err := fast.KNN(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		if sFast.Retries != sSlow.Retries {
			t.Errorf("query %d: zero-backoff Retries = %d, with backoff = %d — accounting depends on the sleep",
				qi, sFast.Retries, sSlow.Retries)
		}
		totalRetries += sFast.Retries
		if sFast.Retries > 0 && sFast.SequentialTime >= sSlow.SequentialTime {
			t.Errorf("query %d: zero-backoff service time %v not below backed-off %v despite %d retries",
				qi, sFast.SequentialTime, sSlow.SequentialTime, sFast.Retries)
		}
	}
	if totalRetries == 0 {
		t.Fatal("no retries recorded at a 35% transient rate — test is vacuous")
	}

	// The metrics registry sees the same attempt counts.
	if got := fast.Metrics().Retries; got != int64(totalRetries) {
		t.Errorf("registry Retries = %d, want %d", got, totalRetries)
	}
}

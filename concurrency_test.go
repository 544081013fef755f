package parsearch

// Race-hardened stress and conformance tests: N reader goroutines issue
// KNN/RangeQuery/BatchKNN/Browse against M writer goroutines running
// Insert/Delete/FailDisk/HealDisk plus a maintenance goroutine running
// Reorganize/Save. Workloads are seeded, the final state is verified
// against a linear scan, and CheckIntegrity cross-checks the X-trees and
// the storage-cell accounting. The whole file is meant to run under
// `go test -race`.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parsearch/internal/data"
	"parsearch/internal/disk"
	"parsearch/internal/vec"
)

// stressIters scales the per-goroutine operation counts down in -short
// mode (CI runs the race build with -short).
func stressIters(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

// tolerableQueryErr reports whether a query error is an expected outcome
// of the concurrent workload: an index transiently emptied by deletions,
// a read hitting an injected disk failure (mid-query flip), data whose
// every copy is on a failed disk, or an exhausted transient-fault retry
// budget. Anything else — and any silent wrong result — is a bug.
func tolerableQueryErr(err error) bool {
	return err == nil || errors.Is(err, ErrEmpty) || errors.Is(err, disk.ErrDiskFailed) ||
		errors.Is(err, ErrUnavailable) || errors.Is(err, ErrTransient)
}

// writerLog records the mutations one writer performed, for the final
// ground-truth reconstruction.
type writerLog struct {
	inserted map[int][]float64
	deleted  map[int]bool
}

// TestStressMixedWorkload is the main stress test: seeded mixed
// read/write traffic over one index, followed by exact conformance
// checks of the final state.
func TestStressMixedWorkload(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"tree-pages", Options{Dim: 6, Disks: 4}},
		{"bucket-pages-baseline", Options{Dim: 5, Disks: 3, CostModel: BucketPages, Baseline: true}},
		{"quantile-recursive", Options{Dim: 4, Disks: 4, QuantileSplits: true, Recursive: true}},
		{"replicated", Options{Dim: 5, Disks: 4, Replication: 1}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			runMixedWorkload(t, cfg.opts)
		})
	}
}

func runMixedWorkload(t *testing.T, opts Options) {
	const (
		initial = 400
		writers = 3
		readers = 4
	)
	writerOps := stressIters(400, 120)

	// The whole stress run is traced: the counting tracer receives the
	// concurrent per-disk span events of every reader, so the race
	// detector covers the tracing layer under full mixed load.
	var traceEvents atomic.Int64
	opts.Tracer = TracerFunc(func(TraceEvent) { traceEvents.Add(1) })
	ix, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	pts := data.Uniform(initial, opts.Dim, 42)
	raw := make([][]float64, initial)
	for i, p := range pts {
		raw[i] = p
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readerWG, writerWG sync.WaitGroup

	// Readers: seeded query traffic of every kind until the writers are
	// done. Errors are only tolerable if they stem from an injected
	// disk failure or a transiently empty index.
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := randPoint(rng, opts.Dim)
				switch rng.Intn(6) {
				case 0:
					if _, _, err := ix.KNN(q, 1+rng.Intn(5)); !tolerableQueryErr(err) {
						t.Errorf("KNN: %v", err)
					}
				case 1:
					lo, hi := randBox(rng, opts.Dim)
					if _, _, err := ix.RangeQuery(lo, hi); !tolerableQueryErr(err) {
						t.Errorf("RangeQuery: %v", err)
					}
				case 2:
					batch := [][]float64{q, randPoint(rng, opts.Dim), randPoint(rng, opts.Dim)}
					if _, _, err := ix.BatchKNN(batch, 3); !tolerableQueryErr(err) {
						t.Errorf("BatchKNN: %v", err)
					}
				case 3:
					b, err := ix.Browse(q)
					if err != nil {
						t.Errorf("Browse: %v", err)
						continue
					}
					for i := 0; i < 5; i++ {
						if _, ok := b.Next(); !ok {
							break
						}
					}
					if !tolerableQueryErr(b.Err()) {
						t.Errorf("Browse page: %v", b.Err())
					}
				case 4:
					ix.Len()
					ix.DiskLoads()
					ix.CellLoads()
				case 5:
					if _, _, err := ix.NN(q); !tolerableQueryErr(err) {
						t.Errorf("NN: %v", err)
					}
				}
			}
		}(r)
	}

	// Writers: each owns the initial IDs congruent to its index mod
	// `writers` (so no two goroutines delete the same ID) plus
	// everything it inserts itself.
	logs := make([]*writerLog, writers)
	for w := 0; w < writers; w++ {
		logs[w] = &writerLog{inserted: make(map[int][]float64), deleted: make(map[int]bool)}
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(int64(2000 + w)))
			lg := logs[w]
			var ownInitial []int
			for id := w; id < initial; id += writers {
				ownInitial = append(ownInitial, id)
			}
			var ownInserted []int
			for op := 0; op < writerOps; op++ {
				switch v := rng.Intn(100); {
				case v < 55:
					p := randPoint(rng, opts.Dim)
					id, err := ix.Insert(p)
					if err != nil {
						t.Errorf("Insert: %v", err)
						return
					}
					lg.inserted[id] = p
					ownInserted = append(ownInserted, id)
				case v < 75 && len(ownInserted) > 0:
					i := rng.Intn(len(ownInserted))
					id := ownInserted[i]
					ownInserted = append(ownInserted[:i], ownInserted[i+1:]...)
					if err := ix.Delete(id); err != nil {
						t.Errorf("Delete(%d): %v", id, err)
						return
					}
					lg.deleted[id] = true
				case v < 85 && len(ownInitial) > 0:
					i := rng.Intn(len(ownInitial))
					id := ownInitial[i]
					ownInitial = append(ownInitial[:i], ownInitial[i+1:]...)
					if err := ix.Delete(id); err != nil {
						t.Errorf("Delete(initial %d): %v", id, err)
						return
					}
					lg.deleted[id] = true
				case v < 92:
					d := rng.Intn(opts.Disks)
					ix.FailDisk(d)
					ix.HealDisk(d)
				default:
					ix.Len()
				}
			}
		}(w)
	}

	// Maintenance: concurrent reorganizations and snapshots.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		n := stressIters(8, 3)
		for i := 0; i < n; i++ {
			if err := ix.Reorganize(); err != nil {
				t.Errorf("Reorganize: %v", err)
				return
			}
			ix.NeedsReorganization()
			if err := ix.Save(io.Discard); err != nil {
				t.Errorf("Save: %v", err)
				return
			}
			if err := ix.CheckIntegrity(); err != nil {
				t.Errorf("CheckIntegrity mid-flight: %v", err)
				return
			}
		}
	}()

	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	for d := 0; d < opts.Disks; d++ {
		ix.HealDisk(d)
	}

	// Reconstruct the expected live set from the initial data and the
	// writers' logs.
	expected := make(map[int][]float64)
	for id, p := range raw {
		expected[id] = p
	}
	for _, lg := range logs {
		for id, p := range lg.inserted {
			expected[id] = p
		}
		for id := range lg.deleted {
			delete(expected, id)
		}
	}

	verifyFinalState(t, ix, expected, opts)

	if traceEvents.Load() == 0 {
		t.Error("tracer saw no events across the stress run")
	}
	// The registry absorbed the workload without tearing: per-disk page
	// totals sum to the cumulative count.
	s := ix.Metrics()
	var perDisk int64
	for _, v := range s.PagesPerDisk {
		perDisk += v
	}
	if perDisk != s.PagesRead {
		t.Errorf("per-disk pages sum to %d, PagesRead is %d", perDisk, s.PagesRead)
	}
}

// verifyFinalState checks the quiesced index exactly against the
// expected id→point map: structural integrity, counts, loads, k-NN
// versus a linear scan, and range queries versus a direct box filter.
func verifyFinalState(t *testing.T, ix *Index, expected map[int][]float64, opts Options) {
	t.Helper()
	if err := ix.CheckIntegrity(); err != nil {
		t.Fatalf("CheckIntegrity: %v", err)
	}
	if got := ix.Len(); got != len(expected) {
		t.Fatalf("Len = %d, want %d", got, len(expected))
	}
	diskLoads := ix.DiskLoads()
	cellLoads := ix.CellLoads()
	if !reflect.DeepEqual(diskLoads, cellLoads) {
		t.Fatalf("DiskLoads %v != CellLoads %v", diskLoads, cellLoads)
	}
	sum := 0
	for _, l := range diskLoads {
		sum += l
	}
	if sum != len(expected) {
		t.Fatalf("disk loads sum to %d, want %d", sum, len(expected))
	}

	if len(expected) == 0 {
		return
	}
	m, err := opts.Metric.vecMetric()
	if err != nil {
		m, _ = Euclidean.vecMetric()
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 10; i++ {
		q := randPoint(rng, opts.Dim)
		k := 1 + rng.Intn(8)
		got, _, err := ix.KNN(q, k)
		if err != nil {
			t.Fatalf("final KNN: %v", err)
		}
		requireScan(t, fmt.Sprintf("query %d", i), got, scanKNN(expected, q, k, m))

		lo, hi := randBox(rng, opts.Dim)
		res, _, err := ix.RangeQuery(lo, hi)
		if err != nil {
			t.Fatalf("final RangeQuery: %v", err)
		}
		if gotIDs, wantIDs := resultIDs(res), scanBox(expected, lo, hi); !reflect.DeepEqual(gotIDs, wantIDs) {
			t.Fatalf("range query %d: got ids %v, want %v", i, gotIDs, wantIDs)
		}
	}
}

func randPoint(rng *rand.Rand, d int) []float64 {
	p := make([]float64, d)
	for i := range p {
		p[i] = rng.Float64()
	}
	return p
}

func randBox(rng *rand.Rand, d int) (lo, hi []float64) {
	lo = make([]float64, d)
	hi = make([]float64, d)
	for i := range lo {
		a, b := rng.Float64(), rng.Float64()
		if a > b {
			a, b = b, a
		}
		lo[i], hi[i] = a, b
	}
	return lo, hi
}

// TestConcurrentKNNIdenticalToSequential verifies the acceptance
// criterion that concurrent KNN calls return byte-identical results to
// the single-threaded run on the same seed: exact k-NN semantics are
// preserved under read parallelism.
func TestConcurrentKNNIdenticalToSequential(t *testing.T) {
	const d, n, k, queries = 8, 1500, 9, 40
	ix, err := Open(Options{Dim: d, Disks: 5})
	if err != nil {
		t.Fatal(err)
	}
	pts := data.Uniform(n, d, 42)
	raw := make([][]float64, n)
	for i, p := range pts {
		raw[i] = p
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}
	qs := data.Uniform(queries, d, 43)

	// Sequential reference.
	want := make([][]Neighbor, queries)
	for i, q := range qs {
		res, _, err := ix.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	// The same queries from many goroutines, repeatedly.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < stressIters(20, 6); rep++ {
				i := (g + rep) % queries
				res, _, err := ix.KNN(qs[i], k)
				if err != nil {
					t.Errorf("concurrent KNN: %v", err)
					return
				}
				if !reflect.DeepEqual(res, want[i]) {
					t.Errorf("query %d: concurrent result differs from sequential", i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReorganizeConcurrentInsertsNotLost is the regression test for the
// torn-rebuild race: Reorganize used to drop the lock between copying
// the point table and rebuilding, so a concurrent Insert in that window
// vanished. Every insert must survive any number of reorganizations.
func TestReorganizeConcurrentInsertsNotLost(t *testing.T) {
	const d, writers = 4, 4
	perWriter := stressIters(150, 50)
	ix, err := Open(Options{Dim: d, Disks: 3, QuantileSplits: true})
	if err != nil {
		t.Fatal(err)
	}
	initial := data.Uniform(100, d, 1)
	raw := make([][]float64, len(initial))
	for i, p := range initial {
		raw[i] = p
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				if _, err := ix.Insert(randPoint(rng, d)); err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			goto drained
		default:
		}
		if err := ix.Reorganize(); err != nil {
			t.Fatalf("Reorganize: %v", err)
		}
	}
drained:
	// One final reorganization over the quiesced index.
	if err := ix.Reorganize(); err != nil {
		t.Fatal(err)
	}
	want := len(initial) + writers*perWriter
	if got := ix.Len(); got != want {
		t.Fatalf("Len = %d after concurrent reorganize, want %d (inserts lost)", got, want)
	}
	if err := ix.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestNeedsReorganizationDuringInserts is the regression test for the
// unsynchronized quantile-estimator access: the adaptive splitter is
// updated by Insert while NeedsReorganization reads its counters and
// queries read the split values. Must be clean under -race.
func TestNeedsReorganizationDuringInserts(t *testing.T) {
	const d = 5
	ix, err := Open(Options{Dim: d, Disks: 4, QuantileSplits: true})
	if err != nil {
		t.Fatal(err)
	}
	seed := data.Uniform(200, d, 3)
	raw := make([][]float64, len(seed))
	for i, p := range seed {
		raw[i] = p
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var inserter, pollers sync.WaitGroup
	inserter.Add(1)
	go func() {
		defer inserter.Done()
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < stressIters(500, 150); i++ {
			if _, err := ix.Insert(randPoint(rng, d)); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 2; g++ {
		pollers.Add(1)
		go func(g int) {
			defer pollers.Done()
			rng := rand.New(rand.NewSource(int64(5 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ix.NeedsReorganization()
				if _, _, err := ix.KNN(randPoint(rng, d), 3); !tolerableQueryErr(err) {
					t.Errorf("KNN: %v", err)
					return
				}
			}
		}(g)
	}
	inserter.Wait()
	close(stop)
	pollers.Wait()
	if err := ix.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestFailHealDuringQueries is the regression test for the disk
// fail/heal flags being read by query goroutines: flags are atomic, a
// query either succeeds or reports the failure, and a healed array
// serves queries again. The plan reads the flags one disk at a time, so
// the flipper can show a query every disk failed (each at a different
// moment): with no replica that query has no live copy to search and
// reports ErrUnavailable, which is the failure reported too.
func TestFailHealDuringQueries(t *testing.T) {
	const d = 6
	ix, err := Open(Options{Dim: d, Disks: 4})
	if err != nil {
		t.Fatal(err)
	}
	pts := data.Uniform(800, d, 11)
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var flipper, readers sync.WaitGroup
	flipper.Add(1)
	go func() {
		defer flipper.Done()
		rng := rand.New(rand.NewSource(12))
		for {
			select {
			case <-stop:
				return
			default:
			}
			di := rng.Intn(4)
			ix.FailDisk(di)
			ix.DiskFailed(di)
			ix.HealDisk(di)
		}
	}()
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(20 + g)))
			for i := 0; i < stressIters(300, 80); i++ {
				_, _, err := ix.KNN(randPoint(rng, d), 4)
				if err != nil && !errors.Is(err, disk.ErrDiskFailed) && !errors.Is(err, ErrUnavailable) {
					t.Errorf("KNN error other than disk failure: %v", err)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	flipper.Wait()

	for di := 0; di < 4; di++ {
		ix.HealDisk(di)
	}
	if _, _, err := ix.KNN(make([]float64, d), 3); err != nil {
		t.Fatalf("healed index still failing: %v", err)
	}
	if err := ix.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// checkFailureOutcome classifies one query outcome under concurrent
// failure flips: a tolerable classified error, or honest results —
// every neighbor a real point at its true distance, in sorted order,
// and, when not flagged Degraded, exactly the linear-scan ground truth.
// Anything else is the silent-wrong-answer bug this test hunts.
func checkFailureOutcome(t *testing.T, expected map[int][]float64, q []float64, k int,
	got []Neighbor, degraded bool, err error, m vec.Metric) {
	t.Helper()
	if err != nil {
		if !tolerableQueryErr(err) {
			t.Errorf("unclassified query error: %v", err)
		}
		return
	}
	prev := Neighbor{ID: -1, Dist: -1}
	for _, nb := range got {
		p, ok := expected[nb.ID]
		if !ok {
			t.Errorf("result id %d is not a live point", nb.ID)
			return
		}
		if want := m.FromRank(m.RankDist(q, rounded(p))); nb.Dist != want {
			t.Errorf("result id %d at dist %v, true dist %v", nb.ID, nb.Dist, want)
			return
		}
		if nb.Dist < prev.Dist || (nb.Dist == prev.Dist && nb.ID <= prev.ID) {
			t.Errorf("results out of order: (id %d, %v) after (id %d, %v)",
				nb.ID, nb.Dist, prev.ID, prev.Dist)
			return
		}
		prev = nb
	}
	if degraded {
		return // best-effort results, honestly flagged
	}
	want := scanKNN(expected, q, k, m)
	if len(got) != len(want) {
		t.Errorf("non-degraded query returned %d neighbors, want %d", len(got), len(want))
		return
	}
	for j := range got {
		if got[j].ID != want[j].ID || got[j].Dist != want[j].Dist {
			t.Errorf("non-degraded query wrong at %d: got (id %d, %v), want (id %d, %v)",
				j, got[j].ID, got[j].Dist, want[j].ID, want[j].Dist)
			return
		}
	}
}

// TestFailureFlipsNeverSilentlyWrong flips disk failures (including
// chained primary+replica pairs) while seeded KNN/BatchKNN traffic runs
// on a replicated index. Every query must either match the linear-scan
// ground truth exactly, carry the Degraded flag, or report a classified
// error — a plausible-but-wrong result without the flag fails the test.
// Meant for `go test -race`.
func TestFailureFlipsNeverSilentlyWrong(t *testing.T) {
	const d, n, disks = 5, 900, 6
	ix, err := Open(Options{Dim: d, Disks: disks, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	pts := data.Uniform(n, d, 61)
	raw := make([][]float64, n)
	expected := make(map[int][]float64, n)
	for i, p := range pts {
		raw[i] = p
		expected[i] = p
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}
	m, err := Euclidean.vecMetric()
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var flipper, readers sync.WaitGroup
	flipper.Add(1)
	go func() {
		defer flipper.Done()
		rng := rand.New(rand.NewSource(62))
		for {
			select {
			case <-stop:
				return
			default:
			}
			di := rng.Intn(disks)
			ix.FailDisk(di)
			if rng.Intn(2) == 0 {
				// Kill the chained replica too: the shard's data has no
				// live copy, forcing the degraded path.
				ix.FailDisk(ix.ReplicaDisk(di))
			}
			ix.HealDisk((di + 1) % disks)
			ix.HealDisk(di)
		}
	}()
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(70 + g)))
			for i := 0; i < stressIters(250, 80); i++ {
				q := randPoint(rng, d)
				k := 1 + rng.Intn(6)
				if rng.Intn(3) == 0 {
					batch := [][]float64{q, randPoint(rng, d)}
					res, stats, err := ix.BatchKNN(batch, k)
					if err != nil {
						checkFailureOutcome(t, expected, q, k, nil, false, err, m)
						continue
					}
					for j, qr := range batch {
						checkFailureOutcome(t, expected, qr, k, res[j], stats.Degraded, nil, m)
					}
				} else {
					res, stats, err := ix.KNN(q, k)
					checkFailureOutcome(t, expected, q, k, res, stats.Degraded, err, m)
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	flipper.Wait()

	for di := 0; di < disks; di++ {
		ix.HealDisk(di)
	}
	if err := ix.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	verifyFinalState(t, ix, expected, Options{Dim: d, Disks: disks})
}

// TestSharedBoundStressConcurrent hammers the one-queue k-NN search
// under the race detector: concurrent KNN/NN traffic, holding every
// routed shard's read lock and stepping aside for writers, races
// Insert/Delete writers and a FailDisk / HealDisk flipper, with a
// counting tracer attached so the events flow through user code
// concurrently. The final quiesced index must answer what the
// independent per-disk searches and a linear scan answer, reading no
// more search pages than the independent searches.
func TestSharedBoundStressConcurrent(t *testing.T) {
	const d, n, disks = 6, 700, 5
	var events atomic.Int64
	opts := Options{Dim: d, Disks: disks, Replication: 1,
		Tracer: TracerFunc(func(ev TraceEvent) { events.Add(1) })}
	ix, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	pts := data.Uniform(n, d, 81)
	raw := make([][]float64, n)
	for i, p := range pts {
		raw[i] = p
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var flipper, readers, writers sync.WaitGroup
	flipper.Add(1)
	go func() {
		defer flipper.Done()
		rng := rand.New(rand.NewSource(82))
		for {
			select {
			case <-stop:
				return
			default:
			}
			di := rng.Intn(disks)
			ix.FailDisk(di)
			ix.HealDisk(di)
		}
	}()
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(90 + g)))
			for i := 0; i < stressIters(250, 80); i++ {
				q := randPoint(rng, d)
				if rng.Intn(4) == 0 {
					if _, _, err := ix.NN(q); !tolerableQueryErr(err) {
						t.Errorf("NN: %v", err)
						return
					}
					continue
				}
				_, stats, err := ix.KNN(q, 1+rng.Intn(6))
				if !tolerableQueryErr(err) {
					t.Errorf("KNN: %v", err)
					return
				}
				if err == nil && stats.SearchPages <= 0 {
					t.Errorf("successful KNN visited %d search pages", stats.SearchPages)
					return
				}
			}
		}(g)
	}
	// Each writer leaves the points it inserted and did not delete in
	// its own map, for the final scan.
	kept := make([]map[int][]float64, 2)
	for w := range kept {
		kept[w] = map[int][]float64{}
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(95 + w)))
			var own []int
			for i := 0; i < stressIters(200, 60); i++ {
				if len(own) > 0 && rng.Intn(3) == 0 {
					j := rng.Intn(len(own))
					id := own[j]
					own = append(own[:j], own[j+1:]...)
					delete(kept[w], id)
					if err := ix.Delete(id); err != nil {
						t.Errorf("Delete(%d): %v", id, err)
						return
					}
					continue
				}
				p := randPoint(rng, d)
				id, err := ix.Insert(p)
				if err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
				own = append(own, id)
				kept[w][id] = p
			}
		}(w)
	}
	writers.Wait()
	readers.Wait()
	close(stop)
	flipper.Wait()
	for di := 0; di < disks; di++ {
		ix.HealDisk(di)
	}

	if err := ix.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if events.Load() == 0 {
		t.Error("tracer saw no events")
	}
	if m := ix.Metrics(); m.SearchPages <= 0 || m.PagesSavedByBound < 0 {
		t.Errorf("registry search pages %d, saved pages %d", m.SearchPages, m.PagesSavedByBound)
	}

	// Quiesced, the index must agree with the independent per-disk
	// searches and with a linear scan of what the writers left.
	truth := make(map[int][]float64, n)
	for i, p := range raw {
		truth[i] = p
	}
	for _, own := range kept {
		for id, p := range own {
			truth[id] = p
		}
	}
	rng := rand.New(rand.NewSource(83))
	for i := 0; i < 5; i++ {
		q := randPoint(rng, d)
		res, stats, err := ix.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, pages := independentKNN(t, ix, q, 5)
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("quiesced query %d: one queue %v, independent searches %v", i, res, want)
		}
		checkBoundInvariants(t, fmt.Sprintf("quiesced query %d", i), stats, sum(pages))
		scan := scanKNN(truth, q, 5, vec.L2)
		for j := range scan {
			if res[j].ID != scan[j].ID || res[j].Dist != scan[j].Dist {
				t.Fatalf("quiesced query %d: result %d is %d at %v, the scan's %d at %v",
					i, j, res[j].ID, res[j].Dist, scan[j].ID, scan[j].Dist)
			}
		}
	}
}

// TestOneQueueUnderSplits races k-NN searches, which read a published
// version of every tree, against writers that insert bursts of
// clustered points — splitting leaves — and delete them again,
// dissolving the leaves. The built points are never deleted, so every
// answer must hold each of them that precedes its last result in
// (distance, ID) order: a search that saw a split or a dissolve half
// done could miss one.
func TestOneQueueUnderSplits(t *testing.T) {
	const d, n, disks, k, burst = 4, 3000, 4, 20, 60
	ix, err := Open(Options{Dim: d, Disks: disks})
	if err != nil {
		t.Fatal(err)
	}
	base := uniformPoints(n, d, 41)
	if err := ix.Build(base); err != nil {
		t.Fatal(err)
	}
	// check holds one answer against the built points.
	built := builtPoints(base)
	check := func(q []float64, res []Neighbor) {
		if len(res) != k {
			t.Errorf("query %v: %d results, want %d", q, len(res), k)
			return
		}
		var fromBase []int
		for i, r := range res {
			if want := vec.L2.Dist(q, r.Point); r.Dist != want {
				t.Errorf("query %v: result %d (ID %d) at %v, its point is at %v", q, i, r.ID, r.Dist, want)
			}
			if r.ID < n {
				if !reflect.DeepEqual(r.Point, rounded(base[r.ID])) {
					t.Errorf("query %v: result %d (ID %d) has point %v, built %v", q, i, r.ID, r.Point, base[r.ID])
				}
				fromBase = append(fromBase, r.ID)
			}
		}
		last := res[k-1]
		var want []int
		for _, h := range scanKNN(built, q, n, vec.L2) {
			if h.Dist > last.Dist || (h.Dist == last.Dist && h.ID > last.ID) {
				break
			}
			want = append(want, h.ID)
		}
		if !reflect.DeepEqual(fromBase, want) {
			t.Errorf("query %v: built points answered %v, the scan has %v before the last result", q, fromBase, want)
		}
	}

	// Each writer publishes the centre of its burst; readers query near
	// it, where the leaves split and dissolve.
	stop := make(chan struct{})
	var centres [2]atomic.Pointer[[]float64]
	var writers, readers sync.WaitGroup
	for w := range centres {
		c := randPoint(rand.New(rand.NewSource(int64(40+w))), d)
		centres[w].Store(&c)
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(50 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				c := randPoint(rng, d)
				centres[w].Store(&c)
				ids := make([]int, 0, burst)
				for i := 0; i < burst; i++ {
					p := make([]float64, d)
					for j := range p {
						p[j] = c[j] + 0.01*rng.Float64()
					}
					id, err := ix.Insert(p)
					if err != nil {
						t.Errorf("Insert: %v", err)
						return
					}
					ids = append(ids, id)
				}
				for _, id := range ids {
					if err := ix.Delete(id); err != nil {
						t.Errorf("Delete(%d): %v", id, err)
						return
					}
				}
			}
		}(w)
	}
	minQueries := stressIters(150, 60)
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(60 + g)))
			for i := 0; i < minQueries; i++ {
				q := randPoint(rng, d)
				for j, c := range *centres[rng.Intn(len(centres))].Load() {
					q[j] = c + 0.02*(q[j]-0.5)
				}
				res, _, err := ix.KNN(q, k)
				if err != nil {
					t.Errorf("KNN: %v", err)
					return
				}
				check(q, res)
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	if err := ix.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// builtPoints keys points by their index, the IDs Build gives them.
func builtPoints(pts [][]float64) map[int][]float64 {
	m := make(map[int][]float64, len(pts))
	for i, p := range pts {
		m[i] = p
	}
	return m
}

// TestBrowserConcurrentWithReaders: an open Browser must not block
// queries and must emit globally sorted results. That it blocks no
// writer either is TestOpenBrowserStallsNoQuery's.
func TestBrowserConcurrentWithReaders(t *testing.T) {
	const d = 4
	ix, err := Open(Options{Dim: d, Disks: 3})
	if err != nil {
		t.Fatal(err)
	}
	pts := data.Uniform(300, d, 21)
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}

	q := make([]float64, d)
	b, err := ix.Browse(q)
	if err != nil {
		t.Fatal(err)
	}

	// Readers keep working while the browser drains.
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(30 + g)))
			for i := 0; i < 50; i++ {
				if _, _, err := ix.KNN(randPoint(rng, d), 2); !tolerableQueryErr(err) {
					t.Errorf("KNN during browse: %v", err)
					return
				}
			}
		}(g)
	}

	prev := -1.0
	count := 0
	for {
		n, ok := b.Next()
		if !ok {
			break
		}
		if n.Dist < prev {
			t.Fatalf("browser emitted out of order: %v after %v", n.Dist, prev)
		}
		prev = n.Dist
		count++
	}
	wg.Wait()
	if count != len(pts) {
		t.Fatalf("browser returned %d results, want %d", count, len(pts))
	}
}

// TestConcurrentSaveConsistency: snapshots taken during writes must each
// be internally consistent — they load cleanly and pass integrity
// checks, holding some prefix of the mutation history.
func TestConcurrentSaveConsistency(t *testing.T) {
	const d = 4
	ix, err := Open(Options{Dim: d, Disks: 3})
	if err != nil {
		t.Fatal(err)
	}
	pts := data.Uniform(200, d, 31)
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}

	inserts := stressIters(200, 60)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(32))
		for i := 0; i < inserts; i++ {
			if _, err := ix.Insert(randPoint(rng, d)); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
		}
	}()

	var snaps []*bytes.Buffer
	for {
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		snaps = append(snaps, &buf)
		select {
		case <-done:
			goto verify
		default:
		}
	}
verify:
	for i, buf := range snaps {
		loaded, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("snapshot %d does not load: %v", i, err)
		}
		if err := loaded.CheckIntegrity(); err != nil {
			t.Fatalf("snapshot %d integrity: %v", i, err)
		}
		if n := loaded.Len(); n < len(pts) || n > len(pts)+inserts {
			t.Fatalf("snapshot %d holds %d vectors, expected within [%d, %d]",
				i, n, len(pts), len(pts)+inserts)
		}
	}
}

// TestQueriesTakeNoLock: no query waits for a writer. With meta held, as
// a write batch's apply or Reorganize's re-plan holds it, every query
// method and every accessor a query serves still returns, at once, over
// the published version.
func TestQueriesTakeNoLock(t *testing.T) {
	const d, n = 4, 1000
	ix := buildTestIndex(t, Options{Dim: d, Disks: 4}, n)
	q, hi := make([]float64, d), []float64{1, 1, 1, 1}
	ops := map[string]func() error{
		"KNN":        func() error { _, _, err := ix.KNN(q, 5); return err },
		"KNNApprox":  func() error { _, _, err := ix.KNNApprox(q, 5, Approx{Epsilon: 0.5}); return err },
		"NN":         func() error { _, _, err := ix.NN(q); return err },
		"RangeQuery": func() error { _, _, err := ix.RangeQuery(q, hi); return err },
		"PartialMatch": func() error {
			_, _, err := ix.PartialMatch([]float64{0.5, Wildcard, Wildcard, Wildcard}, 0.1)
			return err
		},
		"BatchKNN":       func() error { _, _, err := ix.BatchKNN([][]float64{q, hi}, 5); return err },
		"ServiceDemands": func() error { _, err := ix.ServiceDemands([][]float64{q, hi}, 5); return err },
		"Browse": func() error {
			b, err := ix.Browse(q)
			if err != nil {
				return err
			}
			if _, ok := b.Next(); !ok {
				return fmt.Errorf("no first result: %v", b.Err())
			}
			return nil
		},
		"Len": func() error {
			if got := ix.Len(); got != n {
				return fmt.Errorf("%d points, want %d", got, n)
			}
			return nil
		},
		"DiskLoads": func() error { ix.DiskLoads(); return nil },
		"Strategy":  func() error { ix.Strategy(); return nil },
		"HomeDisk":  func() error { _, err := ix.HomeDisk(q); return err },
	}

	ix.meta.Lock()
	defer ix.meta.Unlock()
	type result struct {
		op  string
		err error
	}
	done := make(chan result, len(ops))
	for op, run := range ops {
		go func() { done <- result{op, run()} }()
	}
	deadline := time.After(5 * time.Second)
	for range len(ops) {
		select {
		case res := <-done:
			if res.err != nil {
				t.Errorf("%s: %v", res.op, res.err)
			}
			delete(ops, res.op)
		case <-deadline:
			for op := range ops {
				t.Errorf("%s waits for meta", op)
			}
			return
		}
	}
}

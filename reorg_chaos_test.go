package parsearch

// The reorganize chaos battery: incremental reorganization must be
// invisible to the query path. Readers hammer KNN/RangeQuery/
// PartialMatch while Reorganize cuts bucket splits in concurrently, and
// every answer must be byte-identical to the linear-scan oracle — no
// transiently torn structure, no dropped or duplicated point, ever.
// Variants add concurrent batched ingest (must-see/may-see oracle),
// mid-reorganize disk failure on a replicated index, and mid-reorganize
// process crashes on a durable index with reopen equivalence. The whole
// file is meant for `go test -race`.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"parsearch/internal/data"
	"parsearch/internal/fsx"
	"parsearch/internal/vec"
)

// driftedIndex builds an index over nUniform uniform points, then
// inserts nSkew points concentrated near the origin — the distribution
// shift that overloads the low buckets and gives Reorganize real work.
// It returns the index and the id→point oracle map.
func driftedIndex(t *testing.T, opts Options, nUniform, nSkew int) (*Index, map[int][]float64) {
	t.Helper()
	ix, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	expected := make(map[int][]float64, nUniform+nSkew)
	raw := make([][]float64, nUniform)
	for i, p := range data.Uniform(nUniform, opts.Dim, 1701) {
		raw[i] = p
		expected[i] = p
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}
	for _, p := range data.Uniform(nSkew, opts.Dim, 1702) {
		q := make([]float64, opts.Dim)
		for j := range q {
			q[j] = p[j] * 0.2
		}
		id, err := ix.Insert(q)
		if err != nil {
			t.Fatal(err)
		}
		expected[id] = q
	}
	return ix, expected
}

// checkKNNExact fails unless the result is byte-identical to the
// linear-scan oracle over expected.
func checkKNNExact(t *testing.T, expected map[int][]float64, q []float64, k int, got []Neighbor, m vec.Metric) {
	t.Helper()
	want := scanKNN(expected, q, k, m)
	if len(got) != len(want) {
		t.Errorf("KNN returned %d neighbors, oracle has %d", len(got), len(want))
		return
	}
	for j := range got {
		if got[j].ID != want[j].ID || got[j].Dist != want[j].Dist {
			t.Errorf("KNN neighbor %d: got (id %d, dist %v), want (id %d, dist %v)",
				j, got[j].ID, got[j].Dist, want[j].ID, want[j].Dist)
			return
		}
	}
}

// resultIDs extracts the result ids.
func resultIDs(ns []Neighbor) []int {
	ids := make([]int, 0, len(ns))
	for _, n := range ns {
		ids = append(ids, n.ID)
	}
	return ids
}

// TestReorgChaosServingExact is the core battery: the point set is
// fixed, so while Reorganize churns bucket cut-ins, every concurrent
// query of every kind must match the oracle exactly.
func TestReorgChaosServingExact(t *testing.T) {
	opts := Options{Dim: 4, Disks: 8, QuantileSplits: true}
	ix, expected := driftedIndex(t, opts, 1200, stressIters(1600, 600))
	m, err := Euclidean.vecMetric()
	if err != nil {
		t.Fatal(err)
	}
	if !ix.NeedsReorganization() {
		t.Fatal("drifted index reports no reorganization need — workload too tame")
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(400 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(3) {
				case 0:
					q := randPoint(rng, opts.Dim)
					k := 1 + rng.Intn(8)
					got, _, err := ix.KNN(q, k)
					if err != nil {
						t.Errorf("KNN: %v", err)
						return
					}
					checkKNNExact(t, expected, q, k, got, m)
				case 1:
					lo, hi := randBox(rng, opts.Dim)
					got, _, err := ix.RangeQueryContext(context.Background(), lo, hi)
					if err != nil {
						t.Errorf("RangeQuery: %v", err)
						return
					}
					if want := scanBox(expected, lo, hi); !reflect.DeepEqual(resultIDs(got), want) {
						t.Errorf("RangeQuery ids %v, want %v", resultIDs(got), want)
						return
					}
				case 2:
					spec := make([]float64, opts.Dim)
					lo := make([]float64, opts.Dim)
					hi := make([]float64, opts.Dim)
					eps := 0.15
					specified := 0
					for j := range spec {
						if rng.Intn(2) == 0 {
							spec[j] = Wildcard
							lo[j], hi[j] = -1, 2
							continue
						}
						specified++
						spec[j] = rng.Float64()
						lo[j], hi[j] = spec[j]-eps, spec[j]+eps
					}
					if specified == 0 {
						continue
					}
					got, _, err := ix.PartialMatchContext(context.Background(), spec, eps)
					if err != nil {
						t.Errorf("PartialMatch: %v", err)
						return
					}
					if want := scanBox(expected, lo, hi); !reflect.DeepEqual(resultIDs(got), want) {
						t.Errorf("PartialMatch ids %v, want %v", resultIDs(got), want)
						return
					}
				}
			}
		}(g)
	}

	// Maintenance: repeated incremental reorganizations racing the
	// readers. Each round's cut-ins happen while queries are in flight.
	var total ReorgStats
	for round := 0; round < stressIters(5, 3); round++ {
		stats, err := ix.ReorganizeStats()
		if err != nil {
			t.Fatalf("Reorganize round %d: %v", round, err)
		}
		total.Steps += stats.Steps
		total.BucketsSplit += stats.BucketsSplit
		total.PointsMoved += stats.PointsMoved
		if err := ix.CheckIntegrity(); err != nil {
			t.Fatalf("integrity after round %d: %v", round, err)
		}
	}
	close(stop)
	readers.Wait()

	if total.Steps == 0 {
		t.Fatal("reorganization performed no incremental steps on a drifted index")
	}
	if ix.Metrics().ReorgBuckets != int64(total.BucketsSplit) {
		t.Fatalf("reorg_buckets metric %d, stats counted %d", ix.Metrics().ReorgBuckets, total.BucketsSplit)
	}
	verifyFinalState(t, ix, expected, opts)
}

// TestReorgChaosConcurrentIngest layers batched async ingest on top of
// the reorganize churn. With writers live the oracle is a moving
// target, so readers use the must-see/may-see check: a KNN answer must
// be exactly the linear scan over (everything acknowledged before the
// query started) ∪ (the points the answer itself returned) — late
// acks may appear, acknowledged points must never vanish.
func TestReorgChaosConcurrentIngest(t *testing.T) {
	opts := Options{Dim: 4, Disks: 6, QuantileSplits: true}
	ix, expected := driftedIndex(t, opts, 800, 600)
	m, err := Euclidean.vecMetric()
	if err != nil {
		t.Fatal(err)
	}

	var ackMu sync.Mutex
	acked := make(map[int][]float64, len(expected))
	for id, p := range expected {
		acked[id] = p
	}
	snapshotAcked := func() map[int][]float64 {
		ackMu.Lock()
		defer ackMu.Unlock()
		out := make(map[int][]float64, len(acked))
		for id, p := range acked {
			out[id] = p
		}
		return out
	}

	aw := NewAsyncWriter(ix, AsyncConfig{MaxBatch: 32})
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup

	writers.Add(1)
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewSource(500))
		for i := 0; i < stressIters(900, 300); i++ {
			p := randPoint(rng, opts.Dim)
			for j := range p {
				p[j] *= 0.2 // keep drifting into the hot region
			}
			pend, err := aw.Insert(p)
			if err != nil {
				t.Errorf("async Insert: %v", err)
				return
			}
			id, err := pend.Wait()
			if err != nil {
				t.Errorf("async ack: %v", err)
				return
			}
			ackMu.Lock()
			acked[id] = p
			ackMu.Unlock()
		}
	}()

	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(510 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				mustSee := snapshotAcked()
				q := randPoint(rng, opts.Dim)
				k := 1 + rng.Intn(8)
				got, _, err := ix.KNN(q, k)
				if err != nil {
					t.Errorf("KNN: %v", err)
					return
				}
				// Union the answer's own points in: anything it returned
				// beyond the must-see set was acked mid-query, which is
				// legal — but given that union, the answer must be the
				// exact k nearest.
				union := mustSee
				for _, n := range got {
					union[n.ID] = n.Point
				}
				checkKNNExact(t, union, q, k, got, m)
			}
		}(g)
	}

	var maintenance sync.WaitGroup
	maintenance.Add(1)
	go func() {
		defer maintenance.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := ix.Reorganize(); err != nil {
				t.Errorf("Reorganize: %v", err)
				return
			}
		}
	}()

	writers.Wait()
	if err := aw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	close(stop)
	readers.Wait()
	maintenance.Wait()
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ix.Metrics().IngestBatches; got == 0 {
		t.Fatal("ingest_batches metric stayed zero across the async workload")
	}
	// Quiesced: the full acked set is the oracle again.
	verifyFinalState(t, ix, snapshotAcked(), opts)
}

// TestReorgChaosDiskFailure reorganizes while disks fail and heal. With
// Replication 1 and at most one failed disk, every query has a live
// copy of everything: answers must stay exact (never Degraded) even
// when the failure lands mid-cut-in.
func TestReorgChaosDiskFailure(t *testing.T) {
	opts := Options{Dim: 5, Disks: 6, Replication: 1, QuantileSplits: true}
	ix, expected := driftedIndex(t, opts, 900, stressIters(1200, 500))
	m, err := Euclidean.vecMetric()
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var flipper, readers sync.WaitGroup
	flipper.Add(1)
	go func() {
		defer flipper.Done()
		rng := rand.New(rand.NewSource(600))
		for {
			select {
			case <-stop:
				return
			default:
			}
			d := rng.Intn(opts.Disks)
			ix.FailDisk(d) // one at a time: the chained replica stays live
			ix.HealDisk(d)
		}
	}()
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(610 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := randPoint(rng, opts.Dim)
				k := 1 + rng.Intn(6)
				got, stats, err := ix.KNN(q, k)
				checkFailureOutcome(t, expected, q, k, got, stats.Degraded, err, m)
			}
		}(g)
	}

	steps := 0
	for round := 0; round < stressIters(5, 3); round++ {
		stats, err := ix.ReorganizeStats()
		if err != nil {
			t.Fatalf("Reorganize under failures: %v", err)
		}
		steps += stats.Steps
	}
	close(stop)
	readers.Wait()
	flipper.Wait()
	if steps == 0 {
		t.Fatal("no incremental steps ran while disks were flipping")
	}
	for d := 0; d < opts.Disks; d++ {
		ix.HealDisk(d)
	}
	verifyFinalState(t, ix, expected, opts)
}

// TestReorgChaosApproxRecall runs the approximate tier through the
// live-mutation gauntlet: approximate queries (ε-termination) while
// Reorganize cuts buckets in and an ingest stream drifts the
// distribution. The oracle is recomputed per phase — quiesced before,
// concurrent during (against the points acknowledged before the phase
// started: late inserts may displace a hit but acknowledged points set
// the bar), quiesced after — and the measured recall must hold its
// floor in every phase. Approximation must never shorten a result set,
// whatever the churn.
func TestReorgChaosApproxRecall(t *testing.T) {
	opts := Options{Dim: 4, Disks: 6, QuantileSplits: true, PageSize: 256}
	ix, expected := driftedIndex(t, opts, 900, stressIters(900, 400))
	m, err := Euclidean.vecMetric()
	if err != nil {
		t.Fatal(err)
	}
	if !ix.NeedsReorganization() {
		t.Fatal("drifted index reports no reorganization need — workload too tame")
	}

	const k = 8
	knobs := Approx{Epsilon: 0.1}
	approxActivity := 0

	// measureRecall runs nq seeded approximate queries against the given
	// oracle and returns the mean recall; every answer must be exactly k
	// long and honor the ε contract relative to the oracle's kth distance
	// (a valid upper bound even while inserts add closer points).
	measureRecall := func(oracle map[int][]float64, seed int64, nq int) float64 {
		rng := rand.New(rand.NewSource(seed))
		var sum float64
		for qi := 0; qi < nq; qi++ {
			q := randPoint(rng, opts.Dim)
			got, stats, err := ix.KNNApprox(q, k, knobs)
			if err != nil {
				t.Fatalf("approx KNN: %v", err)
			}
			if len(got) != k {
				t.Fatalf("query %d: approx returned %d neighbors, want %d — silently short under churn",
					qi, len(got), k)
			}
			approxActivity += stats.PagesSkippedApprox
			want := scanKNN(oracle, q, k, m)
			kth := want[len(want)-1].Dist
			hits := make(map[int]bool, len(want))
			for _, h := range want {
				hits[h.ID] = true
			}
			n := 0
			for _, nb := range got {
				if hits[nb.ID] {
					n++
				}
				if nb.Dist > (1+knobs.Epsilon)*kth+1e-9 {
					t.Fatalf("query %d: dist %v exceeds (1+ε)·kth = %v", qi, nb.Dist, (1+knobs.Epsilon)*kth)
				}
			}
			sum += float64(n) / float64(len(want))
		}
		return sum / float64(nq)
	}
	snapshot := func() map[int][]float64 {
		out := make(map[int][]float64, len(expected))
		for id, p := range expected {
			out[id] = p
		}
		return out
	}

	// Phase 1: quiesced, pre-reorganize.
	if r := measureRecall(snapshot(), 2001, 25); r < 0.9 {
		t.Errorf("pre-reorganize recall %.3f below 0.9", r)
	}

	// Phase 2: queries race an incremental reorganize and an ingest
	// stream. The oracle is the phase-start snapshot; inserts landing
	// mid-phase may displace hits, so the floor is looser.
	oracle := snapshot()
	done := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(2)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := ix.Reorganize(); err != nil {
				t.Errorf("Reorganize: %v", err)
				return
			}
		}
	}()
	ingested := make(map[int][]float64)
	go func() {
		defer churn.Done()
		rng := rand.New(rand.NewSource(2002))
		for i := 0; i < stressIters(400, 150); i++ {
			p := randPoint(rng, opts.Dim)
			for j := range p {
				p[j] *= 0.2
			}
			id, err := ix.Insert(p)
			if err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
			ingested[id] = p
		}
	}()
	if r := measureRecall(oracle, 2003, 40); r < 0.8 {
		t.Errorf("mid-churn recall %.3f below 0.8", r)
	}
	close(done)
	churn.Wait()
	for id, p := range ingested {
		expected[id] = p
	}

	// Phase 3: quiesced again over the full surviving set; one more
	// reorganize settles the drift the phase-2 stream caused.
	if err := ix.Reorganize(); err != nil {
		t.Fatal(err)
	}
	if err := ix.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if r := measureRecall(snapshot(), 2004, 25); r < 0.9 {
		t.Errorf("post-reorganize recall %.3f below 0.9", r)
	}
	if approxActivity == 0 {
		t.Error("no pages skipped across the whole chaos run — approximate tier was inert")
	}
	verifyFinalState(t, ix, expected, opts)
}

// TestReorgChaosCrashDuringReorganize crashes a durable index at a
// sweep of write offsets inside the Reorganize-time checkpoint, then
// recovers. Reorganization only restructures — it must never move the
// logical contents — so every recovery, whatever the crash point, must
// reproduce the pre-reorganize table and answers exactly.
func TestReorgChaosCrashDuringReorganize(t *testing.T) {
	opts := durableOpts()
	opts.QuantileSplits = true
	// Small pages: the balance slack is one leaf's worth of points, and
	// the default page holds more points than this whole workload.
	opts.PageSize = 256

	// Deterministic drifting workload, shared by the golden run and
	// every crash run.
	workload := func(ix *Index) error {
		for i := 0; i < 60; i++ {
			if _, err := ix.Insert(durPoint(i, opts.Dim)); err != nil {
				return err
			}
		}
		for i := 0; i < 140; i++ {
			p := durPoint(i, opts.Dim)
			for j := range p {
				p[j] *= 0.05
			}
			if _, err := ix.Insert(p); err != nil {
				return err
			}
		}
		return nil
	}

	// Golden run: no failpoints. Everything written from `base` on
	// belongs to the reorganize (bucket cut-ins + sealing checkpoint).
	golden := fsx.NewMem()
	gix, err := openDurable(opts, golden)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload(gix); err != nil {
		t.Fatal(err)
	}
	wantTable := tableOf(gix)
	queries := make([][]float64, 8)
	wantAnswers := make([][]Neighbor, len(queries))
	for q := range queries {
		queries[q] = durPoint(q*17+3, opts.Dim)
		if wantAnswers[q], _, err = gix.KNN(queries[q], 5); err != nil {
			t.Fatal(err)
		}
	}
	base := golden.TotalWritten()
	stats, err := gix.ReorganizeStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps == 0 || !stats.Checkpointed {
		t.Fatalf("golden reorganize did nothing to crash into: %+v", stats)
	}
	total := golden.TotalWritten()
	if total <= base {
		t.Fatal("reorganize wrote nothing durable")
	}

	var offsets []int64
	for _, b := range golden.WriteBoundaries() {
		if b >= base && b < total {
			offsets = append(offsets, b, b+3)
		}
	}
	if testing.Short() && len(offsets) > 24 {
		offsets = offsets[:24]
	}
	if len(offsets) < 4 {
		t.Fatalf("only %d crash points in the reorganize window", len(offsets))
	}

	for _, off := range offsets {
		fs := fsx.NewMem()
		ix, err := openDurable(opts, fs)
		if err != nil {
			t.Fatal(err)
		}
		if err := workload(ix); err != nil {
			t.Fatal(err)
		}
		fs.CrashAfter(off)
		// The reorganize dies mid-write (in-memory cut-ins may or may
		// not have landed; the checkpoint may be torn).
		if err := ix.Reorganize(); err == nil && !fs.Crashed() {
			t.Fatalf("offset %d: reorganize finished without hitting the crash point", off)
		}
		re, err := openDurable(opts, fs.DurableView())
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", off, err)
		}
		if got := tableOf(re); !reflect.DeepEqual(got, wantTable) {
			t.Fatalf("offset %d: recovered table differs from pre-crash contents", off)
		}
		for q := range queries {
			got, _, err := re.KNN(queries[q], 5)
			if err != nil {
				t.Fatalf("offset %d query %d: %v", off, q, err)
			}
			if !reflect.DeepEqual(got, wantAnswers[q]) {
				t.Fatalf("offset %d query %d: recovered answer differs from pre-crash", off, q)
			}
		}
		if err := re.CheckIntegrity(); err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
	}
}

// TestReorganizeThenCrashKeepsSemantics is the regression test for two
// bugs around the reorganize/durability seam. (1) Reorganize used to
// discard the adaptive splitter (ix.adaptive = nil), so the drift
// statistics restarted from midpoint references and an index serving
// skewed data re-triggered reorganization forever; it must instead
// adopt the new quantiles, so inserts from the same distribution keep
// NeedsReorganization false. (2) A crash immediately after Reorganize
// must recover to the same answers and the same NeedsReorganization
// verdict — the sealing checkpoint makes the reorganized structure the
// recovery baseline instead of a long log replay.
func TestReorganizeThenCrashKeepsSemantics(t *testing.T) {
	opts := durableOpts()
	opts.QuantileSplits = true
	opts.PageSize = 256
	fs := fsx.NewMem()
	ix, err := openDurable(opts, fs)
	if err != nil {
		t.Fatal(err)
	}
	// A stationary skewed distribution: the same cluster before and
	// after the reorganize, so post-reorganize inserts are NOT drift.
	skewPool := data.Uniform(280, opts.Dim, 1900)
	skewed := func(i int) []float64 {
		p := append([]float64(nil), skewPool[i%len(skewPool)]...)
		for j := range p {
			p[j] *= 0.05
		}
		return p
	}
	for _, p := range data.Uniform(40, opts.Dim, 1901) {
		if _, err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 160; i++ {
		if _, err := ix.Insert(skewed(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !ix.NeedsReorganization() {
		t.Fatal("drifted index reports no reorganization need")
	}
	genBefore := ix.Durability().Generation

	stats, err := ix.ReorganizeStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps == 0 || !stats.Checkpointed {
		t.Fatalf("reorganize did not restructure and seal: %+v", stats)
	}
	if gen := ix.Durability().Generation; gen <= genBefore {
		t.Fatalf("sealing checkpoint did not rotate: generation %d -> %d", genBefore, gen)
	}
	if ix.NeedsReorganization() {
		t.Fatal("reorganization did not clear the drift signal")
	}
	// The splitter must have adopted the new quantiles: more data from
	// the SAME skewed distribution is not drift and must not re-trigger.
	for i := 160; i < 280; i++ {
		if _, err := ix.Insert(skewed(i)); err != nil {
			t.Fatal(err)
		}
	}
	if ix.NeedsReorganization() {
		t.Fatal("same-distribution inserts re-triggered reorganization (splitter was reset)")
	}
	needsBefore := ix.NeedsReorganization()
	wantTable := tableOf(ix)
	queries := make([][]float64, 6)
	wantAnswers := make([][]Neighbor, len(queries))
	for q := range queries {
		queries[q] = skewed(q*13 + 2)
		if wantAnswers[q], _, err = ix.KNN(queries[q], 5); err != nil {
			t.Fatal(err)
		}
	}

	// Crash (no Close) and recover: only fsynced bytes survive.
	re, err := openDurable(opts, fs.DurableView())
	if err != nil {
		t.Fatal(err)
	}
	if got := tableOf(re); !reflect.DeepEqual(got, wantTable) {
		t.Fatal("recovered table differs from pre-crash contents")
	}
	for q := range queries {
		got, _, err := re.KNN(queries[q], 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantAnswers[q]) {
			t.Fatalf("query %d: recovered answer differs from pre-crash", q)
		}
	}
	if err := re.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if got := re.NeedsReorganization(); got != needsBefore {
		t.Fatalf("recovered NeedsReorganization = %v, pre-crash %v", got, needsBefore)
	}
	// The checkpoint bounds the replay: recovery starts from the sealed
	// snapshot, not the whole mutation history.
	if rec := re.Recovery(); rec.Records > 121 {
		t.Fatalf("recovery replayed %d records — the reorganize checkpoint did not bound the log", rec.Records)
	}
}

// TestReorgChaosStorageFaultMidReorganize injects a one-shot write
// error inside the reorganize-time checkpoint on a live (not crashed)
// process: Reorganize must surface the failure, and the index must keep
// serving exact answers on its in-memory state.
func TestReorgChaosStorageFaultMidReorganize(t *testing.T) {
	opts := durableOpts()
	opts.QuantileSplits = true
	opts.PageSize = 256
	fs := fsx.NewMem()
	ix, err := openDurable(opts, fs)
	if err != nil {
		t.Fatal(err)
	}
	expected := make(map[int][]float64)
	for i := 0; i < 50; i++ {
		p := durPoint(i, opts.Dim)
		if i >= 15 {
			for j := range p {
				p[j] *= 0.05
			}
		}
		id, err := ix.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		expected[id] = p
	}
	fs.FailWriteAt(fs.TotalWritten() + 64) // lands inside the sealing checkpoint
	stats, err := ix.ReorganizeStats()
	if stats.Steps == 0 {
		t.Fatalf("reorganize did no incremental steps: %+v (err %v)", stats, err)
	}
	if err == nil && stats.Checkpointed {
		t.Fatalf("reorganize checkpoint swallowed the injected write error: %+v", stats)
	}
	if errors.Is(err, ErrClosed) {
		t.Fatalf("injected fault closed the index: %v", err)
	}
	m, _ := Euclidean.vecMetric()
	for q := 0; q < 6; q++ {
		query := durPoint(q*9+1, opts.Dim)
		got, _, err := ix.KNN(query, 4)
		if err != nil {
			t.Fatalf("KNN after storage fault: %v", err)
		}
		checkKNNExact(t, expected, query, 4, got, m)
	}
	if err := ix.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

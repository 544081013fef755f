package parsearch

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"parsearch/internal/fsx"
	"parsearch/internal/wal"
)

// TestNonFiniteInsertRefused: a NaN or infinite coordinate is refused by
// every write path — Insert, InsertBatch, AsyncWriter, Build — with the
// component named in the error. A refused
// batch op aborts the rest of its batch, and the index keeps answering
// exactly what it held.
func TestNonFiniteInsertRefused(t *testing.T) {
	bad := map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)}
	paths := map[string]func(ix *Index, p []float64) error{
		"Insert": func(ix *Index, p []float64) error {
			_, err := ix.Insert(p)
			return err
		},
		"InsertBatch": func(ix *Index, p []float64) error {
			ids, err := ix.InsertBatch([][]float64{{0.1, 0.2, 0.3, 0.4}, p, {0.4, 0.3, 0.2, 0.1}})
			if err != nil && len(ids) != 1 {
				t.Errorf("InsertBatch applied %d ops, want the prefix of 1", len(ids))
			}
			return err
		},
		"AsyncWriter": func(ix *Index, p []float64) error {
			aw := NewAsyncWriter(ix, AsyncConfig{})
			defer aw.Close()
			pend, err := aw.Insert(p)
			if err != nil {
				return err
			}
			_, err = pend.Wait()
			return err
		},
		"Build": func(ix *Index, p []float64) error {
			return ix.Build([][]float64{{0.5, 0.5, 0.5, 0.5}, p})
		},
	}
	for pathName, write := range paths {
		for valName, v := range bad {
			ix := buildTestIndex(t, Options{Dim: 4, Disks: 4}, 300)
			want := ix.Len()
			if pathName == "InsertBatch" {
				want++
			}
			err := write(ix, []float64{0.5, v, 0.5, 0.5})
			if err == nil || !strings.Contains(err.Error(), "component 1") {
				t.Errorf("%s of a %s coordinate: err %v, want a refusal naming component 1", pathName, valName, err)
				continue
			}
			if ix.Len() != want {
				t.Errorf("%s of a %s coordinate: %d points, want %d", pathName, valName, ix.Len(), want)
			}
			if err := ix.CheckIntegrity(); err != nil {
				t.Errorf("%s of a %s coordinate: %v", pathName, valName, err)
			}
			res, _, err := ix.RangeQueryContext(context.Background(), []float64{0, 0, 0, 0}, []float64{1, 1, 1, 1})
			if err != nil || len(res) != want {
				t.Errorf("%s of a %s coordinate: the unit cube holds %d points (%v), want %d", pathName, valName, len(res), err, want)
			}
		}
	}
}

// TestNonFiniteLoadAndReplayRefused: a NaN or infinite coordinate that
// reached storage is refused on the way back in. Load refuses a snapshot
// holding one, naming the component; durable recovery refuses a logged
// insert of one as ErrCorrupt, and Salvage keeps the log's prefix before
// it, which passes CheckIntegrity and answers over exactly its points.
func TestNonFiniteLoadAndReplayRefused(t *testing.T) {
	bad := map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)}
	good := [][]float64{{0.1, 0.2, 0.3}, {0.4, 0.5, 0.6}, {0.7, 0.8, 0.9}}
	for name, v := range bad {
		p := []float64{0.5, v, 0.5}
		t.Run("Load/"+name, func(t *testing.T) {
			ix, err := Open(Options{Dim: 3, Disks: 2})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			tbl := newTable(3, 3)
			for _, row := range [][]float64{good[0], p, good[1]} {
				tbl.add(row)
			}
			if err := ix.writeSnapshot(&buf, tbl, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "component 1") {
				t.Errorf("err %v, want a refusal naming component 1", err)
			}
		})
		t.Run("replay/"+name, func(t *testing.T) {
			fs := fsx.NewMem()
			opts := Options{Dim: 3, Disks: 2, Durable: true}
			ix, err := openDurable(opts, fs)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range good {
				if _, err := ix.Insert(q); err != nil {
					t.Fatal(err)
				}
			}
			log, err := fs.ReadFile(walName(0))
			if err != nil {
				t.Fatal(err)
			}
			if err := rewriteFile(fs, walName(0), append(log, wal.EncodeInsert(uint64(len(good)), p)...)); err != nil {
				t.Fatal(err)
			}
			if _, err := openDurable(opts, fs); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("reopen: err %v, want ErrCorrupt", err)
			}
			opts.Salvage = true
			re, err := openDurable(opts, fs)
			if err != nil {
				t.Fatalf("salvage: %v", err)
			}
			if !re.Recovery().Salvaged || re.Len() != len(good) {
				t.Errorf("salvage kept %d points (%+v), want the prefix of %d", re.Len(), re.Recovery(), len(good))
			}
			if err := re.CheckIntegrity(); err != nil {
				t.Error(err)
			}
			res, _, err := re.RangeQueryContext(context.Background(), []float64{0, 0, 0}, []float64{1, 1, 1})
			if err != nil || len(res) != len(good) {
				t.Errorf("the unit cube holds %d points (%v), want %d", len(res), err, len(good))
			}
		})
	}
}

// TestDurableReopenKeepsMetric is the durable twin of
// TestSnapshotKeepsMetric: a directory reopened under another metric is
// refused, naming both, instead of serving its data under the wrong
// distance — and a Euclidean directory, whose snapshot records no
// metric, reopens under the default.
func TestDurableReopenKeepsMetric(t *testing.T) {
	for _, m := range []Metric{Euclidean, Manhattan} {
		fs := fsx.NewMem()
		opts := Options{Dim: 4, Disks: 4, Durable: true, Metric: m}
		ix, err := openDurable(opts, fs)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Build(uniformPoints(200, 4, 3)); err != nil {
			t.Fatal(err)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		for _, reopen := range []Metric{"", Euclidean, Manhattan, Maximum} {
			opts.Metric = reopen
			ix, err := openDurable(opts, fs)
			resolved := cmp.Or(reopen, Euclidean)
			switch {
			case resolved == m && err != nil:
				t.Errorf("%s directory reopened as %q: %v", m, reopen, err)
			case resolved != m && (err == nil || !strings.Contains(err.Error(), string(m)) || !strings.Contains(err.Error(), string(resolved))):
				t.Errorf("%s directory reopened as %q: err %v, want a refusal naming both metrics", m, reopen, err)
			}
			if err == nil {
				ix.Close()
			}
		}
	}
}

// TestBatchIsAtomicToQueries races an InsertBatch of 64 points jittered
// around the centre of the unit cube — a region holding no built point,
// whose quadrants land on every disk — against range and k-NN queries
// over that region. A query reads one published version, the state after
// a whole write batch, so every answer holds none or all of the batch;
// and the batch is visible once InsertBatch returned.
func TestBatchIsAtomicToQueries(t *testing.T) {
	const d, batch = 4, 64
	rng := rand.New(rand.NewSource(5))
	var base [][]float64
	for len(base) < 1000 {
		p := randPoint(rng, d)
		for _, v := range p {
			if math.Abs(v-0.5) > 0.05 {
				base = append(base, p)
				break
			}
		}
	}
	lo, hi, centre := make([]float64, d), make([]float64, d), make([]float64, d)
	for j := range centre {
		lo[j], hi[j], centre[j] = 0.45, 0.55, 0.5
	}
	ix, err := Open(Options{Dim: d, Disks: 4, Baseline: true, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	for round := range stressIters(100, 25) {
		// Build cuts the batch out again as one version.
		if err := ix.Build(base); err != nil {
			t.Fatal(err)
		}
		pts := make([][]float64, batch)
		for i := range pts {
			pts[i] = make([]float64, d)
			for j := range pts[i] {
				pts[i][j] = 0.5 + 0.02*(rng.Float64()-0.5)
			}
		}
		// fromBatch counts an answer's IDs of the batch, which Build's
		// IDs precede.
		fromBatch := func(res []Neighbor) (n int) {
			for _, nb := range res {
				if nb.ID >= len(base) {
					n++
				}
			}
			return n
		}
		var stop atomic.Bool
		var seen [2]atomic.Int64 // answers that held none, all
		var wg, ready sync.WaitGroup
		for g := range 2 {
			wg.Add(1)
			ready.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					var res []Neighbor
					var err error
					if g == 0 {
						res, _, err = ix.RangeQueryContext(context.Background(), lo, hi)
					} else {
						res, _, err = ix.KNN(centre, batch)
					}
					switch n := fromBatch(res); {
					case err != nil:
						t.Error(err)
						stop.Store(true)
					case n == 0:
						seen[0].Add(1)
					case n == batch:
						seen[1].Add(1)
					default:
						t.Errorf("round %d: an answer holds %d of the batch's %d points", round, n, batch)
						stop.Store(true)
					}
					if i == 0 {
						ready.Done()
					}
				}
			}()
		}
		// The readers are querying before the batch starts.
		ready.Wait()
		if _, err := ix.InsertBatch(pts); err != nil {
			t.Fatal(err)
		}
		res, _, err := ix.RangeQueryContext(context.Background(), lo, hi)
		if err != nil || fromBatch(res) != batch {
			t.Fatalf("round %d: after InsertBatch returned, a range query holds %d of the batch (%v)", round, fromBatch(res), err)
		}
		stop.Store(true)
		wg.Wait()
		if err := ix.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			t.Logf("round 0: %d answers before the batch, %d after", seen[0].Load(), seen[1].Load())
		}
	}
}

package parsearch

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"parsearch/internal/fsx"
	"parsearch/internal/wal"
)

// scriptOp is one step of the write script: an insert of point, or a
// delete of id.
type scriptOp struct {
	point []float64
	id    int
}

// scriptOutcome is what the caller of a write entry point saw for one
// op: the assigned ID (inserts) and the error.
type scriptOutcome struct {
	id  int
	err error
}

func (o scriptOutcome) String() string { return fmt.Sprintf("id=%d err=%v", o.id, o.err) }

func aborted(err error) bool { return err != nil && strings.Contains(err.Error(), "batch aborted") }

const writeScriptBuilt = 40 // points bulk-loaded before the script runs

// writeScript is a seeded mix of inserts and deletes over a built index:
// deletes of live IDs, of unknown IDs and of IDs already deleted.
func writeScript(dim int) []scriptOp {
	rng := rand.New(rand.NewSource(27))
	next := writeScriptBuilt
	var live, dead []int
	for id := 0; id < next; id++ {
		live = append(live, id)
	}
	ops := make([]scriptOp, 0, 240)
	for len(ops) < cap(ops) {
		switch r := rng.Intn(20); {
		case r < 13 || len(live) == 0:
			p := make([]float64, dim)
			for j := range p {
				p[j] = rng.Float64()
			}
			ops = append(ops, scriptOp{point: p})
			live = append(live, next)
			next++
		case r < 17:
			i := rng.Intn(len(live))
			ops = append(ops, scriptOp{id: live[i]})
			dead = append(dead, live[i])
			live = append(live[:i], live[i+1:]...)
		case r < 18 && len(dead) > 0:
			ops = append(ops, scriptOp{id: dead[rng.Intn(len(dead))]})
		default:
			ops = append(ops, scriptOp{id: 100000 + rng.Intn(1000)})
		}
	}
	return ops
}

// The three ways to run the script. Each returns one outcome per op.

func runDirect(t *testing.T, ix *Index, ops []scriptOp) []scriptOutcome {
	out := make([]scriptOutcome, len(ops))
	for i, op := range ops {
		if op.point != nil {
			out[i].id, out[i].err = ix.Insert(op.point)
		} else {
			out[i].err = ix.Delete(op.id)
		}
	}
	return out
}

func runInsertBatch(t *testing.T, ix *Index, ops []scriptOp) []scriptOutcome {
	out := make([]scriptOutcome, len(ops))
	for i := 0; i < len(ops); {
		if ops[i].point == nil {
			out[i].err = ix.Delete(ops[i].id)
			i++
			continue
		}
		var run [][]float64
		for j := i; j < len(ops) && ops[j].point != nil; j++ {
			run = append(run, ops[j].point)
		}
		ids, err := ix.InsertBatch(run)
		if (err == nil) != (len(ids) == len(run)) {
			t.Fatalf("InsertBatch of %d returned %d ids with error %v", len(run), len(ids), err)
		}
		for j := range run {
			switch {
			case j < len(ids):
				out[i+j].id = ids[j]
			case j == len(ids):
				out[i+j].err = err
			default:
				// InsertBatch reports the inserts behind its first
				// refusal only by leaving them out of its IDs.
				out[i+j].err = fmt.Errorf("batch aborted: not attempted: %w", err)
			}
		}
		i += len(run)
	}
	return out
}

func runAsync(maxBatch int) func(*testing.T, *Index, []scriptOp) []scriptOutcome {
	return func(t *testing.T, ix *Index, ops []scriptOp) []scriptOutcome {
		aw := NewAsyncWriter(ix, AsyncConfig{MaxBatch: maxBatch})
		defer aw.Close()
		pending := make([]*Pending, len(ops))
		for i, op := range ops {
			var err error
			if op.point != nil {
				pending[i], err = aw.Insert(op.point)
			} else {
				pending[i], err = aw.Delete(op.id)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := aw.Flush(); err != nil {
			t.Fatal(err)
		}
		out := make([]scriptOutcome, len(ops))
		for i, pend := range pending {
			out[i].id, out[i].err = pend.Wait()
			if ops[i].point == nil {
				out[i].id = 0 // a delete's handle echoes its target
			}
		}
		return out
	}
}

// writeRun is everything one run of the script left behind.
type writeRun struct {
	ix       *Index
	fs       *fsx.Mem
	outcomes []scriptOutcome
}

// walBytes concatenates the durable directory's log files in name order.
func (r writeRun) walBytes(t *testing.T) []byte {
	names, err := r.fs.List()
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, name := range names {
		if strings.HasPrefix(name, "wal-") {
			b, err := r.fs.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b...)
		}
	}
	return out
}

// saveBody is the Save image up to its metrics section: the header and
// the point table. The metrics section counts fsyncs and ingest batches,
// which are what the entry points are allowed to differ in.
func (r writeRun) saveBody(t *testing.T) []byte {
	var buf bytes.Buffer
	if err := r.ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob, err := r.ix.reg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[:buf.Len()-4-len(blob)-4]
}

func writeTestOpts() Options {
	return Options{Dim: 4, Disks: 5, Replication: 1, Baseline: true, QuantileSplits: true, PageSize: 512}
}

// startWriteRun opens a durable index on a fresh in-memory directory,
// bulk-loads it, arms the write failpoint failAt bytes into the script's
// own log traffic (failAt < 0: none) and runs the script.
func startWriteRun(t *testing.T, ops []scriptOp, failAt int64, run func(*testing.T, *Index, []scriptOp) []scriptOutcome) writeRun {
	t.Helper()
	fs := fsx.NewMem()
	ix, err := openDurable(writeTestOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(uniformPoints(writeScriptBuilt, 4, 26)); err != nil {
		t.Fatal(err)
	}
	if failAt >= 0 {
		fs.FailWriteAt(fs.TotalWritten() + failAt)
	}
	return writeRun{ix: ix, fs: fs, outcomes: run(t, ix, ops)}
}

// checkAgainstModel replays the outcomes against the obvious model of
// the point table — an applied insert takes the next ID, an applied
// delete removes a live ID, a refused delete of a live ID must be an
// aborted one — and compares the model, the index, and what a reopen of
// the directory recovers. It returns the positions of the aborted ops.
func (r writeRun) checkAgainstModel(t *testing.T, ops []scriptOp) (abortedAt []int) {
	t.Helper()
	next := writeScriptBuilt
	live := make(map[int]bool)
	for id := 0; id < next; id++ {
		live[id] = true
	}
	for i, o := range r.outcomes {
		switch {
		case aborted(o.err):
			abortedAt = append(abortedAt, i)
		case ops[i].point != nil && o.err == nil:
			if o.id != next {
				t.Fatalf("op %d: insert got id %d, want %d", i, o.id, next)
			}
			live[next] = true
			next++
		case ops[i].point != nil:
			if !errors.Is(o.err, fsx.ErrInjected) {
				t.Fatalf("op %d: insert refused without an injected fault: %v", i, o.err)
			}
		case o.err == nil:
			if !live[ops[i].id] {
				t.Fatalf("op %d: delete of dead id %d succeeded", i, ops[i].id)
			}
			delete(live, ops[i].id)
		case live[ops[i].id] && !errors.Is(o.err, fsx.ErrInjected):
			t.Fatalf("op %d: delete of live id %d refused: %v", i, ops[i].id, o.err)
		}
	}
	table := tableOf(r.ix)
	if len(table) != next {
		t.Fatalf("point table has %d slots, model %d", len(table), next)
	}
	for id, p := range table {
		if (p != nil) != live[id] {
			t.Fatalf("id %d: in table %v, in model %v", id, p != nil, live[id])
		}
	}
	if err := r.ix.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	re, err := openDurable(writeTestOpts(), r.fs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tableOf(re), table) {
		t.Fatal("the reopened directory recovers a different point table")
	}
	return abortedAt
}

// TestWritePathsAreOnePipeline runs one script of inserts and deletes
// through every write entry point and requires them to be
// indistinguishable: the same per-op outcomes, log bytes, snapshot,
// trees and cell table. Then it runs the script with a write fault
// inside it and pins the abort rule of the one pipeline behind them.
func TestWritePathsAreOnePipeline(t *testing.T) {
	ops := writeScript(4)
	paths := []struct {
		name string
		run  func(*testing.T, *Index, []scriptOp) []scriptOutcome
		// minAborted and maxAborted bound the run of ops a refused
		// insert takes down with it: the rest of its batch.
		minAborted, maxAborted int
	}{
		{"insert+delete", runDirect, 0, 0},
		{"insertbatch+delete", runInsertBatch, 1, len(ops)},
		{"async-1", runAsync(1), 0, 0},
		{"async-7", runAsync(7), 0, 6},
		{"async-256", runAsync(256), 0, 255},
	}

	var ref writeRun
	for i, p := range paths {
		r := startWriteRun(t, ops, -1, p.run)
		if ab := r.checkAgainstModel(t, ops); len(ab) != 0 {
			t.Fatalf("%s: ops %v aborted without a fault", p.name, ab)
		}
		if i == 0 {
			ref = r
			continue
		}
		for j := range ops {
			if got, want := r.outcomes[j].String(), ref.outcomes[j].String(); got != want {
				t.Fatalf("%s: op %d: %s, %s has %s", p.name, j, got, paths[0].name, want)
			}
		}
		if !bytes.Equal(r.walBytes(t), ref.walBytes(t)) {
			t.Errorf("%s: log bytes differ from %s", p.name, paths[0].name)
		}
		if !bytes.Equal(r.saveBody(t), ref.saveBody(t)) {
			t.Errorf("%s: Save bytes differ from %s", p.name, paths[0].name)
		}
		if got, want := stateDigest(r.ix), stateDigest(ref.ix); got != want {
			t.Errorf("%s: build digest %s, %s has %s", p.name, got, paths[0].name, want)
		}
	}

	// The fault lands a few bytes into the record of the first insert
	// that has an insert right behind it and is past the script's
	// first quarter: the writer heals the torn append, so only the rule
	// at the pipeline's loop decides what else fails.
	victim, failAt := -1, int64(0)
	for i, op := range ops {
		if i > len(ops)/4 && op.point != nil && ops[i+1].point != nil {
			victim = i
			break
		}
		switch {
		case ref.outcomes[i].err != nil:
		case op.point != nil:
			failAt += int64(len(wal.EncodeInsert(0, op.point)))
		default:
			failAt += int64(len(wal.EncodeDelete(0)))
		}
	}
	for _, p := range paths {
		r := startWriteRun(t, ops, failAt+5, p.run)
		if err := r.outcomes[victim].err; !errors.Is(err, fsx.ErrInjected) || aborted(err) {
			t.Fatalf("%s: op %d met the fault with %v", p.name, victim, err)
		}
		for i, o := range r.outcomes {
			if i != victim && errors.Is(o.err, fsx.ErrInjected) && !aborted(o.err) {
				t.Fatalf("%s: op %d also failed on the one-shot fault: %v", p.name, i, o.err)
			}
		}
		// Whatever was aborted sits right behind the refused insert, in
		// one run no longer than the rest of a batch; everything after
		// the run — the next batch — follows the model again.
		ab := r.checkAgainstModel(t, ops)
		if len(ab) < p.minAborted || len(ab) > p.maxAborted {
			t.Fatalf("%s: %d ops aborted, want %d to %d", p.name, len(ab), p.minAborted, p.maxAborted)
		}
		for j, at := range ab {
			if at != victim+1+j {
				t.Fatalf("%s: aborted ops %v are not one run behind op %d", p.name, ab, victim)
			}
			if !errors.Is(r.outcomes[at].err, fsx.ErrInjected) {
				t.Fatalf("%s: op %d aborted without its cause: %v", p.name, at, r.outcomes[at].err)
			}
		}
	}

	// The rule itself, on batches spelled out by hand.
	fs := fsx.NewMem()
	ix, err := openDurable(writeTestOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(uniformPoints(writeScriptBuilt, 4, 26)); err != nil {
		t.Fatal(err)
	}
	point := func(i int) []float64 { return uniformPoints(1, 4, int64(300+i))[0] }
	insertLen := int64(len(wal.EncodeInsert(0, point(0))))

	// A bad-ID delete fails only itself; an insert refused by a healed
	// append fails everything behind it, deletes included.
	fs.FailWriteAt(fs.TotalWritten() + insertLen + 3)
	batch := []mutation{{point: point(0)}, {id: 99999}, {point: point(1)}, {id: 0}, {point: point(2)}}
	applied, err := ix.write(batch)
	if applied != 1 || err != nil {
		t.Fatalf("applied %d (want 1), sync error %v", applied, err)
	}
	if batch[0].err != nil || batch[0].id != writeScriptBuilt {
		t.Fatalf("first insert: %+v", batch[0])
	}
	if batch[1].err == nil || aborted(batch[1].err) || errors.Is(batch[1].err, fsx.ErrInjected) {
		t.Fatalf("bad-ID delete: %v", batch[1].err)
	}
	if !errors.Is(batch[2].err, fsx.ErrInjected) || aborted(batch[2].err) {
		t.Fatalf("refused insert: %v", batch[2].err)
	}
	for _, m := range batch[3:] {
		if !aborted(m.err) || !errors.Is(m.err, fsx.ErrInjected) {
			t.Fatalf("op behind the refused insert: %v", m.err)
		}
	}
	// The next batch succeeds. In it a delete refused by a healed
	// append is rolled back and fails only itself.
	fs.FailWriteAt(fs.TotalWritten() + insertLen)
	batch = []mutation{{point: point(3)}, {id: 0}, {point: point(4)}}
	applied, err = ix.write(batch)
	if applied != 2 || err != nil {
		t.Fatalf("applied %d (want 2), sync error %v", applied, err)
	}
	if batch[0].err != nil || batch[0].id != writeScriptBuilt+1 || batch[2].err != nil || batch[2].id != writeScriptBuilt+2 {
		t.Fatalf("inserts around the refused delete: %+v, %+v", batch[0], batch[2])
	}
	if !errors.Is(batch[1].err, fsx.ErrInjected) || aborted(batch[1].err) {
		t.Fatalf("refused delete: %v", batch[1].err)
	}
	if tableOf(ix)[0] == nil {
		t.Fatal("the refused delete took its point")
	}
	if err := ix.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if applied, _ := ix.write(batch); applied != 0 || !errors.Is(batch[0].err, ErrClosed) || !errors.Is(batch[2].err, ErrClosed) {
		t.Fatalf("closed index: applied %d, %v", applied, batch[0].err)
	}
}

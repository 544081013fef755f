package parsearch

import (
	"errors"
	"reflect"
	"testing"

	"parsearch/internal/data"
	"parsearch/internal/fsx"
)

func TestInsertBatchAssignsSequentialIDs(t *testing.T) {
	ix, err := Open(Options{Dim: 3, Disks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(uniformPoints(10, 3, 1)); err != nil {
		t.Fatal(err)
	}
	batch := uniformPoints(25, 3, 2)
	ids, err := ix.InsertBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if id != 10+i {
			t.Fatalf("id[%d] = %d, want %d", i, id, 10+i)
		}
	}
	if ix.Len() != 35 {
		t.Fatalf("Len = %d, want 35", ix.Len())
	}
	if err := ix.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if got := ix.Metrics().IngestBatches; got != 1 {
		t.Fatalf("ingest_batches = %d, want 1", got)
	}
	// Empty and mismatched batches.
	if ids, err := ix.InsertBatch(nil); ids != nil || err != nil {
		t.Fatalf("empty batch: ids %v, err %v", ids, err)
	}
	if _, err := ix.InsertBatch([][]float64{{1, 2}}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestInsertBatchDurableGroupCommit(t *testing.T) {
	fs := fsx.NewMem()
	ix, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]float64, 40)
	for i := range batch {
		batch[i] = durPoint(i, 3)
	}
	if _, err := ix.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	// SyncAlways: the whole batch is durable when InsertBatch returns.
	if lag := ix.Durability().WALLagBytes; lag != 0 {
		t.Fatalf("WAL lag %d bytes after acknowledged batch", lag)
	}
	want := tableOf(ix)
	re, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if got := tableOf(re); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered table differs from batched inserts")
	}
	// The batch rides the log as individual records (log-before-apply
	// per mutation), but costs one group commit, not forty.
	if re.Recovery().Records < 40 {
		t.Fatalf("recovery saw %d records, want >= 40", re.Recovery().Records)
	}
}

func TestInsertBatchAppliedPrefixOnWALFailure(t *testing.T) {
	fs := fsx.NewMem()
	ix, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(durPoint(0, 3)); err != nil {
		t.Fatal(err)
	}
	// Fail a write somewhere inside the batch's log traffic.
	fs.FailWriteAt(fs.TotalWritten() + 40)
	batch := make([][]float64, 30)
	for i := range batch {
		batch[i] = durPoint(100+i, 3)
	}
	ids, err := ix.InsertBatch(batch)
	if err == nil {
		t.Fatal("batch across an injected write error reported full success")
	}
	if len(ids) > len(batch) {
		t.Fatalf("returned %d ids for a %d-point batch", len(ids), len(batch))
	}
	// The applied prefix is real: it is in the index and queryable.
	if got, want := ix.Len(), 1+len(ids); got != want {
		t.Fatalf("Len = %d, want %d (initial + applied prefix)", got, want)
	}
	if err := ix.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncWriterAcksAndFlushes(t *testing.T) {
	ix, err := Open(Options{Dim: 3, Disks: 4})
	if err != nil {
		t.Fatal(err)
	}
	aw := NewAsyncWriter(ix, AsyncConfig{MaxBatch: 8})
	defer aw.Close()

	pts := data.Uniform(60, 3, 9)
	pending := make([]*Pending, len(pts))
	for i, p := range pts {
		pend, err := aw.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		pending[i] = pend
	}
	if err := aw.Flush(); err != nil {
		t.Fatal(err)
	}
	ids := make(map[int]bool)
	for i, pend := range pending {
		select {
		case <-pend.Done():
		default:
			t.Fatalf("pending %d unresolved after Flush", i)
		}
		id, err := pend.Wait()
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if ids[id] {
			t.Fatalf("id %d assigned twice", id)
		}
		ids[id] = true
	}
	if ix.Len() != len(pts) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(pts))
	}

	// Deletes resolve per-op: a bogus id fails on its own handle
	// without poisoning the rest of the batch.
	good, err := aw.Delete(0)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := aw.Delete(99999)
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := good.Wait(); err != nil {
		t.Fatalf("valid delete: %v", err)
	}
	if _, err := bad.Wait(); err == nil {
		t.Fatal("delete of a nonexistent id acked success")
	}
	if ix.Len() != len(pts)-1 {
		t.Fatalf("Len = %d after delete, want %d", ix.Len(), len(pts)-1)
	}
	if err := ix.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}

	// StageIngest carries the mutations applied: three inserts, a delete
	// of an unknown ID and a Flush barrier in one batch are one event
	// with Results 3. This writer has no worker — the test takes the
	// worker's one step itself, so the batch is exactly these five.
	rec := &recordTracer{}
	traced, err := Open(Options{Dim: 3, Disks: 4, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	hand := &AsyncWriter{ix: traced, maxBatch: 8, ops: make(chan asyncOp, 8)}
	for _, p := range pts[:3] {
		if _, err := hand.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := hand.Delete(99999); err != nil {
		t.Fatal(err)
	}
	barrier, err := hand.enqueue(asyncOp{flush: true})
	if err != nil {
		t.Fatal(err)
	}
	hand.apply(hand.fill(<-hand.ops))
	if _, err := barrier.Wait(); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	var ingests []int
	for _, ev := range rec.events {
		if ev.Stage == StageIngest {
			ingests = append(ingests, ev.Results)
		}
	}
	if !reflect.DeepEqual(ingests, []int{3}) {
		t.Fatalf("ingest events carry %v applied mutations, want one event with 3", ingests)
	}
	if got := traced.Metrics().IngestBatches; got != 1 {
		t.Fatalf("ingest_batches = %d, want 1", got)
	}
	// A batch that applies nothing — a refused delete and a barrier —
	// is no ingest batch and emits no event.
	if _, err := hand.Delete(99999); err != nil {
		t.Fatal(err)
	}
	if _, err := hand.enqueue(asyncOp{flush: true}); err != nil {
		t.Fatal(err)
	}
	hand.apply(hand.fill(<-hand.ops))
	if got := traced.Metrics().IngestBatches; got != 1 || len(rec.events) != 1 {
		t.Fatalf("a batch that applied nothing left ingest_batches = %d and %d events", got, len(rec.events))
	}
}

func TestAsyncWriterDurableAckIsDurable(t *testing.T) {
	fs := fsx.NewMem()
	ix, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	aw := NewAsyncWriter(ix, AsyncConfig{MaxBatch: 16})
	var pending []*Pending
	for i := 0; i < 30; i++ {
		pend, err := aw.Insert(durPoint(i, 3))
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, pend)
	}
	for _, pend := range pending {
		if _, err := pend.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	// Every acknowledged mutation recovers — no Close of the index, so
	// this is entirely the group commits' doing.
	re, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 30 {
		t.Fatalf("recovered %d points, want 30", re.Len())
	}
}

func TestAsyncWriterCloseRefusesNewWork(t *testing.T) {
	ix, err := Open(Options{Dim: 3, Disks: 2})
	if err != nil {
		t.Fatal(err)
	}
	aw := NewAsyncWriter(ix, AsyncConfig{})
	if _, err := aw.Insert([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := aw.Insert([]float64{4, 5, 6}); !errors.Is(err, ErrClosed) {
		t.Fatalf("insert after Close: %v, want ErrClosed", err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal("Close is not idempotent")
	}
	// The accepted insert was drained before Close returned.
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (accepted op drained on Close)", ix.Len())
	}
}

func TestAsyncWriterValidatesDimension(t *testing.T) {
	ix, err := Open(Options{Dim: 3, Disks: 2})
	if err != nil {
		t.Fatal(err)
	}
	aw := NewAsyncWriter(ix, AsyncConfig{})
	defer aw.Close()
	if _, err := aw.Insert([]float64{1}); err == nil {
		t.Fatal("wrong-dimension insert accepted")
	}
}

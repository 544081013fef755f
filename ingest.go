package parsearch

import (
	"context"
	"fmt"
	"sync"

	"parsearch/internal/vec"
)

// Batched async ingest: the serving-while-mutating write path. A batch
// of mutations is logged record by record (log-before-apply preserved —
// every record hits the WAL before its in-memory apply), applied to the
// trees under one metadata-lock hold, and acknowledged by a single group
// commit to the batch's last log offset, so the per-mutation fsync cost
// is amortized across the whole batch. Queries keep running throughout:
// the batch holds the same read-side locks as a single Insert.
//
// InsertBatch is the synchronous form; AsyncWriter decouples producers
// from the apply/fsync path entirely — mutations are enqueued (with
// bounded-queue backpressure), a background worker drains them in
// batches, and each mutation carries a Pending handle that is resolved
// once its batch is durable.

// InsertBatch adds the given vectors and returns their IDs, in order.
// The whole batch is applied under one lock hold and — on a durable
// index with WALSyncAlways — acknowledged by a single group commit, so
// ingesting n vectors costs one fsync, not n.
//
// On error the returned IDs are the applied prefix: those vectors are
// in the index (and logged); the rest of the batch was not attempted.
func (ix *Index) InsertBatch(points [][]float64) ([]int, error) {
	for i, p := range points {
		if len(p) != ix.opts.Dim {
			return nil, fmt.Errorf("parsearch: batch point %d has dimension %d, want %d", i, len(p), ix.opts.Dim)
		}
	}
	if len(points) == 0 {
		return nil, nil
	}
	ops := make([]mutation, len(points))
	for i, p := range points {
		ops[i].point = vec.Clone(p)
	}
	syncErr := ix.ingest(ops)
	ids := make([]int, 0, len(ops))
	for i := range ops {
		if ops[i].err != nil {
			return ids, ops[i].err
		}
		ids = append(ids, ops[i].id)
	}
	return ids, syncErr
}

// ingest runs one batch through the write pipeline as a batched-ingest
// group commit: a batch that applied something counts in IngestBatches
// and emits one StageIngest event carrying the mutations applied.
func (ix *Index) ingest(ops []mutation) error {
	applied, err := ix.write(ops)
	if applied > 0 {
		ix.reg.IngestBatches.Inc()
		sp := ix.newSpan(context.Background(), "ingest")
		sp.emit(TraceEvent{Stage: StageIngest, Disk: -1, Item: -1, Results: applied})
	}
	return err
}

// AsyncConfig tunes an AsyncWriter.
type AsyncConfig struct {
	// MaxBatch bounds the mutations applied (and synced) per group
	// commit. Default 256.
	MaxBatch int
	// MaxPending bounds the enqueued-but-unapplied mutations; a full
	// queue blocks the producer (backpressure). Default 4 × MaxBatch.
	MaxPending int
}

// Pending is the acknowledgement handle of one asynchronous mutation.
type Pending struct {
	id   int
	err  error
	done chan struct{}
}

// Done returns a channel closed when the mutation is resolved.
func (p *Pending) Done() <-chan struct{} { return p.done }

// Wait blocks until the mutation is applied and — on a durable index
// with WALSyncAlways — durable, then returns the assigned ID (inserts
// only) and the outcome.
func (p *Pending) Wait() (int, error) {
	<-p.done
	return p.id, p.err
}

// asyncOp is one queued mutation, or — flush set — a Flush barrier token.
type asyncOp struct {
	pend  *Pending
	mut   mutation
	flush bool
}

// AsyncWriter applies mutations to an index in amortized batches off the
// callers' path. Producers enqueue from any goroutine; one background
// worker greedily drains the queue into batches of at most MaxBatch,
// applies each batch under a single lock hold, and resolves the batch's
// Pending handles after its group commit. Ordering is the enqueue order.
type AsyncWriter struct {
	ix       *Index
	maxBatch int
	ops      chan asyncOp
	quit     chan struct{}
	closedMu sync.RWMutex // guards closed against racing enqueues
	closed   bool
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewAsyncWriter starts an ingest pipeline over the index. Close it to
// drain and stop the worker; the index itself stays open.
func NewAsyncWriter(ix *Index, cfg AsyncConfig) *AsyncWriter {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 4 * cfg.MaxBatch
	}
	aw := &AsyncWriter{
		ix:       ix,
		maxBatch: cfg.MaxBatch,
		ops:      make(chan asyncOp, cfg.MaxPending),
		quit:     make(chan struct{}),
	}
	aw.wg.Add(1)
	go aw.run()
	return aw
}

// Insert enqueues one vector, blocking while the queue is full. The
// returned handle resolves to the assigned ID once the insert's batch is
// applied and synced.
func (aw *AsyncWriter) Insert(p []float64) (*Pending, error) {
	if len(p) != aw.ix.opts.Dim {
		return nil, fmt.Errorf("parsearch: inserting dimension %d, want %d", len(p), aw.ix.opts.Dim)
	}
	// Clone at the enqueue boundary: the caller may reuse its slice
	// before the worker gets to the batch.
	return aw.enqueue(asyncOp{mut: mutation{point: vec.Clone(p)}})
}

// Delete enqueues one delete by ID. Validation happens at apply time (a
// concurrent earlier queued delete of the same ID is only visible then),
// so "no such vector" errors surface on the handle, not here.
func (aw *AsyncWriter) Delete(id int) (*Pending, error) {
	return aw.enqueue(asyncOp{mut: mutation{id: id}})
}

// Flush enqueues a barrier and blocks until every mutation enqueued
// before it is applied (and, with WALSyncAlways, durable). Individual
// outcomes stay on the per-mutation handles; Flush itself only fails
// when the writer is closed.
func (aw *AsyncWriter) Flush() error {
	p, err := aw.enqueue(asyncOp{flush: true})
	if err != nil {
		return err
	}
	<-p.done
	return nil
}

// Close drains the accepted mutations, resolves their handles, and stops
// the worker. Enqueues from the moment Close starts are refused with
// ErrClosed; every previously accepted handle still resolves.
func (aw *AsyncWriter) Close() error {
	aw.stopOnce.Do(func() {
		// Taking the write lock waits out in-flight enqueues, so by the
		// time quit closes, everything accepted is in the queue and the
		// worker's final drain resolves it.
		aw.closedMu.Lock()
		aw.closed = true
		aw.closedMu.Unlock()
		close(aw.quit)
	})
	aw.wg.Wait()
	return nil
}

// enqueue submits one op, blocking for backpressure while the queue is
// full, and returns its handle. The read lock spans the send: a full
// queue only blocks while the worker is draining it, and Close cannot
// slip between the closed check and the send.
func (aw *AsyncWriter) enqueue(op asyncOp) (*Pending, error) {
	aw.closedMu.RLock()
	defer aw.closedMu.RUnlock()
	if aw.closed {
		return nil, ErrClosed
	}
	op.pend = &Pending{done: make(chan struct{})}
	aw.ops <- op
	return op.pend, nil
}

// run is the worker loop: batch, apply, resolve, repeat; on Close, drain
// what was accepted and exit.
func (aw *AsyncWriter) run() {
	defer aw.wg.Done()
	for {
		select {
		case op := <-aw.ops:
			aw.apply(aw.fill(op))
		case <-aw.quit:
			for {
				select {
				case op := <-aw.ops:
					aw.apply(aw.fill(op))
				default:
					return
				}
			}
		}
	}
}

// fill greedily extends a batch with whatever is already queued, up to
// MaxBatch. No timers: a lone mutation is applied immediately, a burst
// is batched — latency is never traded for batching.
func (aw *AsyncWriter) fill(first asyncOp) []asyncOp {
	batch := make([]asyncOp, 1, aw.maxBatch)
	batch[0] = first
	for len(batch) < aw.maxBatch {
		select {
		case op := <-aw.ops:
			batch = append(batch, op)
		default:
			return batch
		}
	}
	return batch
}

// apply runs one drained batch through the write pipeline and resolves
// every handle: each mutation with its own outcome — or, if the batch
// applied but did not sync, the sync error — exactly the applied-prefix
// semantics of InsertBatch. Barrier tokens never enter the pipeline;
// they resolve with their batch.
func (aw *AsyncWriter) apply(batch []asyncOp) {
	ops := make([]mutation, 0, len(batch))
	for i := range batch {
		if !batch[i].flush {
			ops = append(ops, batch[i].mut)
		}
	}
	syncErr := aw.ix.ingest(ops)
	next := 0
	for i := range batch {
		pend := batch[i].pend
		if !batch[i].flush {
			if m := &ops[next]; m.err == nil {
				pend.id, pend.err = m.id, syncErr
			} else {
				pend.err = m.err
			}
			next++
		}
		close(pend.done)
	}
}

package parsearch

import (
	"fmt"
	"math"

	"parsearch/internal/vec"
	"parsearch/internal/wal"
	"parsearch/internal/xtree"
)

// This file is the point-mutation stage: every Insert, Delete,
// InsertBatch and AsyncWriter group commit is a batch of mutations run
// through one step, write — logged (on durable indexes) and applied
// under the metadata lock, then published as one version, while queries
// keep running on the version before it.

// mutation is one point mutation on its way through write: an insert of
// point when point is set (write fills in the assigned id), a delete of
// id otherwise. err is the op's own outcome.
type mutation struct {
	point vec.Point
	id    int
	err   error
}

// Insert adds one vector dynamically and returns its ID. Point mutations
// are serialized with each other but run concurrently with queries. On a
// durable index the insert is logged (and, with WALSyncAlways, fsynced
// via group commit) before it returns.
func (ix *Index) Insert(p []float64) (int, error) {
	if len(p) != ix.opts.Dim {
		return 0, fmt.Errorf("parsearch: inserting dimension %d, want %d", len(p), ix.opts.Dim)
	}
	op := [1]mutation{{point: vec.Clone(p)}}
	_, syncErr := ix.write(op[:])
	if err := firstErr(op[0].err, syncErr); err != nil {
		return 0, err
	}
	return op[0].id, nil
}

// Delete removes the vector with the given ID. The ID is not reused;
// subsequent inserts continue from the highest ID ever assigned. On a
// durable index the delete is logged like an insert (see Insert).
func (ix *Index) Delete(id int) error {
	op := [1]mutation{{id: id}}
	_, err := ix.write(op[:])
	return firstErr(op[0].err, err)
}

// firstErr returns the op's own refusal, else the batch's sync failure.
func firstErr(opErr, syncErr error) error {
	if opErr != nil {
		return opErr
	}
	return syncErr
}

// write is the one write pipeline. It takes rotMu (durable indexes) in
// read mode and meta, logs and applies the ops in order — each by its
// own contract, see insertOne and deleteOne — publishes the state the
// batch left (Index.publish), releases meta, and waits once for the
// group commit of the batch's last log offset. Every
// op's outcome is left in its err (and, for an insert, its id); applied
// counts the ops that took effect. The returned error is the sync
// failure of a batch that was applied.
func (ix *Index) write(ops []mutation) (applied int, err error) {
	if ix.opts.Durable {
		ix.rotMu.RLock()
		defer ix.rotMu.RUnlock()
	}
	ix.meta.Lock()
	st := ix.st
	// rotMu pins the writer for the whole step: a checkpoint may rotate
	// it concurrently — its cut, under meta, syncs our appends first —
	// but a Build cannot replace the generation under us.
	w := ix.wal
	var target int64
	var aborted error
	for i := range ops {
		op := &ops[i]
		var t int64
		switch {
		case ix.closed:
			op.err = ErrClosed
		case aborted != nil:
			op.err = fmt.Errorf("parsearch: batch aborted: %w", aborted)
		case op.point != nil:
			// A refused insert aborts every op after it: the caller
			// numbered or ordered them on the assumption it applied
			// (InsertBatch returns an applied prefix).
			if op.id, t, op.err = ix.insertOne(st, w, op.point); op.err != nil {
				aborted = op.err
			}
		default:
			// A refused delete aborts the rest only if the writer is
			// failed. "The append was refused" is not the test: the
			// writer heals a failed append by truncating the partial
			// frame and stays usable, and then — as with a bad ID, the
			// caller's error and nobody else's — the next op is free to
			// succeed.
			if t, op.err = ix.deleteOne(st, w, op.id); op.err != nil && w != nil && w.Err() != nil {
				aborted = op.err
			}
		}
		if op.err == nil {
			applied++
			target = t
		}
	}
	if applied > 0 {
		ix.publish(st)
	}
	ix.meta.Unlock()
	// The sync wait happens after meta is released, so concurrent
	// mutations share fsyncs (group commit) instead of serializing
	// behind them.
	if applied > 0 && w != nil && w.Policy() == wal.SyncAlways {
		if err := w.SyncTo(target); err != nil {
			// The batch is applied in memory but its durability is
			// unknown; the writer is sticky-failed, so every further
			// mutation will be refused rather than silently undurable.
			return applied, fmt.Errorf("parsearch: syncing mutations: %w", err)
		}
	}
	return applied, nil
}

// insertOne logs and applies one insert of point, which the pipeline
// owns (the entry point cloned it), and returns its ID and log offset.
// A point with a NaN or infinite component, as stored, is refused: its
// distances rank nothing, and its MBRs break the trees' invariants.
// The caller — write — holds rotMu in read mode (durable indexes) and
// meta, has verified the index is open and the dimension
// matches, and waits for the group commit after releasing meta.
func (ix *Index) insertOne(st *state, w *wal.Writer, point vec.Point) (id int, target int64, err error) {
	id = ix.tbl.len()
	if id > math.MaxInt32 {
		return 0, 0, fmt.Errorf("parsearch: the ID space is full at %d", id)
	}
	canon(point)
	if i := nonFinite(point); i >= 0 {
		return 0, 0, fmt.Errorf("parsearch: insert component %d is %v, not finite", i, point[i])
	}
	// Log before apply: a failed append leaves both the log and the
	// index untouched, and the apply below cannot fail.
	if w != nil {
		target, err = w.AppendAsync(wal.EncodeInsert(uint64(id), point))
		if err != nil {
			return 0, 0, fmt.Errorf("parsearch: logging insert: %w", err)
		}
	}
	ix.tbl.add(point)
	ix.live++
	if ix.opts.QuantileSplits {
		ix.observer().Observe(point)
	}
	d, key := ix.assignCell(st, id, point)
	addToCell(st, key, d, point)
	st.place(d, point, id)
	if st.baseline != nil {
		st.baseline.Insert(point, id)
	}
	return id, target, nil
}

// deleteOne applies and logs one delete and returns its log offset.
// Locking contract as insertOne.
func (ix *Index) deleteOne(st *state, w *wal.Writer, id int) (target int64, err error) {
	if !ix.tbl.has(id) {
		return 0, fmt.Errorf("parsearch: no vector with id %d", id)
	}
	p := ix.tbl.point(id, make(vec.Point, ix.opts.Dim))
	// Apply to the trees BEFORE logging: the tree deletes are the only
	// remaining failure modes, and a delete record must never become
	// durable unless the delete is actually applied — otherwise a
	// failed delete would silently reappear as applied after recovery.
	// (Insert logs first because its apply cannot fail.) Log order
	// still matches commit order: both happen under meta.
	d, key := ix.assignCell(st, id, p)
	if err := st.take(d, p, id); err != nil {
		return 0, err
	}
	if st.baseline != nil {
		st.baseline.Delete(p, id)
	}
	if w != nil {
		target, err = w.AppendAsync(wal.EncodeDelete(uint64(id)))
		if err != nil {
			// The delete was refused, not applied: roll the trees back
			// so memory, the log, and the error agree.
			st.place(d, p, id)
			if st.baseline != nil {
				st.baseline.Insert(p, id)
			}
			return 0, fmt.Errorf("parsearch: logging delete: %w", err)
		}
	}
	if idx, ok := st.cellIndex[key]; ok && st.cells[idx].count > 0 {
		st.cells[idx].count--
	}
	ix.tbl.kill(id)
	ix.live--
	return target, nil
}

// copies returns the trees that store disk d's points: the primary
// and, on a replicated index, the chained replica. The baseline tree is
// disk-agnostic and stays the callers'. A fixed-size array, so the
// per-mutation path allocates nothing for it.
func (st *state) copies(d int) ([2]*xtree.Tree, int) {
	c := [2]*xtree.Tree{st.shards[d]}
	if st.replicas == nil {
		return c, 1
	}
	c[1] = st.replicas[replicaOf(d, len(st.shards))]
	return c, 2
}

// place stores the point in every copy of disk d. The trees are no
// longer the ones a build makes (state.asBuilt), nor after take.
func (st *state) place(d int, p vec.Point, id int) {
	st.asBuilt = false
	c, n := st.copies(d)
	for _, t := range c[:n] {
		t.Insert(p, id)
	}
}

// take removes the point from every copy of disk d, or from none: when
// a copy does not hold it, the copies already changed are restored so
// the failed removal leaves no trace.
func (st *state) take(d int, p vec.Point, id int) error {
	st.asBuilt = false
	c, n := st.copies(d)
	for i, t := range c[:n] {
		if !t.Delete(p, id) {
			for _, undo := range c[:i] {
				undo.Insert(p, id)
			}
			return fmt.Errorf("parsearch: internal inconsistency: id %d not found in copy %d of disk %d", id, i, d)
		}
	}
	return nil
}

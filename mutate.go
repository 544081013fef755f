package parsearch

import (
	"fmt"

	"parsearch/internal/vec"
	"parsearch/internal/wal"
)

// This file is the point-mutation stage: Insert and Delete, logged
// (on durable indexes) and applied under the metadata lock while queries
// keep running.

// Insert adds one vector dynamically and returns its ID. Point mutations
// are serialized with each other but run concurrently with queries. On a
// durable index the insert is logged (and, with WALSyncAlways, fsynced
// via group commit) before it returns.
func (ix *Index) Insert(p []float64) (int, error) {
	if len(p) != ix.opts.Dim {
		return 0, fmt.Errorf("parsearch: inserting dimension %d, want %d", len(p), ix.opts.Dim)
	}
	if ix.opts.Durable {
		ix.rotMu.RLock()
		defer ix.rotMu.RUnlock()
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	st := ix.st
	ix.meta.Lock()
	if ix.closed {
		ix.meta.Unlock()
		return 0, ErrClosed
	}
	id, w, target, err := ix.insertOne(st, p)
	ix.meta.Unlock()
	if err != nil {
		return 0, err
	}
	if w != nil && w.Policy() == wal.SyncAlways {
		if err := w.SyncTo(target); err != nil {
			// The mutation is applied in memory but its durability is
			// unknown; the writer is sticky-failed, so every further
			// mutation will be refused rather than silently undurable.
			return 0, fmt.Errorf("parsearch: syncing insert: %w", err)
		}
	}
	return id, nil
}

// insertOne logs and applies one insert. The caller holds rotMu in read
// mode (durable indexes), mu in read mode, and meta, has verified the
// index is open and the dimension matches, and waits for the group
// commit (SyncTo(target) on the returned writer) after releasing meta.
// Batched ingest shares this primitive: a whole batch is applied under
// one meta hold and acknowledged by a single sync to the last target.
func (ix *Index) insertOne(st *state, p []float64) (id int, w *wal.Writer, target int64, err error) {
	id = len(ix.points)
	point := vec.Clone(p)
	ix.canonPacked(point)
	// Log before apply: a failed append leaves both the log and the
	// index untouched. The sync wait happens after meta is released, so
	// concurrent mutations share fsyncs (group commit) instead of
	// serializing behind them. rotMu (held in read mode) pins the
	// writer: a checkpoint may rotate it concurrently — its cut syncs
	// this append first — but a Build cannot replace the generation
	// under us.
	w = ix.wal
	if w != nil {
		target, err = w.AppendAsync(wal.EncodeInsert(uint64(id), point))
		if err != nil {
			return 0, nil, 0, fmt.Errorf("parsearch: logging insert: %w", err)
		}
	}
	ix.points = append(ix.points, point)
	ix.live++
	ix.version++
	if ix.opts.QuantileSplits {
		ix.observer().Observe(point)
	}
	d, key := ix.assignCell(st, id, point)
	addToCell(st, key, d, point)
	sh := st.shards[d]
	sh.mu.Lock()
	sh.tree.Insert(point, id)
	sh.mu.Unlock()
	if st.replicas != nil {
		rsh := st.replicas[replicaOf(d, ix.opts.Disks)]
		rsh.mu.Lock()
		rsh.tree.Insert(point, id)
		rsh.mu.Unlock()
	}
	if st.baseline != nil {
		st.baseline.mu.Lock()
		st.baseline.tree.Insert(point, id)
		st.baseline.mu.Unlock()
	}
	return id, w, target, nil
}

// Delete removes the vector with the given ID. The ID is not reused;
// subsequent inserts continue from the highest ID ever assigned. On a
// durable index the delete is logged like an insert (see Insert).
func (ix *Index) Delete(id int) error {
	if ix.opts.Durable {
		ix.rotMu.RLock()
		defer ix.rotMu.RUnlock()
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	w, target, err := ix.deleteLocked(id)
	if err != nil {
		return err
	}
	if w != nil && w.Policy() == wal.SyncAlways {
		if err := w.SyncTo(target); err != nil {
			// Applied in memory, durability unknown; the writer is
			// sticky-failed (see Insert).
			return fmt.Errorf("parsearch: syncing delete: %w", err)
		}
	}
	return nil
}

// deleteLocked validates, logs, and applies one delete under the
// metadata lock; the caller waits for the group commit off the lock.
func (ix *Index) deleteLocked(id int) (*wal.Writer, int64, error) {
	st := ix.st
	ix.meta.Lock()
	defer ix.meta.Unlock()
	if ix.closed {
		return nil, 0, ErrClosed
	}
	return ix.deleteOne(st, id)
}

// deleteOne applies and logs one delete. Locking contract as insertOne.
func (ix *Index) deleteOne(st *state, id int) (*wal.Writer, int64, error) {
	if id < 0 || id >= len(ix.points) || ix.points[id] == nil {
		return nil, 0, fmt.Errorf("parsearch: no vector with id %d", id)
	}
	p := ix.points[id]
	// Apply to the trees BEFORE logging: the tree deletes are the only
	// remaining failure modes, and a delete record must never become
	// durable unless the delete is actually applied — otherwise a
	// failed delete would silently reappear as applied after recovery.
	// (Insert logs first because its apply cannot fail.) Log order
	// still matches commit order: both happen under meta.
	d, key := ix.assignCell(st, id, p)
	sh := st.shards[d]
	sh.mu.Lock()
	ok := sh.tree.Delete(p, id)
	sh.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("parsearch: internal inconsistency: id %d not found on disk %d", id, d)
	}
	var rsh *shard
	if st.replicas != nil {
		r := replicaOf(d, ix.opts.Disks)
		rsh = st.replicas[r]
		rsh.mu.Lock()
		ok := rsh.tree.Delete(p, id)
		rsh.mu.Unlock()
		if !ok {
			// Undo the primary so the failed delete leaves no trace.
			sh.mu.Lock()
			sh.tree.Insert(p, id)
			sh.mu.Unlock()
			return nil, 0, fmt.Errorf("parsearch: internal inconsistency: id %d not found in disk %d's replica on disk %d", id, d, r)
		}
	}
	if st.baseline != nil {
		st.baseline.mu.Lock()
		st.baseline.tree.Delete(p, id)
		st.baseline.mu.Unlock()
	}
	w := ix.wal
	var target int64
	if w != nil {
		var werr error
		target, werr = w.AppendAsync(wal.EncodeDelete(uint64(id)))
		if werr != nil {
			// The delete was refused, not applied: roll the trees back
			// so memory, the log, and the error agree.
			sh.mu.Lock()
			sh.tree.Insert(p, id)
			sh.mu.Unlock()
			if rsh != nil {
				rsh.mu.Lock()
				rsh.tree.Insert(p, id)
				rsh.mu.Unlock()
			}
			if st.baseline != nil {
				st.baseline.mu.Lock()
				st.baseline.tree.Insert(p, id)
				st.baseline.mu.Unlock()
			}
			return nil, 0, fmt.Errorf("parsearch: logging delete: %w", werr)
		}
	}
	if idx, ok := st.cellIndex[key]; ok && st.cells[idx].count > 0 {
		st.cells[idx].count--
	}
	ix.points[id] = nil
	ix.live--
	ix.version++
	return w, target, nil
}

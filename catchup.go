package parsearch

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"

	"parsearch/internal/fsx"
)

// Snapshot+delta shipping: a cold replica (or a restarted parsearchd)
// catches up from a leader's durable directory contents instead of
// re-ingesting everything. The leader serves, per request, the byte
// suffix of the generation chain the follower is missing: if the
// follower's newest WAL generation is still on the leader, the delta is
// just the new log bytes (plus any newer generations in full); if the
// follower is too far behind — its generation was pruned — the leader
// resets it to the newest snapshot plus the logs above it. Applying the
// delta to the follower's directory yields a prefix of the leader's
// durable state that Open's standard recovery replays; repeated rounds
// converge to the leader's synced cut.
//
// The protocol ships only bytes the leader has made durable (the synced
// WAL prefix), so a follower can never get ahead of what the leader
// would itself recover to after a crash.

// CatchupFile is one file fragment of a delta: Data belongs at Offset
// of Name (Offset 0 creates/replaces the file).
type CatchupFile struct {
	Name   string `json:"name"`
	Offset int64  `json:"offset"`
	Data   []byte `json:"data"`
}

// CatchupDelta is a leader's answer to one catch-up round.
type CatchupDelta struct {
	// Gen is the leader's current generation; NextOffset the synced
	// length of wal-Gen the delta reaches. A follower polls with
	// (have=true, Gen, NextOffset) for the next round.
	Gen        uint64 `json:"gen"`
	NextOffset int64  `json:"next_offset"`
	// Reset reports that the follower's chain position was unusable
	// (never seeded, diverged, or pruned): the delta replaces the
	// follower's durable files instead of extending them.
	Reset bool `json:"reset,omitempty"`
	// Files are applied in order.
	Files []CatchupFile `json:"files"`
}

// Catchup serves one catch-up round from this index's durable
// directory. A follower that has no state passes have=false; otherwise
// gen/offset name the follower's newest WAL generation and its local
// length. The call runs under the checkpoint lock, so the served chain
// cannot rotate or be pruned mid-read; queries and mutations are not
// blocked (mutations appended after the synced cut simply ride the next
// round).
func (ix *Index) Catchup(have bool, gen uint64, offset int64) (CatchupDelta, error) {
	if !ix.opts.Durable {
		return CatchupDelta{}, fmt.Errorf("parsearch: Catchup on a non-durable index")
	}
	if offset < 0 {
		return CatchupDelta{}, fmt.Errorf("parsearch: negative catch-up offset %d", offset)
	}
	ix.ckptMu.Lock()
	defer ix.ckptMu.Unlock()

	ix.meta.Lock()
	w, cur := ix.wal, ix.gen
	ix.meta.Unlock()
	// Everything up to the cut is durable on the leader and safe to
	// ship. (On a closed index the writer is fully synced already and
	// Sync is a no-op.)
	if err := w.Sync(); err != nil {
		return CatchupDelta{}, fmt.Errorf("parsearch: syncing wal for catch-up: %w", err)
	}
	cut := w.Synced()

	delta := CatchupDelta{Gen: cur, NextOffset: cut}
	ok := false
	if have && gen <= cur {
		var err error
		if delta.Files, ok, err = ix.catchupTail(gen, offset, cur, cut); err != nil {
			return CatchupDelta{}, err
		}
		// Not ok: the follower's position is gone or diverged.
	}
	if !ok {
		// Reset: the newest snapshot at or below the current generation,
		// plus every log above it. With no snapshot at all the chain
		// starts at wal-0, which always exists.
		delta.Reset = true
		base, haveSnap, err := ix.newestSnapshot(cur)
		if err != nil {
			return CatchupDelta{}, err
		}
		if haveSnap {
			data, err := ix.fs.ReadFile(snapName(base))
			if err != nil {
				return CatchupDelta{}, fmt.Errorf("parsearch: reading %s for catch-up: %w", snapName(base), err)
			}
			delta.Files = append(delta.Files, CatchupFile{Name: snapName(base), Data: data})
		} else {
			base = 0
		}
		files, ok, err := ix.catchupTail(base, 0, cur, cut)
		if err != nil {
			return CatchupDelta{}, err
		}
		if !ok {
			return CatchupDelta{}, fmt.Errorf("parsearch: generation chain %d..%d incomplete during catch-up", base, cur)
		}
		delta.Files = append(delta.Files, files...)
	}
	var total int64
	for _, f := range delta.Files {
		total += int64(len(f.Data))
	}
	ix.reg.CatchupBytes.Add(total)
	sp := ix.newSpan(context.Background(), "catchup")
	sp.emit(TraceEvent{Stage: StageCatchup, Disk: -1, Item: -1,
		Results: len(delta.Files), Pages: int(total)})
	return delta, nil
}

// catchupTail collects wal-from[offset:] through wal-cur[:cut]. ok is
// false when the follower's position cannot be extended: wal-from was
// pruned, or the follower's file is longer than the leader's (the
// leader truncated a torn tail the follower had already copied).
// Caller holds ckptMu.
func (ix *Index) catchupTail(from uint64, offset int64, cur uint64, cut int64) ([]CatchupFile, bool, error) {
	var files []CatchupFile
	for g := from; g <= cur; g++ {
		data, err := ix.fs.ReadFile(walName(g))
		if err != nil {
			if g == from && errors.Is(err, fs.ErrNotExist) {
				return nil, false, nil // pruned below the follower
			}
			return nil, false, fmt.Errorf("parsearch: reading %s for catch-up: %w", walName(g), err)
		}
		end := int64(len(data))
		if g == cur && cut < end {
			// Never ship bytes beyond the synced cut: the leader itself
			// would not recover them after a crash.
			end = cut
		}
		start := int64(0)
		if g == from {
			start = offset
			if start > end {
				return nil, false, nil // diverged (leader shorter than follower)
			}
		}
		if start < end || g > from {
			files = append(files, CatchupFile{Name: walName(g), Offset: start, Data: data[start:end]})
		}
	}
	return files, true, nil
}

// newestSnapshot returns the highest snapshot generation at or below
// max. Caller holds ckptMu.
func (ix *Index) newestSnapshot(max uint64) (gen uint64, ok bool, err error) {
	names, err := ix.fs.List()
	if err != nil {
		return 0, false, fmt.Errorf("parsearch: listing durable dir for catch-up: %w", err)
	}
	for _, name := range names {
		g, isSnap := parseGen(name, snapPrefix, snapSuffix)
		if isSnap && g <= max && (!ok || g > gen) {
			gen, ok = g, true
		}
	}
	return gen, ok, nil
}

// CatchupScan inspects a follower's durable directory and returns the
// position to request: the newest local WAL generation and its length.
// A missing or empty directory yields have=false (full reset requested).
func CatchupScan(dir string) (have bool, gen uint64, offset int64, err error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return false, 0, 0, nil
	}
	if err != nil {
		return false, 0, 0, fmt.Errorf("parsearch: scanning %s: %w", dir, err)
	}
	for _, e := range entries {
		g, ok := parseGen(e.Name(), walPrefix, walSuffix)
		if !ok {
			continue
		}
		if !have || g > gen {
			info, err := e.Info()
			if err != nil {
				return false, 0, 0, fmt.Errorf("parsearch: scanning %s: %w", dir, err)
			}
			have, gen, offset = true, g, info.Size()
		}
	}
	return have, gen, offset, nil
}

// CatchupApply installs one delta into a follower's durable directory
// (creating it if needed); see installDelta.
func CatchupApply(dir string, delta CatchupDelta) error {
	fsys, err := fsx.NewOS(dir)
	if err != nil {
		return fmt.Errorf("parsearch: %w", err)
	}
	return installDelta(fsys, delta)
}

// installDelta installs one delta into a follower's durable files. On
// Reset it first removes the follower's snapshot and WAL files. Every
// fragment is verified to extend the local file exactly at its offset —
// a mismatch aborts with an error before anything is corrupted — and the
// files are fsynced, so a subsequent Open recovers the shipped state
// even after a crash. A crash mid-install leaves a prefix of the
// leader's chain that Open recovers and the next round extends.
func installDelta(fsys fsx.FS, delta CatchupDelta) error {
	names, err := fsys.List()
	if err != nil {
		return fmt.Errorf("parsearch: listing follower files: %w", err)
	}
	local := make(map[string]bool, len(names))
	// Newest first (logs sort after snapshots), so a reset cut short
	// leaves a snapshot with a prefix of its logs, never logs whose
	// snapshot is gone.
	for i := len(names) - 1; i >= 0; i-- {
		if _, ok := chainFile(names[i]); !ok {
			continue
		}
		if !delta.Reset {
			local[names[i]] = true
		} else if err := fsys.Remove(names[i]); err != nil {
			return fmt.Errorf("parsearch: resetting follower: %w", err)
		}
	}
	for _, f := range delta.Files {
		if err := installFragment(fsys, f, local[f.Name]); err != nil {
			return err
		}
		local[f.Name] = true
	}
	// Make the new directory entries themselves durable.
	if err := fsys.SyncDir(); err != nil {
		return fmt.Errorf("parsearch: syncing follower directory: %w", err)
	}
	return nil
}

// chainFile reports whether name is a chain file name and whether it
// names a snapshot. parseGen admits only prefix, generation digits and
// suffix, so a chain name is bare: it cannot escape the directory.
func chainFile(name string) (snap, ok bool) {
	if _, ok := parseGen(name, snapPrefix, snapSuffix); ok {
		return true, true
	}
	_, ok = parseGen(name, walPrefix, walSuffix)
	return false, ok
}

// installFragment writes one fragment; exists reports whether the local
// file is present. A leader ships snapshots whole, and one is committed
// like the leader's own (commitFile), so a crash mid-install never
// leaves a torn snapshot under its final name. A log fragment at offset
// 0 creates the log; any other must land exactly at the end of the
// local log.
func installFragment(fsys fsx.FS, f CatchupFile, exists bool) error {
	// The fragment came off the wire: check it before writing anything.
	snap, ok := chainFile(f.Name)
	switch {
	case !ok:
		return fmt.Errorf("parsearch: refusing catch-up file %q", f.Name)
	case f.Offset < 0:
		return fmt.Errorf("parsearch: negative offset for catch-up file %q", f.Name)
	case snap && f.Offset != 0:
		return fmt.Errorf("parsearch: catch-up snapshot %s at offset %d, not whole", f.Name, f.Offset)
	case f.Offset > 0 && !exists:
		return fmt.Errorf("parsearch: catch-up fragment for missing %s", f.Name)
	}
	write := func(w fsx.File) error {
		_, err := w.Write(f.Data)
		return err
	}
	if snap {
		return commitFile(fsys, f.Name, write)
	}
	open := fsys.Create
	if f.Offset > 0 {
		open = fsys.Append
	}
	w, err := open(f.Name)
	if err != nil {
		return fmt.Errorf("parsearch: opening %s: %w", f.Name, err)
	}
	size, err := w.Size()
	if err == nil && size != f.Offset {
		err = fmt.Errorf("file has %d bytes", size)
	}
	if err != nil {
		w.Close()
		return fmt.Errorf("parsearch: catch-up fragment for %s at offset %d: %w", f.Name, f.Offset, err)
	}
	if err := writeSynced(w, write); err != nil {
		return fmt.Errorf("parsearch: writing %s: %w", f.Name, err)
	}
	return nil
}

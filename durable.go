package parsearch

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	iofs "io/fs"
	"strconv"
	"strings"
	"time"

	"parsearch/internal/fsx"
	"parsearch/internal/wal"
)

// This file is the durability subsystem of the engine: a write-ahead
// mutation log (internal/wal) plus generation-numbered snapshots in one
// directory (Options.Dir), so an index opened with Options.Durable
// survives process death without losing acknowledged mutations.
//
// # Generation lifecycle
//
// The directory holds at most two generations of two file kinds:
//
//	snap-<gen>.snap — a full snapshot (the Save format): the state at
//	                  the instant generation <gen> began
//	wal-<gen>.log   — every mutation acknowledged while <gen> was
//	                  current, starting with a checkpoint record
//
// A fresh index starts at generation 0 with an empty log and no
// snapshot. Checkpoint rotates: it cuts the point table and swaps in
// the log of generation g+1 atomically under the metadata lock, then
// writes snap-(g+1) off-lock (tmp file, fsync, rename — the rename is
// the commit point), then prunes generations older than g. Recovery
// loads the newest loadable snapshot and replays the contiguous log
// chain above it, so a crash anywhere in a rotation is safe: until the
// rename commits, the previous snapshot plus the chained logs
// reconstruct exactly the acknowledged state.
//
// Build cannot be expressed as a log suffix (it replaces everything),
// so it rotates with the rebase flag set in the new log's checkpoint
// record and the commit order inverted: snapshot first, then the
// in-memory cutover. Mutations are stalled (rotMu held exclusively)
// from before the snapshot write until the swap, so a rebase log
// without its snapshot can only mean Build never returned — recovery
// discards it, which reconstructs exactly the acknowledged (pre-Build)
// state.
//
// # Recovery
//
// Open replays snap-s + wal-s + wal-(s+1) + ... in order, validating
// that each log opens with its generation's checkpoint record and that
// insert IDs are exactly sequential. A torn tail (incomplete final
// frame) is legal only in the newest log — rotation fully syncs a log
// before opening its successor — and is truncated silently. Everything
// else (mid-chain tears, CRC failures, framing or ID violations) is
// surfaced as ErrCorrupt: the index never silently drops or invents a
// mutation. Options.Salvage turns that refusal into best-effort
// recovery of the longest valid prefix.
const (
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	walPrefix  = "wal-"
	walSuffix  = ".log"
	tmpSuffix  = ".tmp"
	// genDigits zero-pads generation numbers so lexicographic file
	// order is generation order.
	genDigits = 20
)

// ErrCorrupt reports damaged durable state that is provably not a
// crash artifact: a mid-chain torn log, a CRC or framing violation, a
// checkpoint/ID sequence violation, or an unloadable newest snapshot.
// Open fails with it rather than recovering silently-wrong state;
// Options.Salvage downgrades it to best-effort prefix recovery.
// Classify with errors.Is.
var ErrCorrupt = errors.New("parsearch: corrupt durable state")

// ErrClosed is returned by mutations on a closed index.
var ErrClosed = errors.New("parsearch: index closed")

// WALSyncPolicy selects when the mutation log is fsynced.
type WALSyncPolicy string

const (
	// WALSyncAlways (the default) group-commits an fsync before every
	// mutation returns: acknowledged mutations survive any crash.
	WALSyncAlways WALSyncPolicy = "always"
	// WALSyncOS leaves log syncing to the OS page cache (rotation and
	// Close still sync). A crash may lose the most recent mutations,
	// but recovery still yields a clean prefix of the acknowledged
	// mutation order — never a reordered or corrupted state.
	WALSyncOS WALSyncPolicy = "os"
)

func (p WALSyncPolicy) walPolicy() (wal.SyncPolicy, error) {
	switch p {
	case "", WALSyncAlways:
		return wal.SyncAlways, nil
	case WALSyncOS:
		return wal.SyncNone, nil
	default:
		return 0, fmt.Errorf("parsearch: unknown WAL sync policy %q", p)
	}
}

func snapName(gen uint64) string {
	return fmt.Sprintf("%s%0*d%s", snapPrefix, genDigits, gen, snapSuffix)
}

func walName(gen uint64) string {
	return fmt.Sprintf("%s%0*d%s", walPrefix, genDigits, gen, walSuffix)
}

// parseGen extracts the generation from a file name of the given
// shape; ok is false for foreign names.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != genDigits {
		return 0, false
	}
	g, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return g, true
}

// RecoveryInfo reports what Open's durable recovery found and did.
type RecoveryInfo struct {
	// Recovered is true when the directory held prior state (a
	// snapshot or any log records).
	Recovered bool `json:"recovered"`
	// HaveSnapshot/SnapshotGen identify the snapshot recovery loaded.
	HaveSnapshot bool   `json:"have_snapshot"`
	SnapshotGen  uint64 `json:"snapshot_gen"`
	// WALsReplayed counts the log generations replayed; Records the
	// mutation records applied.
	WALsReplayed int `json:"wals_replayed"`
	Records      int `json:"records"`
	// TornBytes is the length of the torn tail truncated from the
	// newest log (0 after a clean shutdown).
	TornBytes int64 `json:"torn_bytes"`
	// Salvaged is true when Options.Salvage discarded damage to
	// recover a prefix; DroppedBytes counts the bytes it dropped.
	Salvaged     bool  `json:"salvaged"`
	DroppedBytes int64 `json:"dropped_bytes"`
}

// Recovery returns what the durable recovery at Open found; the zero
// value on non-durable indexes.
func (ix *Index) Recovery() RecoveryInfo { return ix.recov }

// DurabilityInfo is a point-in-time view of the durability subsystem,
// the source of the server's statusz durability section.
type DurabilityInfo struct {
	Durable    bool   `json:"durable"`
	Dir        string `json:"dir,omitempty"`
	Generation uint64 `json:"generation"`
	SyncPolicy string `json:"sync_policy,omitempty"`
	// WALWrittenBytes / WALSyncedBytes are the current log's appended
	// and fsync-covered lengths; WALLagBytes is their difference — the
	// bytes a crash right now would lose (always 0 with WALSyncAlways
	// outside an in-flight mutation).
	WALWrittenBytes int64 `json:"wal_written_bytes"`
	WALSyncedBytes  int64 `json:"wal_synced_bytes"`
	WALLagBytes     int64 `json:"wal_lag_bytes"`
	Closed          bool  `json:"closed"`
	// Recovery is what the durable recovery at Open found.
	Recovery RecoveryInfo `json:"recovery"`
}

// Durability returns the current durability state. On a non-durable
// index only Closed is meaningful.
func (ix *Index) Durability() DurabilityInfo {
	ix.meta.Lock()
	w, gen, closed := ix.wal, ix.gen, ix.closed
	ix.meta.Unlock()
	info := DurabilityInfo{
		Durable:    ix.opts.Durable,
		Dir:        ix.opts.Dir,
		Generation: gen,
		Closed:     closed,
		Recovery:   ix.recov,
	}
	if ix.opts.Durable {
		info.SyncPolicy = string(ix.opts.WALSync)
		if info.SyncPolicy == "" {
			info.SyncPolicy = string(WALSyncAlways)
		}
	}
	if w != nil {
		info.WALWrittenBytes = w.Written()
		info.WALSyncedBytes = w.Synced()
		info.WALLagBytes = info.WALWrittenBytes - info.WALSyncedBytes
	}
	return info
}

// Close flushes and fsyncs the mutation log and closes it. Further
// mutations (Insert, Delete, Build, Checkpoint) return ErrClosed;
// queries and Save keep working against the in-memory state. Close is
// idempotent. On a non-durable index it only stops mutations.
func (ix *Index) Close() error {
	ix.ckptMu.Lock()
	defer ix.ckptMu.Unlock()
	ix.rotMu.Lock()
	defer ix.rotMu.Unlock()
	ix.meta.Lock()
	if ix.closed {
		ix.meta.Unlock()
		return nil
	}
	ix.closed = true
	w := ix.wal
	ix.meta.Unlock()
	if w != nil {
		if err := w.Close(); err != nil {
			return fmt.Errorf("parsearch: closing wal: %w", err)
		}
	}
	return nil
}

// newWALWriter wraps a log file in a writer wired to the metrics
// registry.
func (ix *Index) newWALWriter(f fsx.File, validLen int64) *wal.Writer {
	policy, err := ix.opts.WALSync.walPolicy()
	if err != nil {
		panic(err) // validated in openDurable
	}
	w := wal.NewWriter(f, validLen, policy)
	w.OnAppend = func(n int) {
		ix.reg.WALAppends.Inc()
		ix.reg.WALBytes.Add(int64(n))
	}
	w.OnSync = func(d time.Duration) {
		ix.reg.WALSyncs.Inc()
		ix.reg.WALFsyncNs.Observe(d.Nanoseconds())
	}
	return w
}

// openDurable opens a durable index over the given filesystem,
// recovering any prior state it holds. Open calls it with an OS
// directory; the crash battery calls it directly with an fsx.Mem.
func openDurable(opts Options, fs fsx.FS) (*Index, error) {
	opts.Durable = true
	if _, err := opts.WALSync.walPolicy(); err != nil {
		return nil, err
	}
	ix, err := open(opts)
	if err != nil {
		return nil, err
	}
	if err := ix.initDurable(fs); err != nil {
		return nil, err
	}
	return ix, nil
}

// initDurable recovers prior durable state from fs and arms the log
// writer. Called once from openDurable, before the index is shared, so
// no locks are needed.
func (ix *Index) initDurable(fs fsx.FS) error {
	ix.fs = fs
	names, err := fs.List()
	if err != nil {
		return fmt.Errorf("parsearch: listing durable dir: %w", err)
	}
	var snapGens, walGens []uint64
	for _, name := range names {
		// Tmp files are the residue of a rotation that crashed before
		// its rename commit: dead either way, deleted on sight.
		if strings.HasSuffix(name, tmpSuffix) {
			_ = fs.Remove(name)
			continue
		}
		if g, ok := parseGen(name, snapPrefix, snapSuffix); ok {
			snapGens = append(snapGens, g)
		} else if g, ok := parseGen(name, walPrefix, walSuffix); ok {
			walGens = append(walGens, g)
		}
	}
	// List is sorted and the names zero-padded, so both slices are
	// ascending.

	info := RecoveryInfo{}
	// drop is how recovery meets damage it cannot explain by a crash: the
	// refusal stands, unless Salvage removes the file and counts its bytes.
	drop := func(name string, refusal error) error {
		if !ix.opts.Salvage {
			return refusal
		}
		info.Salvaged = true
		if raw, err := fs.ReadFile(name); err == nil {
			info.DroppedBytes += int64(len(raw))
		}
		_ = fs.Remove(name)
		return nil
	}

	// Load the newest loadable snapshot. An unloadable newest snapshot
	// is corruption, not a crash artifact — snapshots commit atomically
	// via rename (commitFile, on leader and follower alike), so a
	// half-written one cannot carry the final name — and is refused,
	// unless Salvage falls back to an older generation.
	var (
		base  *snapshotData
		built *assembled // base assembled, when written under this index's options
	)
	for i := len(snapGens) - 1; i >= 0; i-- {
		g := snapGens[i]
		raw, err := fs.ReadFile(snapName(g))
		if err != nil {
			return fmt.Errorf("parsearch: reading %s: %w", snapName(g), err)
		}
		sd, derr := decodeSnapshot(raw)
		if derr == nil {
			if sd.opts.Dim != ix.opts.Dim {
				return fmt.Errorf("parsearch: durable dir holds dimension-%d data, options say %d",
					sd.opts.Dim, ix.opts.Dim)
			}
			// A snapshot without a recorded metric (flag 128) is Euclidean.
			if m := cmp.Or(sd.opts.Metric, Euclidean); m != ix.opts.Metric {
				return fmt.Errorf("parsearch: durable dir holds %s data, options say %s", m, ix.opts.Metric)
			}
			built, derr = ix.assembleBase(sd)
		}
		if derr != nil {
			if err := drop(snapName(g), fmt.Errorf("%w: %s: %v", ErrCorrupt, snapName(g), derr)); err != nil {
				return err
			}
			continue
		}
		base = sd
		info.HaveSnapshot = true
		info.SnapshotGen = g
		break
	}

	// The replay starts from the base's table.
	points := newTable(ix.opts.Dim, 0)
	if base != nil {
		points = base.table
	}

	// The replay base must be the snapshot or the empty state of
	// generation 0; a log chain starting above 0 with no snapshot
	// below it has lost its base and cannot be replayed honestly.
	if base == nil && len(walGens) > 0 && walGens[0] != 0 {
		for _, g := range walGens {
			if err := drop(walName(g), fmt.Errorf("%w: log chain starts at generation %d with no snapshot", ErrCorrupt, walGens[0])); err != nil {
				return err
			}
		}
		walGens = nil
	}

	// Replay the contiguous log chain above the base.
	replayFrom := info.SnapshotGen
	if base == nil && len(walGens) > 0 {
		replayFrom = walGens[0]
	}
	rs := &replayState{
		dim:      ix.opts.Dim,
		points:   points,
		snapGen:  info.SnapshotGen,
		haveSnap: info.HaveSnapshot,
	}
	chainEnd := replayFrom // one past the last replayed generation
	stoppedAt := replayFrom
	torn := false
	for g := replayFrom; ; g++ {
		data, err := fs.ReadFile(walName(g))
		if errors.Is(err, iofs.ErrNotExist) {
			stoppedAt = g
			break
		}
		if err != nil {
			return fmt.Errorf("parsearch: reading %s: %w", walName(g), err)
		}
		if torn {
			// A torn or truncated log below a newer one violates the
			// rotation protocol (logs are fully synced before a
			// successor is created): the newer records are unreachable.
			if err := drop(walName(g), fmt.Errorf("%w: %s follows a torn log", ErrCorrupt, walName(g))); err != nil {
				return err
			}
			continue
		}
		rs.expectCkpt = true
		rs.curGen = g
		stats, rerr := wal.Replay(data, rs.apply)
		switch {
		case errors.Is(rerr, errDiscardGeneration):
			// A rebase log without its snapshot: the Build that wrote
			// it never returned, so the whole generation is
			// unacknowledged. Discard it; the chain below is the state.
			_ = fs.Remove(walName(g))
			torn = true
			continue
		case rerr != nil:
			if !ix.opts.Salvage {
				return fmt.Errorf("%w: %s: %v", ErrCorrupt, walName(g), rerr)
			}
			// Salvage: keep the valid prefix, drop the rest, and stop
			// the chain — later records depend on the dropped ones.
			info.Salvaged = true
			info.DroppedBytes += int64(len(data)) - stats.ValidLen
			if err := truncateFile(fs, walName(g), stats.ValidLen); err != nil {
				return fmt.Errorf("parsearch: truncating %s: %w", walName(g), err)
			}
			torn = true
		case stats.TornBytes > 0:
			// The expected crash residue: an incomplete final frame.
			info.TornBytes += stats.TornBytes
			if err := truncateFile(fs, walName(g), stats.ValidLen); err != nil {
				return fmt.Errorf("parsearch: truncating %s: %w", walName(g), err)
			}
			torn = true
		}
		info.WALsReplayed++
		info.Records += stats.Records
		chainEnd = g + 1
	}

	// Logs above the first missing generation are unreachable: the
	// chain's base link is gone, so their records cannot be ordered
	// against the recovered state. Starting a fresh log at the gap and
	// later truncating them via Create would silently discard old
	// records — refuse instead (or drop them explicitly under Salvage).
	for _, g := range walGens {
		if g <= stoppedAt {
			continue
		}
		if err := drop(walName(g), fmt.Errorf("%w: %s is unreachable (%s is missing)", ErrCorrupt, walName(g), walName(stoppedAt))); err != nil {
			return err
		}
	}

	// Take the snapshot's assembled trees when no logged insert or delete
	// followed it; else rebuild from the recovered point table.
	if built != nil && rs.mutations == 0 {
		ix.tbl = built.tbl
		ix.live = built.live
		ix.publish(built.st)
	} else if rs.points.len() > 0 {
		st, live, err := ix.buildState(rs.points)
		if err != nil {
			return fmt.Errorf("parsearch: rebuilding recovered state: %w", err)
		}
		ix.tbl = rs.points
		ix.live = live
		ix.publish(st)
	}
	if base != nil || info.Records > 0 || info.WALsReplayed > 0 {
		info.Recovered = true
	}
	// Restore the cumulative metrics from the snapshot when the blob
	// is compatible with the current configuration; a mismatch only
	// drops counter history, never data.
	if base != nil && base.metrics != nil {
		_ = ix.reg.UnmarshalBinary(base.metrics)
	}

	// Arm the writer: reopen the newest log of the chain at its end when
	// it holds bytes, else seed it. A chain log with no bytes exists but
	// its checkpoint record never reached storage (a crash during
	// rotation, or a salvage that dropped everything); seeding it keeps
	// the chain invariant — every log opens with its checkpoint — for the
	// records about to be appended. With no chain (a fresh directory, or
	// a discarded rebase log) the log is seeded over whatever is there.
	gen := replayFrom
	var w *wal.Writer
	if chainEnd > replayFrom {
		gen = chainEnd - 1
		f, err := fs.Append(walName(gen))
		if err != nil {
			return fmt.Errorf("parsearch: opening %s: %w", walName(gen), err)
		}
		size, err := f.Size()
		if err != nil {
			f.Close()
			return fmt.Errorf("parsearch: sizing %s: %w", walName(gen), err)
		}
		if size > 0 {
			w = ix.newWALWriter(f, size)
		} else {
			f.Close()
		}
	}
	if w == nil {
		if w, err = ix.seedLog(gen, false); err != nil {
			return err
		}
	}
	ix.wal = w
	ix.gen = gen
	ix.recov = info
	if info.Recovered {
		ix.reg.Recoveries.Inc()
		ix.reg.RecoveredRecords.Add(int64(info.Records))
	}
	// Prune only below the replay base. Pruning relative to the resumed
	// generation would be wrong: after repeated crashes the chain can
	// span several log generations with no snapshot underneath, and
	// every one of them is still needed by the next recovery.
	ix.pruneGenerations(replayFrom + 1)

	sp := ix.newSpan(context.Background(), "recovery")
	sp.emit(TraceEvent{Stage: StageRecovery, Disk: -1, Item: -1,
		Results: info.Records, Pages: info.WALsReplayed})
	return nil
}

// assembled is a state assembled from a snapshot's trees, with its point
// table and live count.
type assembled struct {
	st   *state
	tbl  *pointTable
	live int
}

// assembleBase assembles the version-2 snapshot sd as a recovery base,
// with every check Load makes, and fills sd.table, the table the log
// replay starts from. It returns the assembled state, or nil for a
// version-1 snapshot. A snapshot written under other tree options is
// assembled under its own, and only its points are kept: recovery
// rebuilds them under this index's.
func (ix *Index) assembleBase(sd *snapshotData) (*assembled, error) {
	if sd.trees == nil {
		return nil, nil
	}
	src := ix
	o, s := ix.opts, sd.opts
	if o.Disks != s.Disks || o.Kind != s.Kind || o.PageSize != s.PageSize ||
		o.QuantileSplits != s.QuantileSplits || o.Recursive != s.Recursive ||
		o.Replication != s.Replication || o.Baseline != s.Baseline {
		s, err := checkOptions(s)
		if err != nil {
			return nil, fmt.Errorf("parsearch: snapshot options invalid: %w", err)
		}
		src = &Index{opts: s}
	}
	built := &assembled{}
	var err error
	if built.st, built.tbl, built.live, err = src.assembleState(sd.trees); err != nil {
		return nil, err
	}
	sd.table = built.tbl
	if src != ix {
		return nil, nil
	}
	return built, nil
}

// errDiscardGeneration is the internal signal that a log generation's
// rebase checkpoint has no committed snapshot: the generation belongs
// to a Build that never returned and must be discarded whole.
var errDiscardGeneration = errors.New("parsearch: discard unacknowledged rebase generation")

// replayState applies one log chain's records to a point table,
// enforcing the invariants the writers maintain — the first record of
// each generation is its checkpoint, insert IDs are exactly
// sequential, deletes name live IDs. A violation means the log was
// damaged in a way the CRC did not catch, so it surfaces as
// ErrCorrupt.
type replayState struct {
	dim      int
	points   *pointTable
	snapGen  uint64
	haveSnap bool

	expectCkpt bool
	curGen     uint64
	// mutations counts the inserts and deletes applied.
	mutations int
}

func (rs *replayState) apply(rec wal.Record) error {
	if rs.expectCkpt {
		if rec.Type != wal.RecCheckpoint || rec.Gen != rs.curGen {
			return fmt.Errorf("%w: log %d does not start with its checkpoint record", ErrCorrupt, rs.curGen)
		}
		if rec.Rebase && !(rs.haveSnap && rs.curGen == rs.snapGen) {
			return errDiscardGeneration
		}
		rs.expectCkpt = false
		return nil
	}
	switch rec.Type {
	case wal.RecCheckpoint:
		return fmt.Errorf("%w: checkpoint record inside log %d", ErrCorrupt, rs.curGen)
	case wal.RecInsert:
		if rec.ID != uint64(rs.points.len()) {
			return fmt.Errorf("%w: insert id %d, expected %d", ErrCorrupt, rec.ID, rs.points.len())
		}
		if len(rec.Point) != rs.dim {
			return fmt.Errorf("%w: insert dimension %d, index has %d", ErrCorrupt, len(rec.Point), rs.dim)
		}
		if i := nonFinite(rec.Point); i >= 0 {
			return fmt.Errorf("%w: insert id %d component %d is %v, not finite", ErrCorrupt, rec.ID, i, rec.Point[i])
		}
		rs.points.add(rec.Point)
		rs.mutations++
	case wal.RecDelete:
		if rec.ID >= uint64(rs.points.len()) || !rs.points.has(int(rec.ID)) {
			return fmt.Errorf("%w: delete of absent id %d", ErrCorrupt, rec.ID)
		}
		rs.points.kill(int(rec.ID))
		rs.mutations++
	}
	return nil
}

// truncateFile cuts name to size bytes.
func truncateFile(fs fsx.FS, name string, size int64) error {
	f, err := fs.Append(name)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Checkpoint rotates the durable generation: it cuts the point table,
// swaps in a fresh log, writes the cut as the next snapshot (tmp file,
// fsync, atomic rename), and prunes generations older than the
// previous one. Mutations keep flowing throughout — only the cut
// itself holds the metadata lock. A crash or error anywhere in the
// rotation is safe: recovery falls back to the previous snapshot and
// replays the chained logs across the unfinished rotation.
func (ix *Index) Checkpoint() error {
	if !ix.opts.Durable {
		return fmt.Errorf("parsearch: Checkpoint on a non-durable index")
	}
	ix.ckptMu.Lock()
	defer ix.ckptMu.Unlock()

	// The cut, under meta: fully sync the old log (so torn tails only
	// ever exist in the newest one), seed and sync the successor, copy
	// the point table, and swap the writer. Mutations before the cut
	// are in the old log and the copied table; mutations after land in
	// the new log — exactly what snap-(g+1) + wal-(g+1) will replay to.
	ix.meta.Lock()
	if ix.closed {
		ix.meta.Unlock()
		return ErrClosed
	}
	old := ix.wal
	if err := old.Sync(); err != nil {
		ix.meta.Unlock()
		return fmt.Errorf("parsearch: syncing wal before checkpoint: %w", err)
	}
	newGen := ix.gen + 1
	// seedLog makes the new log's directory entry durable before any
	// mutation is acknowledged on it: after the swap below, acked
	// mutations live only in wal-(g+1), and a crash must not be able to
	// erase the file itself.
	nw, err := ix.seedLog(newGen, false)
	if err != nil {
		ix.meta.Unlock()
		return err
	}
	tbl, trees := ix.cut()
	ix.wal = nw
	ix.gen = newGen
	ix.meta.Unlock()
	// In-flight mutations still waiting on the old writer were covered
	// by the Sync above (they appended before we took meta), and
	// nothing can append to it after the swap.
	_ = old.Close()

	// The commit, off-lock: snapshot the cut and rename it in. On
	// failure the rotation is incomplete but the chain is intact —
	// recovery replays wal-g + wal-(g+1) over the previous snapshot.
	if err := ix.writeSnapFile(newGen, tbl, trees); err != nil {
		return err
	}
	ix.pruneGenerations(newGen)

	sp := ix.newSpan(context.Background(), "checkpoint")
	sp.emit(TraceEvent{Stage: StageCheckpoint, Disk: -1, Item: -1, Results: tbl.len()})
	return nil
}

// seedLog starts wal-<gen> holding only its checkpoint record
// (rebase-flagged for a durable Build), fsyncs it, and fsyncs the
// directory: the log's directory entry must be durable before any
// mutation is acknowledged on it — fsyncing the file alone does not
// commit the name, and losing the file loses the whole log. On failure
// the file is removed: a log that does not open with its checkpoint is
// never part of the chain.
func (ix *Index) seedLog(gen uint64, rebase bool) (*wal.Writer, error) {
	f, err := ix.fs.Create(walName(gen))
	if err != nil {
		return nil, fmt.Errorf("parsearch: creating %s: %w", walName(gen), err)
	}
	w := ix.newWALWriter(f, 0)
	err = w.Append(wal.EncodeCheckpoint(gen, rebase))
	if err == nil {
		err = w.Sync()
	}
	if err == nil {
		err = ix.fs.SyncDir()
	}
	if err != nil {
		_ = w.Close()
		_ = ix.fs.Remove(walName(gen))
		return nil, fmt.Errorf("parsearch: seeding %s: %w", walName(gen), err)
	}
	return w, nil
}

// writeSnapFile commits the given cut as snap-<gen> (see writeSnapshot).
func (ix *Index) writeSnapFile(gen uint64, tbl *pointTable, trees *version) error {
	return commitFile(ix.fs, snapName(gen), func(f fsx.File) error { return ix.writeSnapshot(f, tbl, trees) })
}

// commitFile lands a whole file under name: write it to name.tmp, fsync,
// close, rename. The rename is the commit point, so a crash before it
// leaves only tmp residue (recovery deletes it on sight), never a torn
// file under the final name. Leader snapshots and the snapshots a
// follower installs both land this way.
func commitFile(fs fsx.FS, name string, write func(fsx.File) error) error {
	tmp := name + tmpSuffix
	f, err := fs.Create(tmp)
	if err == nil {
		err = writeSynced(f, write)
	}
	if err == nil {
		err = fs.Rename(tmp, name)
	}
	if err != nil {
		return fmt.Errorf("parsearch: committing %s: %w", name, err)
	}
	return nil
}

// writeSynced runs write on f, fsyncs and closes it; f is closed on
// every path.
func writeSynced(f fsx.File, write func(fsx.File) error) error {
	err := write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// pruneGenerations deletes snapshots and logs older than cur-1. The
// previous generation is kept so recovery has a fallback if the
// current snapshot turns out unreadable. Best-effort: a file that
// cannot be removed now is removed by a later rotation.
func (ix *Index) pruneGenerations(cur uint64) {
	if cur < 2 {
		return
	}
	names, err := ix.fs.List()
	if err != nil {
		return
	}
	for _, name := range names {
		g, ok := parseGen(name, snapPrefix, snapSuffix)
		if !ok {
			g, ok = parseGen(name, walPrefix, walSuffix)
		}
		if ok && g < cur-1 {
			_ = ix.fs.Remove(name)
		}
	}
}

// rebaseDurable is Build's durable rotation: commit the freshly built
// state as the next generation's snapshot, then cut over. The commit
// order is inverted relative to Checkpoint — the rebase log and the
// snapshot become durable BEFORE the in-memory cutover — and mutations
// are stalled for the duration (rotMu held exclusively), so the rebase
// log can never hold acknowledged mutations that recovery would
// discard: if the snapshot rename did not commit, Build never
// returned, and recovery's discard of the rebase log reconstructs
// exactly the acknowledged (pre-Build) state.
func (ix *Index) rebaseDurable(st *state, tbl *pointTable, live int) error {
	ix.ckptMu.Lock()
	defer ix.ckptMu.Unlock()
	ix.rotMu.Lock()
	defer ix.rotMu.Unlock()

	ix.meta.Lock()
	if ix.closed {
		ix.meta.Unlock()
		return ErrClosed
	}
	old := ix.wal
	newGen := ix.gen + 1
	ix.meta.Unlock()

	// Durable commit: rebase log first, snapshot rename last. Recovery
	// keys off the rename — a rebase log whose snapshot is absent is
	// discarded — so this order makes the crash window unambiguous.
	// seedLog makes the rebase log's name durable before the snapshot
	// rename commits the generation: recovery pairs the two, and acked
	// mutations land in this log right after the cutover.
	nw, err := ix.seedLog(newGen, true)
	if err != nil {
		return err
	}
	// Nobody else reads or writes st's trees before the publish below.
	var trees *version
	if st.asBuilt {
		trees = &version{shards: st.shards, replicas: st.replicas, baseline: st.baseline}
	}
	if err := ix.writeSnapFile(newGen, tbl, trees); err != nil {
		_ = nw.Close()
		_ = ix.fs.Remove(walName(newGen))
		return err
	}

	// Committed. Cut over memory and the writer; mutations are still
	// excluded by rotMu, and queries switch at the publish.
	ix.meta.Lock()
	ix.tbl = tbl
	ix.live = live
	ix.publish(st)
	ix.wal = nw
	ix.gen = newGen
	ix.meta.Unlock()
	_ = old.Close()
	ix.pruneGenerations(newGen)

	sp := ix.newSpan(context.Background(), "checkpoint")
	sp.emit(TraceEvent{Stage: StageCheckpoint, Disk: -1, Item: -1, Results: live})
	return nil
}

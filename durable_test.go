package parsearch

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"parsearch/internal/fsx"
	"parsearch/internal/vec"
)

// durableOpts is the baseline configuration of the durability tests:
// small, deterministic, and durable over whatever FS the test supplies.
func durableOpts() Options {
	return Options{Dim: 3, Disks: 4, Durable: true}
}

// durPoint derives a deterministic vector from an ID, so tests can
// verify recovered coordinates without storing expectations.
func durPoint(id, dim int) []float64 {
	p := make([]float64, dim)
	for j := range p {
		p[j] = float64(id*31+j*7) + 0.25
	}
	return p
}

// tableOf reads the index's point table (IDs and coordinates,
// tombstones as nil) for comparison against an oracle.
func tableOf(ix *Index) [][]float64 {
	ix.meta.Lock()
	defer ix.meta.Unlock()
	out := make([][]float64, ix.tbl.len())
	ix.tbl.each(func(id int, p vec.Point) { out[id] = slices.Clone(p) })
	return out
}

func TestDurableRecoversAckedMutations(t *testing.T) {
	fs := fsx.NewMem()
	ix, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := ix.Insert(durPoint(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int{3, 7, 11} {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	want := tableOf(ix)

	// No Close: recovery must come entirely from the log. SyncAlways
	// means every acknowledged mutation is in the durable prefix.
	re, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if got := tableOf(re); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered table differs: got %d slots, want %d", len(got), len(want))
	}
	if re.Len() != 17 {
		t.Fatalf("recovered live count %d, want 17", re.Len())
	}
	info := re.Recovery()
	// 20 inserts + 3 deletes + the log's checkpoint record.
	if !info.Recovered || info.Records != 24 {
		t.Fatalf("recovery info %+v, want Recovered with 24 records", info)
	}
	if err := re.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if got := re.Metrics().Recoveries; got != 1 {
		t.Fatalf("Recoveries metric %d, want 1", got)
	}
}

func TestDurableRecoveredAnswersMatchOracle(t *testing.T) {
	fs := fsx.NewMem()
	ix, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := ix.Insert(durPoint(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	re, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}

	oracle, err := Open(Options{Dim: 3, Disks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Build(tableOf(re)); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 10; q++ {
		query := durPoint(q*5+2, 3)
		got, _, err := re.KNN(query, 7)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := oracle.KNN(query, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: recovered KNN differs from oracle", q)
		}
	}
}

func TestDurableCheckpointRotatesGenerations(t *testing.T) {
	fs := fsx.NewMem()
	ix, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := ix.Insert(durPoint(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		if _, err := ix.Insert(durPoint(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := ix.Durability().Generation; got != 2 {
		t.Fatalf("generation %d after two checkpoints, want 2", got)
	}
	// Retention: generations 1 and 2 live, generation 0 pruned.
	names, _ := fs.List()
	for _, name := range names {
		if name == walName(0) || name == snapName(0) {
			t.Fatalf("generation 0 file %s not pruned; have %v", name, names)
		}
	}
	for _, want := range []string{snapName(1), snapName(2), walName(1), walName(2)} {
		if _, err := fs.ReadFile(want); err != nil {
			t.Fatalf("missing %s after rotation: %v (have %v)", want, err, names)
		}
	}

	if _, err := ix.Insert(durPoint(15, 3)); err != nil {
		t.Fatal(err)
	}
	want := tableOf(ix)
	re, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tableOf(re), want) {
		t.Fatal("recovered table differs after checkpoints")
	}
	info := re.Recovery()
	if !info.HaveSnapshot || info.SnapshotGen != 2 {
		t.Fatalf("recovery info %+v, want snapshot gen 2", info)
	}
	// Only the post-checkpoint insert should need replaying.
	if info.Records != 2 { // checkpoint record + 1 insert
		t.Fatalf("replayed %d records, want 2", info.Records)
	}
}

func TestDurableBuildRebases(t *testing.T) {
	fs := fsx.NewMem()
	ix, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := ix.Insert(durPoint(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	rebuilt := [][]float64{durPoint(100, 3), durPoint(101, 3), nil, durPoint(103, 3)}
	if err := ix.Build(rebuilt); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(durPoint(104, 3)); err != nil {
		t.Fatal(err)
	}
	want := tableOf(ix)

	re, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if got := tableOf(re); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered table after Build differs: got %v, want %v", got, want)
	}
	if re.Len() != 4 {
		t.Fatalf("live count %d, want 4", re.Len())
	}
}

func TestDurableCloseSemantics(t *testing.T) {
	fs := fsx.NewMem()
	ix, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(durPoint(0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := ix.Insert(durPoint(1, 3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close: %v, want ErrClosed", err)
	}
	if err := ix.Delete(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after Close: %v, want ErrClosed", err)
	}
	if err := ix.Build([][]float64{durPoint(0, 3)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Build after Close: %v, want ErrClosed", err)
	}
	if err := ix.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close: %v, want ErrClosed", err)
	}
	// Queries and Save keep working against the in-memory state.
	if _, _, err := ix.KNN(durPoint(0, 3), 1); err != nil {
		t.Fatalf("KNN after Close: %v", err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatalf("Save after Close: %v", err)
	}
	if !ix.Durability().Closed {
		t.Fatal("Durability().Closed is false after Close")
	}
}

func TestDurableCloseStopsNonDurableMutations(t *testing.T) {
	ix, err := Open(Options{Dim: 3, Disks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(durPoint(0, 3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close: %v, want ErrClosed", err)
	}
}

func TestDurableTornTailTruncated(t *testing.T) {
	fs := fsx.NewMem()
	ix, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ix.Insert(durPoint(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	want := tableOf(ix)

	// A crash mid-append leaves a partial frame at the tail.
	f, err := fs.Append(walName(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatalf("torn tail must recover cleanly: %v", err)
	}
	if !reflect.DeepEqual(tableOf(re), want) {
		t.Fatal("recovered table differs after torn tail")
	}
	if re.Recovery().TornBytes != 3 {
		t.Fatalf("TornBytes %d, want 3", re.Recovery().TornBytes)
	}
	// The tail was truncated: appends resume and the log stays valid.
	if _, err := re.Insert(durPoint(5, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := openDurable(durableOpts(), fs); err != nil {
		t.Fatalf("reopen after post-truncation append: %v", err)
	}
}

func TestDurableMidLogCorruptionRefused(t *testing.T) {
	fs := fsx.NewMem()
	ix, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := ix.Insert(durPoint(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	// Flip one byte in the middle of the log: bit rot, not a crash.
	data, err := fs.ReadFile(walName(0))
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte(nil), data...)
	corrupted[len(corrupted)/2] ^= 0x40
	if err := rewriteFile(fs, walName(0), corrupted); err != nil {
		t.Fatal(err)
	}

	if _, err := openDurable(durableOpts(), fs); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log corruption: %v, want ErrCorrupt", err)
	}

	// Salvage recovers the valid prefix instead.
	salvageOpts := durableOpts()
	salvageOpts.Salvage = true
	re, err := openDurable(salvageOpts, fs)
	if err != nil {
		t.Fatalf("salvage open: %v", err)
	}
	info := re.Recovery()
	if !info.Salvaged || info.DroppedBytes == 0 {
		t.Fatalf("recovery info %+v, want Salvaged with dropped bytes", info)
	}
	got := tableOf(re)
	if len(got) >= 10 {
		t.Fatalf("salvage kept %d slots, corruption should have cost some", len(got))
	}
	for i, p := range got {
		if !reflect.DeepEqual(p, durPoint(i, 3)) {
			t.Fatalf("salvaged point %d corrupted", i)
		}
	}
	// The salvaged state must be clean: a plain reopen succeeds.
	if _, err := openDurable(durableOpts(), fs); err != nil {
		t.Fatalf("reopen after salvage: %v", err)
	}
}

func TestDurableCorruptSnapshotFallsBack(t *testing.T) {
	fs := fsx.NewMem()
	ix, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := ix.Insert(durPoint(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(durPoint(10, 3)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(durPoint(11, 3)); err != nil {
		t.Fatal(err)
	}
	want := tableOf(ix)

	// Rot the newest snapshot. Without Salvage that is refused; with
	// Salvage, recovery falls back to the previous generation's
	// snapshot and the intact log chain replays everything — no loss.
	raw, err := fs.ReadFile(snapName(2))
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte(nil), raw...)
	corrupted[len(corrupted)/2] ^= 0x01
	if err := rewriteFile(fs, snapName(2), corrupted); err != nil {
		t.Fatal(err)
	}

	if _, err := openDurable(durableOpts(), fs); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot: %v, want ErrCorrupt", err)
	}
	salvageOpts := durableOpts()
	salvageOpts.Salvage = true
	re, err := openDurable(salvageOpts, fs)
	if err != nil {
		t.Fatalf("salvage open: %v", err)
	}
	if !reflect.DeepEqual(tableOf(re), want) {
		t.Fatal("fallback recovery lost data despite intact log chain")
	}
	info := re.Recovery()
	if !info.Salvaged || info.SnapshotGen != 1 {
		t.Fatalf("recovery info %+v, want Salvaged from snapshot gen 1", info)
	}
}

func TestDurableWALSyncOSLagAndClose(t *testing.T) {
	fs := fsx.NewMem()
	opts := durableOpts()
	opts.WALSync = WALSyncOS
	ix, err := openDurable(opts, fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ix.Insert(durPoint(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	d := ix.Durability()
	if d.WALLagBytes <= 0 {
		t.Fatalf("WALLagBytes %d with WALSyncOS, want > 0", d.WALLagBytes)
	}
	if d.SyncPolicy != string(WALSyncOS) {
		t.Fatalf("SyncPolicy %q, want %q", d.SyncPolicy, WALSyncOS)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	// Close synced the log: the durable view holds everything.
	re, err := openDurable(opts, fs.DurableView())
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 5 {
		t.Fatalf("recovered %d points after Close, want 5", re.Len())
	}
}

func TestDurableStickySyncFailure(t *testing.T) {
	fs := fsx.NewMem()
	ix, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(durPoint(0, 3)); err != nil {
		t.Fatal(err)
	}
	fs.FailSyncs(1)
	if _, err := ix.Insert(durPoint(1, 3)); err == nil {
		t.Fatal("Insert with failed fsync returned nil error")
	}
	// fsyncgate: the log's durability is unknowable after a failed
	// fsync, so every further mutation must be refused.
	if _, err := ix.Insert(durPoint(2, 3)); err == nil {
		t.Fatal("Insert after sticky sync failure returned nil error")
	}
	if err := ix.Delete(0); err == nil {
		t.Fatal("Delete after sticky sync failure returned nil error")
	}
}

func TestDurableInjectedWriteErrorHeals(t *testing.T) {
	fs := fsx.NewMem()
	ix, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(durPoint(0, 3)); err != nil {
		t.Fatal(err)
	}
	// One-shot short write: the failed insert is rejected, the log
	// self-heals, and the next mutation proceeds.
	fs.FailWriteAt(fs.TotalWritten() + 10)
	if _, err := ix.Insert(durPoint(1, 3)); err == nil {
		t.Fatal("Insert across injected write error returned nil error")
	}
	if _, err := ix.Insert(durPoint(2, 3)); err != nil {
		t.Fatalf("Insert after self-heal: %v", err)
	}
	re, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	got := tableOf(re)
	if len(got) != 2 {
		t.Fatalf("recovered %d slots, want 2 (failed insert dropped)", len(got))
	}
	// The rejected insert's ID was re-used by the healed one: the
	// durable history matches the acknowledged one.
	if !reflect.DeepEqual(got[1], durPoint(2, 3)) {
		t.Fatalf("slot 1 holds %v, want the healed insert", got[1])
	}
}

func TestDurableOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"dir without durable", Options{Dim: 3, Disks: 2, Dir: "x"}},
		{"walsync without durable", Options{Dim: 3, Disks: 2, WALSync: WALSyncAlways}},
		{"salvage without durable", Options{Dim: 3, Disks: 2, Salvage: true}},
		{"durable without dir", Options{Dim: 3, Disks: 2, Durable: true}},
	}
	for _, tc := range cases {
		if _, err := Open(tc.opts); err == nil {
			t.Errorf("%s: Open returned nil error", tc.name)
		}
	}
	bad := durableOpts()
	bad.WALSync = "sometimes"
	if _, err := openDurable(bad, fsx.NewMem()); err == nil {
		t.Error("unknown WALSync policy: openDurable returned nil error")
	}
}

func TestDurableOSDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dim: 3, Disks: 4, Durable: true, Dir: dir}
	ix, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := ix.Insert(durPoint(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(4); err != nil {
		t.Fatal(err)
	}
	want := tableOf(ix)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !reflect.DeepEqual(tableOf(re), want) {
		t.Fatal("recovered table differs over the OS filesystem")
	}
	if got, _, err := re.NN(durPoint(7, 3)); err != nil || got.ID != 7 {
		t.Fatalf("NN after OS recovery: %v %v", got, err)
	}
}

func TestDurableDimensionMismatchRejected(t *testing.T) {
	fs := fsx.NewMem()
	ix, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(durPoint(0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	other := durableOpts()
	other.Dim = 5
	if _, err := openDurable(other, fs); err == nil {
		t.Fatal("dimension mismatch against the snapshot: nil error")
	}
}

func TestDurableMetricsSurviveCheckpoint(t *testing.T) {
	fs := fsx.NewMem()
	ix, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := ix.Insert(durPoint(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := ix.KNN(durPoint(2, 3), 3); err != nil {
		t.Fatal(err)
	}
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := ix.Metrics()
	if before.WALAppends == 0 || before.WALSyncs == 0 || before.WALBytes == 0 {
		t.Fatalf("WAL metrics not recorded: %+v", before)
	}
	re, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	after := re.Metrics()
	// The snapshot carried the cumulative counters across the restart.
	if after.QueriesKNN != before.QueriesKNN {
		t.Fatalf("QueriesKNN %d after recovery, want %d", after.QueriesKNN, before.QueriesKNN)
	}
	if after.WALFsyncNs.Count == 0 {
		t.Fatal("WALFsyncNs histogram empty after recovery")
	}
}

// rewriteFile replaces name's content (Create truncates, then write).
func rewriteFile(fs fsx.FS, name string, data []byte) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TestLoadRejectsTrailingGarbage is the regression test for the Load
// hardening: bytes appended after the CRC footer must be rejected
// deterministically (not just probabilistically via a shifted-footer
// CRC mismatch).
func TestLoadRejectsTrailingGarbage(t *testing.T) {
	ix, err := Open(Options{Dim: 2, Disks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build([][]float64{{1, 2}, {3, 4}, {5, 6}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]byte{{0x00}, {0xff, 0xfe}, bytes.Repeat([]byte{0xab}, 64)} {
		raw := append(append([]byte(nil), buf.Bytes()...), extra...)
		_, err := Load(bytes.NewReader(raw))
		if err == nil {
			t.Fatalf("%d trailing bytes: Load returned nil error", len(extra))
		}
		if want := fmt.Sprintf("%d bytes of trailing garbage", len(extra)); !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Fatalf("%d trailing bytes: error %q does not name the garbage deterministically", len(extra), err)
		}
	}
	// Sanity: the unmodified snapshot still loads.
	if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

// hookFS wraps a Mem and fires a callback before every Create — the
// window tests use it to run mutations at an exact point inside a
// rotation.
type hookFS struct {
	*fsx.Mem
	onCreate func(name string)
}

func (h *hookFS) Create(name string) (fsx.File, error) {
	if h.onCreate != nil {
		h.onCreate(name)
	}
	return h.Mem.Create(name)
}

// TestCheckpointWindowMutationSurvivesCrashBeforeRename: a mutation
// acknowledged while Checkpoint is writing the snapshot off-lock lives
// only in the freshly created wal-(g+1). If the process dies before the
// snapshot rename (the first operation that fsyncs the directory as a
// side effect), that log file's name must already be durable —
// otherwise the acknowledged mutation vanishes with the file.
func TestCheckpointWindowMutationSurvivesCrashBeforeRename(t *testing.T) {
	mem := fsx.NewMem()
	fs := &hookFS{Mem: mem}
	ix, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ix.Insert(durPoint(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	// The snapshot tmp file is created after the log swap and before
	// the rename: exactly the window where a concurrent mutation acks
	// into the new log. Simulate one, then capture the crash state.
	var view *fsx.Mem
	fs.onCreate = func(name string) {
		if !strings.HasSuffix(name, ".tmp") || view != nil {
			return
		}
		if _, err := ix.Insert(durPoint(99, 3)); err != nil {
			t.Errorf("insert during checkpoint window: %v", err)
			return
		}
		view = mem.DurableView()
	}
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if view == nil {
		t.Fatal("checkpoint never created a snapshot tmp file")
	}
	re, err := openDurable(durableOpts(), view)
	if err != nil {
		t.Fatalf("recovery from mid-checkpoint crash: %v", err)
	}
	got := tableOf(re)
	if len(got) != 6 || !reflect.DeepEqual(got[5], durPoint(99, 3)) {
		t.Fatalf("recovered %d slots: the mutation acked during the checkpoint window was lost", len(got))
	}
}

// TestRecoveryRefusesGapInLogChain: when the chain's base log is
// missing but a newer log survives, the newer records cannot be
// ordered against the recovered state. Recovery must refuse with
// ErrCorrupt instead of silently starting a fresh log at the gap (and
// later truncating the orphan via Create); Salvage drops the orphan
// explicitly.
func TestRecoveryRefusesGapInLogChain(t *testing.T) {
	fs := fsx.NewMem()
	ix, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ix.Insert(durPoint(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Checkpoint(); err != nil { // gen 1: snap-1 + wal-1
		t.Fatal(err)
	}
	snapState := tableOf(ix)
	for i := 5; i < 8; i++ {
		if _, err := ix.Insert(durPoint(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Checkpoint(); err != nil { // gen 2: snap-2 + wal-2
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	// Damage: the newest snapshot and the base link wal-1 are gone, so
	// recovery starts from snap-1 — and wal-2 is unreachable across the
	// missing wal-1.
	if err := fs.Remove(snapName(2)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(walName(1)); err != nil {
		t.Fatal(err)
	}

	if _, err := openDurable(durableOpts(), fs); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("gapped log chain: %v, want ErrCorrupt", err)
	}

	salvageOpts := durableOpts()
	salvageOpts.Salvage = true
	re, err := openDurable(salvageOpts, fs)
	if err != nil {
		t.Fatalf("salvage open: %v", err)
	}
	if !reflect.DeepEqual(tableOf(re), snapState) {
		t.Fatal("salvage did not recover exactly the snapshot state")
	}
	info := re.Recovery()
	if !info.Salvaged || info.DroppedBytes == 0 {
		t.Fatalf("recovery info %+v, want Salvaged with dropped bytes", info)
	}
	// The orphan is gone: a second open (without salvage) is clean.
	if _, err := openDurable(durableOpts(), fs); err != nil {
		t.Fatalf("reopen after salvage: %v", err)
	}
}

// TestDeleteWALAppendFailureLeavesNoRecord: a delete whose log append
// fails must be refused without a trace — neither applied in memory
// nor present in the log — so the live index, the error, and any
// future recovery agree.
func TestDeleteWALAppendFailureLeavesNoRecord(t *testing.T) {
	fs := fsx.NewMem()
	ix, err := openDurable(durableOpts(), fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := ix.Insert(durPoint(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	fs.FailWriteAt(fs.TotalWritten()) // the delete record's write fails whole
	if err := ix.Delete(2); err == nil {
		t.Fatal("Delete across injected write error returned nil error")
	}
	if ix.Len() != 4 {
		t.Fatalf("live count %d after refused delete, want 4", ix.Len())
	}
	// The refused delete is queryable and durable state has no record
	// of it.
	if got, _, err := ix.NN(durPoint(2, 3)); err != nil || got.ID != 2 {
		t.Fatalf("NN after refused delete: %v %v", got, err)
	}
	re, err := openDurable(durableOpts(), fs.FlushedView())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tableOf(re), tableOf(ix)) {
		t.Fatal("recovered state diverges from live state after a refused delete")
	}
	// The writer healed: the same delete succeeds and recovers cleanly.
	if err := ix.Delete(2); err != nil {
		t.Fatalf("Delete after self-heal: %v", err)
	}
	re2, err := openDurable(durableOpts(), fs.FlushedView())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tableOf(re2), tableOf(ix)) {
		t.Fatal("recovered state diverges after the healed delete")
	}
}

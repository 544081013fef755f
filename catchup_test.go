package parsearch

// Tests of the snapshot+delta catch-up layer: a follower directory is
// brought up to the leader's synced state by shipping the newest
// snapshot plus WAL suffixes, then opened with the standard recovery
// path. Equivalence is checked at the strongest level available —
// byte-identical point tables and query answers.

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"parsearch/internal/fsx"
)

// catchupLeader opens a durable leader index in its own temp dir.
func catchupLeader(t *testing.T) (*Index, Options) {
	t.Helper()
	opts := Options{Dim: 3, Disks: 4, Durable: true, Dir: t.TempDir()}
	ix, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix, opts
}

// catchupRound runs one scan→Catchup→apply round against the leader
// and returns the delta.
func catchupRound(t *testing.T, leader *Index, dir string) CatchupDelta {
	t.Helper()
	have, gen, off, err := CatchupScan(dir)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := leader.Catchup(have, gen, off)
	if err != nil {
		t.Fatal(err)
	}
	if err := CatchupApply(dir, delta); err != nil {
		t.Fatal(err)
	}
	return delta
}

// verifyFollower opens the follower directory and checks byte-identity
// with the leader.
func verifyFollower(t *testing.T, leader *Index, opts Options, dir string) {
	t.Helper()
	fopts := opts
	fopts.Dir = dir
	follower, err := Open(fopts)
	if err != nil {
		t.Fatalf("opening follower: %v", err)
	}
	defer follower.Close()
	if got, want := tableOf(follower), tableOf(leader); !reflect.DeepEqual(got, want) {
		t.Fatal("follower table differs from leader")
	}
	for q := 0; q < 8; q++ {
		query := durPoint(q*11+3, opts.Dim)
		got, _, err := follower.KNN(query, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := leader.KNN(query, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: follower KNN differs from leader", q)
		}
	}
	if err := follower.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestCatchupColdReplica(t *testing.T) {
	leader, opts := catchupLeader(t)
	for i := 0; i < 30; i++ {
		if _, err := leader.Insert(durPoint(i, opts.Dim)); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 30; i < 55; i++ {
		if _, err := leader.Insert(durPoint(i, opts.Dim)); err != nil {
			t.Fatal(err)
		}
	}

	dir := filepath.Join(t.TempDir(), "replica")
	delta := catchupRound(t, leader, dir)
	if !delta.Reset {
		t.Fatal("cold replica's first round was not a reset")
	}
	if len(delta.Files) == 0 {
		t.Fatal("reset delta shipped no files")
	}
	if got := leader.Metrics().CatchupBytes; got == 0 {
		t.Fatal("catchup_bytes metric stayed zero")
	}
	verifyFollower(t, leader, opts, dir)
}

func TestCatchupIncrementalRounds(t *testing.T) {
	leader, opts := catchupLeader(t)
	for i := 0; i < 20; i++ {
		if _, err := leader.Insert(durPoint(i, opts.Dim)); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(t.TempDir(), "replica")
	catchupRound(t, leader, dir)
	verifyFollower(t, leader, opts, dir)

	// New leader traffic, including a generation rotation: the second
	// round must extend the follower without a reset.
	for i := 20; i < 35; i++ {
		if _, err := leader.Insert(durPoint(i, opts.Dim)); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := leader.Delete(3); err != nil {
		t.Fatal(err)
	}
	delta := catchupRound(t, leader, dir)
	if delta.Reset {
		t.Fatal("incremental round reset a follower whose chain is intact")
	}
	if len(delta.Files) == 0 {
		t.Fatal("incremental round shipped nothing despite new leader traffic")
	}
	verifyFollower(t, leader, opts, dir)

	// Steady state: a third round with no new traffic ships zero bytes.
	delta = catchupRound(t, leader, dir)
	var bytes int64
	for _, f := range delta.Files {
		bytes += int64(len(f.Data))
	}
	if delta.Reset || bytes != 0 {
		t.Fatalf("steady-state round: reset=%v, %d bytes", delta.Reset, bytes)
	}
}

func TestCatchupResetAfterPrune(t *testing.T) {
	leader, opts := catchupLeader(t)
	for i := 0; i < 10; i++ {
		if _, err := leader.Insert(durPoint(i, opts.Dim)); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(t.TempDir(), "replica")
	catchupRound(t, leader, dir)

	// Rotate generations past the retention window: the follower's
	// generation is pruned on the leader, forcing a reset.
	for g := 0; g < 3; g++ {
		for i := 0; i < 5; i++ {
			if _, err := leader.Insert(durPoint(100+g*10+i, opts.Dim)); err != nil {
				t.Fatal(err)
			}
		}
		if err := leader.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	delta := catchupRound(t, leader, dir)
	if !delta.Reset {
		t.Fatal("pruned-out follower was not reset")
	}
	verifyFollower(t, leader, opts, dir)
}

func TestCatchupRejectsBadInput(t *testing.T) {
	leader, _ := catchupLeader(t)
	if _, err := leader.Catchup(false, 0, -1); err == nil {
		t.Fatal("negative offset accepted")
	}

	nonDurable, err := Open(Options{Dim: 3, Disks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nonDurable.Catchup(false, 0, 0); err == nil {
		t.Fatal("catch-up from a non-durable index accepted")
	}

	// CatchupApply must refuse wire-supplied names that are not chain
	// files — especially path escapes.
	dir := t.TempDir()
	for _, name := range []string{"../evil", "nested/wal-00000000000000000000.log", "notes.txt", ""} {
		err := CatchupApply(dir, CatchupDelta{Files: []CatchupFile{{Name: name, Data: []byte("x")}}})
		if err == nil {
			t.Fatalf("CatchupApply accepted file name %q", name)
		}
	}
	// A fragment that does not extend the local file exactly is refused.
	wal := "wal-00000000000000000000.log"
	if err := CatchupApply(dir, CatchupDelta{Files: []CatchupFile{{Name: wal, Offset: 0, Data: []byte("abcd")}}}); err != nil {
		t.Fatal(err)
	}
	if err := CatchupApply(dir, CatchupDelta{Files: []CatchupFile{{Name: wal, Offset: 9, Data: []byte("x")}}}); err == nil {
		t.Fatal("gap-leaving fragment accepted")
	}
}

// TestCatchupInstallRefusesBeforeWriting: a fragment that cannot land —
// a snapshot not shipped whole, a log fragment past offset 0 for a log
// the follower lacks, or one that does not start at the local log's end
// — is refused before a byte is written, and creates no file.
func TestCatchupInstallRefusesBeforeWriting(t *testing.T) {
	fs := fsx.NewMem()
	wal := walName(0)
	if err := installDelta(fs, CatchupDelta{Files: []CatchupFile{{Name: wal, Data: []byte("abcd")}}}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []CatchupFile{
		{Name: snapName(1), Offset: 4, Data: []byte("x")},
		{Name: walName(1), Offset: 4, Data: []byte("x")},
		{Name: wal, Offset: 3, Data: []byte("x")},
		{Name: wal, Offset: 5, Data: []byte("x")},
	} {
		before := fs.TotalWritten()
		if err := installDelta(fs, CatchupDelta{Files: []CatchupFile{f}}); err == nil {
			t.Fatalf("fragment %s at offset %d accepted", f.Name, f.Offset)
		}
		if names, _ := fs.List(); fs.TotalWritten() != before || !reflect.DeepEqual(names, []string{wal}) {
			t.Fatalf("refused fragment %s at offset %d wrote %d bytes, left %v",
				f.Name, f.Offset, fs.TotalWritten()-before, names)
		}
	}
}

// scanMem is CatchupScan over an in-memory follower directory.
func scanMem(t *testing.T, fs *fsx.Mem) (have bool, gen uint64, offset int64) {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if g, ok := parseGen(name, walPrefix, walSuffix); ok {
			data, err := fs.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			have, gen, offset = true, g, int64(len(data))
		}
	}
	return have, gen, offset
}

// TestCatchupInstallCrashAtEveryByte kills a follower's install of a
// catch-up delta at every byte offset it writes — a cold follower's
// Reset (snapshot plus log) and an incremental delta across a leader
// rotation (a log suffix plus a whole new log) — and reopens both the
// fsynced and the flushed view of what the crash left. Open must never
// fail, the recovered table must be a prefix of the leader's that keeps
// everything the follower held before the install, and one more
// catch-up round from the crashed directory must converge to the
// leader's table with byte-identical k-NN answers.
//
// Sizing: the Reset install writes 4,743 bytes. Written in place under
// its final name, as installs once were, the shipped snapshot is torn
// by a crash inside it, and 3,825 of the 4,743 flushed views failed
// Open with ErrCorrupt (none of the fsynced ones); committed by tmp,
// fsync and rename, as the leader commits its own, every view opens.
func TestCatchupInstallCrashAtEveryByte(t *testing.T) {
	opts := durableOpts()
	leader, err := openDurable(opts, fsx.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	insert := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := leader.Insert(durPoint(i, opts.Dim)); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkpoint := func() {
		if err := leader.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	insert(0, 40)
	checkpoint()
	insert(40, 60)
	reset, err := leader.Catchup(false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	follower := fsx.NewMem()
	if err := installDelta(follower, reset); err != nil {
		t.Fatal(err)
	}
	insert(60, 75)
	checkpoint()
	insert(75, 90)
	have, gen, off := scanMem(t, follower)
	incr, err := leader.Catchup(have, gen, off)
	if err != nil {
		t.Fatal(err)
	}
	if !reset.Reset || incr.Reset || len(incr.Files) != 2 {
		t.Fatalf("deltas: reset %v with %d files, incremental reset %v with %d files",
			reset.Reset, len(reset.Files), incr.Reset, len(incr.Files))
	}
	want := tableOf(leader)

	// converge checks one crashed view: it opens to a prefix of the
	// leader's table holding at least floor slots, and one more round
	// brings it to the leader's table and answers.
	converge := func(view *fsx.Mem, floor int, label string) {
		re, err := openDurable(opts, view)
		if err != nil {
			t.Fatalf("%s: crashed follower refused: %v", label, err)
		}
		got := tableOf(re)
		if len(got) < floor || len(got) > len(want) || !tablesEqual(got, want[:len(got)]) {
			t.Fatalf("%s: recovered %d slots, not a prefix of the leader's %d holding the %d installed before",
				label, len(got), len(want), floor)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		have, gen, off := scanMem(t, view)
		delta, err := leader.Catchup(have, gen, off)
		if err != nil {
			t.Fatal(err)
		}
		if err := installDelta(view, delta); err != nil {
			t.Fatalf("%s: catch-up after the crash: %v", label, err)
		}
		re, err = openDurable(opts, view)
		if err != nil {
			t.Fatalf("%s: caught-up follower refused: %v", label, err)
		}
		if !tablesEqual(tableOf(re), want) {
			t.Fatalf("%s: caught-up follower's table differs from the leader's", label)
		}
		for q := 0; q < 3; q++ {
			query := durPoint(q*17+5, opts.Dim)
			gotN, _, err := re.KNN(query, 4)
			if err != nil {
				t.Fatal(err)
			}
			wantN, _, err := leader.KNN(query, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotN, wantN) {
				t.Fatalf("%s query %d: caught-up follower answers differ from the leader's", label, q)
			}
		}
	}

	for _, c := range []struct {
		name   string
		before *fsx.Mem
		floor  int
		delta  CatchupDelta
	}{
		{"reset", fsx.NewMem(), 0, reset},
		{"incremental", follower, 60, incr},
	} {
		golden := c.before.FlushedView()
		if err := installDelta(golden, c.delta); err != nil {
			t.Fatal(err)
		}
		total := golden.TotalWritten()
		t.Logf("%s: crashing at each of %d bytes", c.name, total)
		for off := int64(0); off < total; off++ {
			fs := c.before.FlushedView()
			fs.CrashAfter(off)
			if err := installDelta(fs, c.delta); err == nil || !fs.Crashed() {
				t.Fatalf("%s: install of %d bytes survived a crash at byte %d", c.name, total, off)
			}
			converge(fs.DurableView(), c.floor, fmt.Sprintf("%s/durable@%d", c.name, off))
			converge(fs.FlushedView(), c.floor, fmt.Sprintf("%s/flushed@%d", c.name, off))
		}
	}
}

func TestCatchupFollowerAheadIsReset(t *testing.T) {
	leader, opts := catchupLeader(t)
	for i := 0; i < 8; i++ {
		if _, err := leader.Insert(durPoint(i, opts.Dim)); err != nil {
			t.Fatal(err)
		}
	}
	have, gen, off, err := CatchupScan(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if !have {
		t.Fatal("leader's own dir scans as empty")
	}
	// A follower claiming more bytes than the leader has (a divergent
	// chain, e.g. the leader truncated a torn tail) must be reset, not
	// served a negative-length delta.
	delta, err := leader.Catchup(true, gen, off+4096)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Reset {
		t.Fatal("follower ahead of the leader was not reset")
	}
}

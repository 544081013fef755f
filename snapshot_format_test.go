package parsearch

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"parsearch/internal/data"
	"parsearch/internal/fsx"
	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// The version-1 golden: testdata/snapshot_v1.sha256 holds the SHA-256 of
// the snapshot an index writes once it has been mutated since its build
// (one Insert and one Delete). Such an index writes the point table, byte
// for byte as every version-1 reader expects. The line is named
// packed=true: the file held a float64 twin while that storage existed.
// Regenerate it (PARSEARCH_GEN_GOLDEN=1) only with a change that means
// to alter the format.
const snapshotV1Golden = "testdata/snapshot_v1.sha256"

// mutatedSnapshot builds a small index, inserts one point, deletes one
// and returns what Save writes.
func mutatedSnapshot(t *testing.T) []byte {
	t.Helper()
	ix, err := Open(Options{Dim: 6, Disks: 4, PageSize: 1024, QuantileSplits: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(data.Uniform(900, 6, 31)); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert([]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(17); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The version-2 golden: testdata/snapshot_v2.sha256 holds the SHA-256 of
// the snapshot an as-built index writes — replicated, with a baseline and
// a tombstone, so every kind of tree section is pinned; its line is named
// as the version-1 golden's. Regenerate it (PARSEARCH_GEN_GOLDEN=1) only with a change that
// means to alter the format.
const snapshotV2Golden = "testdata/snapshot_v2.sha256"

// asBuiltSnapshot builds a small index and returns what Save writes.
func asBuiltSnapshot(t *testing.T) []byte {
	t.Helper()
	ix, err := Open(Options{Dim: 6, Disks: 4, PageSize: 1024, QuantileSplits: true,
		Replication: 1, Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	pts := data.Uniform(900, 6, 31)
	pts[17] = nil
	if err := ix.Build(pts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotV1Golden: a mutated index writes the version-1 bytes.
func TestSnapshotV1Golden(t *testing.T) {
	checkSnapshotGolden(t, snapshotV1Golden, snapshotPoints, mutatedSnapshot)
}

// TestSnapshotV2Golden: an as-built index writes the version-2 bytes.
func TestSnapshotV2Golden(t *testing.T) {
	checkSnapshotGolden(t, snapshotV2Golden, snapshotTrees, asBuiltSnapshot)
}

// checkSnapshotGolden compares the SHA-256 of snap's bytes with the
// golden file, after checking their format version.
func checkSnapshotGolden(t *testing.T, golden string, version uint32, snap func(*testing.T) []byte) {
	raw := snap(t)
	if v := snapshotVersionOf(raw); v != version {
		t.Fatalf("snapshot version %d, want %d", v, version)
	}
	var got bytes.Buffer
	fmt.Fprintf(&got, "packed=true %x\n", sha256.Sum256(raw))
	if os.Getenv("PARSEARCH_GEN_GOLDEN") != "" {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("version-%d snapshot bytes changed:\n got  %s want %s", version, got.String(), want)
	}
}

// goldenDigests reads testdata/build_digests.golden into a map from
// configuration name to its digest line.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(buildDigestGolden)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, digest, _ := strings.Cut(line, " ")
		out[name] = digest
	}
	return out
}

// snapshotVersionOf reads the format version of a snapshot.
func snapshotVersionOf(raw []byte) uint32 {
	return binary.LittleEndian.Uint32(raw[len(snapshotMagic):])
}

// leafIDs returns the IDs of each primary of the index in leaf order.
func leafIDs(ix *Index) [][]int {
	var out [][]int
	for _, t := range ix.st.shards {
		var ids []int
		for _, e := range leafEntries(t) {
			ids = append(ids, e.ID)
		}
		out = append(out, ids)
	}
	return out
}

// entryIDs returns the IDs of the entries in order.
func entryIDs(es []xtree.Entry) []int {
	ids := make([]int, len(es))
	for i, e := range es {
		ids[i] = e.ID
	}
	return ids
}

// TestLoadDigest: for every build configuration, at GOMAXPROCS 1, 2 and
// 8, Save → Load hashes to the configuration's line of the build golden
// — the loaded index is its built twin — and saves the same bytes again.
// A durable Build reopened with no logged mutation recovers the same
// index too (at GOMAXPROCS 1: recovery assembles as Load does).
func TestLoadDigest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	golden := goldenDigests(t)
	for _, c := range digestCases() {
		want, ok := golden[c.name]
		if !ok {
			t.Fatalf("%s: no golden line", c.name)
		}
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			ix, err := Open(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Build(c.points()); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := ix.Save(&buf); err != nil {
				t.Fatal(err)
			}
			raw := bytes.Clone(buf.Bytes())
			loaded, err := Load(&buf)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if got := stateDigest(loaded); got != want {
				t.Errorf("%s at GOMAXPROCS %d: loaded digest\n  %s\nwant\n  %s", c.name, procs, got, want)
			}
			if err := loaded.CheckIntegrity(); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
			buf.Reset()
			if err := loaded.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), raw) {
				t.Errorf("%s: the loaded index saves other bytes than its built twin", c.name)
			}

			if procs != 1 {
				continue
			}
			fs := fsx.NewMem()
			opts := c.opts
			opts.Durable = true
			dur, err := openDurable(opts, fs)
			if err != nil {
				t.Fatal(err)
			}
			if err := dur.Build(c.points()); err != nil {
				t.Fatal(err)
			}
			if err := dur.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := openDurable(opts, fs)
			if err != nil {
				t.Fatalf("%s: reopening: %v", c.name, err)
			}
			if got := stateDigest(re); got != want {
				t.Errorf("%s at GOMAXPROCS %d: reopened digest\n  %s\nwant\n  %s", c.name, procs, got, want)
			}
			if err := re.CheckIntegrity(); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		}
	}
}

// TestLoadReadsOnce: Load's read (readSnapshot) returns a snapshot's
// exact bytes from an *os.File at offset 0, an *os.File past its
// caller's own header, a *bytes.Reader and a reader that hints no size
// (iotest.OneByteReader). The three that know their size fill one
// buffer, allocated once (a file's Stat allocates besides). A reader
// that fails mid-stream returns its error. Every source that reads
// loads to the build golden's line of the snapshot's configuration.
func TestLoadReadsOnce(t *testing.T) {
	cases := digestCases()
	c := cases[slices.IndexFunc(cases, func(c digestCase) bool { return c.name == "tombstones" })]
	want := goldenDigests(t)[c.name]
	ix, err := Open(c.opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(c.points()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	header := []byte("a caller's own header")
	file := func(name string, b []byte) *os.File {
		f, err := os.Create(filepath.Join(t.TempDir(), name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
		return f
	}
	plain := file("plain", raw)
	headed := file("headed", append(slices.Clone(header), raw...))
	stat := testing.AllocsPerRun(10, func() { plain.Stat() })
	br := bytes.NewReader(nil)
	for _, src := range []struct {
		name   string
		open   func() io.Reader
		allocs float64 // -1: not counted
	}{
		{"file", func() io.Reader { plain.Seek(0, io.SeekStart); return plain }, 1 + stat},
		{"file past a header", func() io.Reader { headed.Seek(int64(len(header)), io.SeekStart); return headed }, 1 + stat},
		{"bytes.Reader", func() io.Reader { br.Reset(raw); return br }, 1},
		{"no hint", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(raw)) }, -1},
	} {
		got, err := readSnapshot(src.open())
		if err != nil || !bytes.Equal(got, raw) {
			t.Errorf("%s: read %d bytes (%v), want the snapshot's %d", src.name, len(got), err, len(raw))
		}
		if src.allocs >= 0 {
			if n := testing.AllocsPerRun(5, func() { readSnapshot(src.open()) }); n != src.allocs {
				t.Errorf("%s: %v allocations a read, want %v", src.name, n, src.allocs)
			}
		}
		loaded, err := Load(src.open())
		if err != nil {
			t.Errorf("%s: %v", src.name, err)
		} else if got := stateDigest(loaded); got != want {
			t.Errorf("%s: loaded digest\n  %s\nwant\n  %s", src.name, got, want)
		}
	}
	boom := errors.New("the disk went away")
	failing := func() io.Reader {
		return io.MultiReader(bytes.NewReader(raw[:len(raw)/2]), iotest.ErrReader(boom))
	}
	if _, err := readSnapshot(failing()); !errors.Is(err, boom) {
		t.Errorf("a reader failing mid-stream: read says %v, want its error", err)
	}
	if _, err := Load(failing()); !errors.Is(err, boom) {
		t.Errorf("a reader failing mid-stream: Load says %v, want its error", err)
	}
}

// forgeIndex is the small as-built index the refusal table forges
// version-2 snapshots from: two dimensions, three disks, small pages (12
// entries a leaf, 6 children a directory), a replica of every disk, a
// baseline, and every fifth ID a tombstone.
func forgeIndex(t testing.TB) *Index {
	t.Helper()
	ix, err := Open(Options{Dim: 2, Disks: 3, PageSize: 256, Replication: 1, Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	pts := data.Uniform(75, 2, 41)
	for i := 0; i < len(pts); i += 5 {
		pts[i] = nil
	}
	if err := ix.Build(pts); err != nil {
		t.Fatal(err)
	}
	return ix
}

// splitTrees cuts a version-2 snapshot into the bytes before its tree
// sections, the sections, and the bytes after them up to the CRC.
func splitTrees(t testing.TB, raw []byte) (head []byte, sections [][]byte, tail []byte) {
	t.Helper()
	sd, _, err := parseSnapshotPayload(raw)
	if err != nil || sd.trees == nil {
		t.Fatalf("not a version-2 snapshot: %v", err)
	}
	end := len(raw) - 4
	trees := 0
	for _, s := range sd.trees.sections {
		trees += 8 + len(s)
	}
	tailLen := 4 + len(sd.metrics)
	return raw[:end-tailLen-trees], sd.trees.sections, raw[end-tailLen : end]
}

// joinTrees is splitTrees' inverse, with a fresh CRC.
func joinTrees(head []byte, sections [][]byte, tail []byte) []byte {
	out := bytes.Clone(head)
	for _, s := range sections {
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s)))
		out = append(out, s...)
	}
	out = append(out, tail...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// lnode is a tree node as the refusal table writes it, in the layout
// xtree.Tree.AppendLayout writes (see internal/xtree/layout.go).
type lnode struct {
	leaf    bool
	super   uint32
	kids    []lnode
	entries []xtree.Entry
}

func (n lnode) layout(b []byte, points bool) []byte {
	kind, count := byte(0), len(n.kids)
	if n.leaf {
		kind, count = 1, len(n.entries)
	}
	super := n.super
	if super == 0 {
		super = 1
	}
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint32(b, uint32(count))
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint32(b, super)
	for _, k := range n.kids {
		b = k.layout(b, points)
	}
	for _, e := range n.entries {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.ID))
		if points {
			for _, x := range e.Point {
				b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(x)))
			}
		}
	}
	return b
}

// flat lays the entries out as leaves of at most 10, under directories
// of at most 6 children.
func flat(entries []xtree.Entry) lnode {
	if len(entries) == 0 {
		return lnode{}
	}
	var level []lnode
	for len(entries) > 0 {
		n := min(10, len(entries))
		level = append(level, lnode{leaf: true, entries: entries[:n]})
		entries = entries[n:]
	}
	for {
		var up []lnode
		for len(level) > 0 {
			n := min(6, len(level))
			up = append(up, lnode{kids: level[:n]})
			level = level[n:]
		}
		if len(up) == 1 {
			return up[0]
		}
		level = up
	}
}

// leafEntries returns a tree's entries in leaf order.
func leafEntries(tr *xtree.Tree) []xtree.Entry {
	var out []xtree.Entry
	var walk func(n *xtree.Node)
	walk = func(n *xtree.Node) {
		out = append(out, n.Entries()...)
		for _, c := range n.Children() {
			walk(c)
		}
	}
	if tr.Root() != nil {
		walk(tr.Root())
	}
	return out
}

// forged is one version-2 snapshot the refusal table writes: the
// primaries' entries, and the replica and baseline entries derived from
// them unless set.
type forged struct {
	primaries [][]xtree.Entry
	replicas  [][]xtree.Entry // by hosting disk
	baseline  []xtree.Entry
	// primary, when set, replaces disk 0's section with this node.
	primary *lnode
}

func (f *forged) sections() [][]byte {
	n := len(f.primaries)
	var secs [][]byte
	for _, es := range f.primaries {
		secs = append(secs, flat(es).layout(nil, true))
	}
	if f.primary != nil {
		secs[0] = f.primary.layout(nil, true)
	}
	var all []xtree.Entry
	for r := 0; r < n; r++ {
		es := f.primaries[(r+n-1)%n]
		if f.replicas != nil && f.replicas[r] != nil {
			es = f.replicas[r]
		}
		secs = append(secs, flat(es).layout(nil, false))
		all = append(all, f.primaries[r]...)
	}
	if f.baseline != nil {
		all = f.baseline
	}
	return append(secs, flat(all).layout(nil, false))
}

// TestLoadRefusals: Load refuses every version-2 snapshot whose trees the
// build could not have made — by the refusal named — and any truncation
// of one, whatever its CRC says.
func TestLoadRefusals(t *testing.T) {
	ix := forgeIndex(t)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	head, _, tail := splitTrees(t, raw)
	ids := ix.tbl.len()
	base := func() *forged {
		f := &forged{}
		for _, tr := range ix.st.shards {
			f.primaries = append(f.primaries, slices.Clone(leafEntries(tr)))
		}
		return f
	}
	tombstone := 0 // ID 0 is deleted
	cases := []struct {
		name  string
		forge func(f *forged)
		want  string // "" loads
	}{
		{"control: the same points in other leaves", func(f *forged) {}, ""},
		{"ID out of range", func(f *forged) { f.primaries[0][0].ID = ids + 1 }, "holds ID"},
		{"ID repeated in a tree", func(f *forged) { f.primaries[0][1].ID = f.primaries[0][0].ID }, "held twice"},
		{"ID repeated across trees", func(f *forged) {
			f.primaries[1] = append(f.primaries[1], f.primaries[0][0])
		}, "held twice"},
		{"NaN coordinate", func(f *forged) { f.primaries[0][0].Point = vec.Point{math.NaN(), 0.5} }, "not finite"},
		{"infinite coordinate", func(f *forged) { f.primaries[2][3].Point = vec.Point{0.5, math.Inf(-1)} }, "not finite"},
		{"point on the wrong disk", func(f *forged) {
			f.primaries[1] = append(f.primaries[1], f.primaries[0][0])
			f.primaries[0] = f.primaries[0][1:]
		}, "the assigner puts it"},
		{"replica missing an ID", func(f *forged) {
			f.replicas = make([][]xtree.Entry, 3)
			f.replicas[replicaOf(0, 3)] = f.primaries[0][1:]
		}, "replica on disk 1 holds"},
		{"replica holding another disk's ID", func(f *forged) {
			f.replicas = make([][]xtree.Entry, 3)
			f.replicas[replicaOf(0, 3)] = append(slices.Clone(f.primaries[0][1:]), f.primaries[2][0])
		}, "not once a point of disk 0"},
		{"replica holding an ID twice", func(f *forged) {
			f.replicas = make([][]xtree.Entry, 3)
			f.replicas[replicaOf(0, 3)] = append(slices.Clone(f.primaries[0][1:]), f.primaries[0][1])
		}, "not once a point of disk 0"},
		{"baseline missing an ID", func(f *forged) {
			f.baseline = slices.Concat(f.primaries[0][1:], f.primaries[1], f.primaries[2])
		}, "the baseline holds"},
		{"baseline holding a tombstone", func(f *forged) {
			f.baseline = slices.Concat(f.primaries[0], f.primaries[1], f.primaries[2],
				[]xtree.Entry{{ID: tombstone}})
		}, "the baseline holds ID 0"},
		{"baseline holding an ID twice", func(f *forged) {
			f.baseline = slices.Concat(f.primaries[0], f.primaries[1], f.primaries[2][1:], f.primaries[2][:2])
		}, "not once a live point"},
		{"empty node", func(f *forged) {
			f.primary = &lnode{kids: append(flat(f.primaries[0]).kids, lnode{})}
		}, "empty node"},
		{"leaf over capacity", func(f *forged) {
			es := f.primaries[0]
			f.primary = &lnode{kids: []lnode{{leaf: true, entries: es[:13]}, flat(es[13:]).kids[0]}}
		}, "exceeds capacity"},
		{"directory over capacity", func(f *forged) {
			root := lnode{}
			for _, e := range f.primaries[0] {
				root.kids = append(root.kids, lnode{leaf: true, entries: []xtree.Entry{e}})
			}
			f.primary = &root
		}, "exceeds capacity"},
		{"leaves at different depths", func(f *forged) {
			kids := flat(f.primaries[0]).kids
			f.primary = &lnode{kids: []lnode{kids[0], {kids: kids[1:]}}}
		}, "expected"},
		{"leaf with super 2", func(f *forged) {
			kids := flat(f.primaries[0]).kids
			kids[0].super = 2
			f.primary = &lnode{kids: kids}
		}, "leaf with super 2"},
	}
	for _, c := range cases {
		f := base()
		c.forge(f)
		_, err := Load(bytes.NewReader(joinTrees(head, f.sections(), tail)))
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: Load says %v, want a refusal naming %q", c.name, err, c.want)
		}
	}

	// The counts that size an allocation are bounded by the bytes left.
	count := len(head) - 8
	huge := bytes.Clone(head)
	binary.LittleEndian.PutUint64(huge[count:], uint64(len(raw)))
	if _, err := Load(bytes.NewReader(joinTrees(huge, base().sections(), tail))); err == nil ||
		!strings.Contains(err.Error(), "points in") {
		t.Errorf("an ID space larger than the bytes left: %v", err)
	}
	long := bytes.Clone(raw[:len(head)])
	long = binary.LittleEndian.AppendUint64(long, uint64(len(raw)))
	long = binary.LittleEndian.AppendUint32(long, crc32.ChecksumIEEE(long))
	if _, err := Load(bytes.NewReader(long)); err == nil || !strings.Contains(err.Error(), "claims") {
		t.Errorf("a tree section longer than the bytes left: %v", err)
	}

	// Truncation at every byte: with the CRC of the whole snapshot, and
	// with a fresh one over the prefix, so that the parse meets the cut.
	for i := range raw {
		if _, err := Load(bytes.NewReader(raw[:i])); err == nil {
			t.Fatalf("a snapshot cut at byte %d of %d loaded", i, len(raw))
		}
		if i < len(raw)-4 {
			cut := binary.LittleEndian.AppendUint32(bytes.Clone(raw[:i]), crc32.ChecksumIEEE(raw[:i]))
			if _, err := Load(bytes.NewReader(cut)); err == nil {
				t.Fatalf("a payload cut at byte %d of %d loaded under a fresh CRC", i, len(raw)-4)
			}
		}
	}
}

// TestStageOneIgnoresLeafOrder: the order in which a snapshot's leaves
// hold the points does not reach stage one. A version-2 snapshot whose
// primaries hold their points shuffled into other leaves loads, and stage
// one over the point table its read primaries fill — leaf by leaf, in
// their shuffled order — yields what Build's stage one yields over its
// point table: the same splits, the same cell table (keys,
// order, counts, disks, regions), and the same cell for every ID. The
// loaded index carries that cell table too. Midpoint, quantile and
// recursive configurations, at GOMAXPROCS 1 and 2.
func TestStageOneIgnoresLeafOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	withTombstones := func(pts [][]float64) [][]float64 {
		for i := 0; i < len(pts); i += 5 {
			pts[i] = nil
		}
		return pts
	}
	// A quarter uniform, the rest one tight cluster, which overloads its
	// disk.
	skewed := append(data.Uniform(100, 2, 62), data.Clustered(300, 2, 1, 0.04, 63)...)
	midpoint := Options{Dim: 2, Disks: 3, PageSize: 256, Replication: 1, Baseline: true}
	quantile, recursive := midpoint, midpoint
	quantile.QuantileSplits = true
	recursive.Recursive = true
	for _, c := range []struct {
		name string
		opts Options
		pts  [][]float64
	}{
		{"midpoint", midpoint, withTombstones(data.Uniform(400, 2, 61))},
		{"quantile", quantile, withTombstones(data.Uniform(400, 2, 61))},
		{"recursive", recursive, withTombstones(skewed)},
	} {
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			name := fmt.Sprintf("%s at GOMAXPROCS %d", c.name, procs)
			ix, err := Open(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Build(c.pts); err != nil {
				t.Fatal(err)
			}
			want, wantCellOf, err := ix.decluster(ix.tbl, ix.live, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.opts.Recursive && !recursed(want) {
				t.Fatalf("%s: the recursive assigner expanded no cell", name)
			}

			var buf bytes.Buffer
			if err := ix.Save(&buf); err != nil {
				t.Fatal(err)
			}
			head, _, tail := splitTrees(t, buf.Bytes())
			rng := rand.New(rand.NewSource(64))
			f := &forged{}
			for _, tr := range ix.st.shards {
				es := slices.Clone(leafEntries(tr))
				rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
				f.primaries = append(f.primaries, es)
			}
			raw := joinTrees(head, f.sections(), tail)
			loaded, err := Load(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameStageOne(t, name+", loaded", want, loaded.st)
			for d, ids := range leafIDs(loaded) {
				if !slices.Equal(ids, entryIDs(f.primaries[d])) {
					t.Fatalf("%s: a version-2 snapshot loaded without assembling its trees", name)
				}
			}

			sd, _, err := parseSnapshotPayload(raw)
			if err != nil {
				t.Fatal(err)
			}
			_, tbl, _, err := ix.readPrimaries(sd.trees)
			if err != nil {
				t.Fatal(err)
			}
			got, gotCellOf, err := ix.decluster(tbl, ix.live, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameStageOne(t, name+", assembled", want, got)
			for id := range ix.tbl.len() {
				if ix.tbl.has(id) && gotCellOf[id] != wantCellOf[id] {
					t.Errorf("%s: ID %d is in cell %d, Build puts it in cell %d", name, id, gotCellOf[id], wantCellOf[id])
					break
				}
			}
		}
	}
}

// recursed reports whether a recursive assigner's cell table holds a
// cell below the first level, whose key is longer than a quadrant's.
func recursed(st *state) bool {
	short, long := math.MaxInt, 0
	for key := range st.cellIndex {
		short, long = min(short, len(key)), max(long, len(key))
	}
	return long > short
}

// sameStageOne compares what stage one decides: the splits bit for bit,
// and the cell table in stored order with each cell's key, disk, count
// and region.
func sameStageOne(t *testing.T, name string, want, got *state) {
	t.Helper()
	if w, g := splitValues(want), splitValues(got); !slices.EqualFunc(w, g, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	}) {
		t.Errorf("%s: splits %v, Build's %v", name, g, w)
	}
	keysOf := func(st *state) []string {
		keys := make([]string, len(st.cells))
		for key, c := range st.cellIndex {
			keys[c] = key
		}
		return keys
	}
	if w, g := keysOf(want), keysOf(got); !slices.Equal(w, g) {
		t.Errorf("%s: cells keyed %q, Build's %q", name, g, w)
		return
	}
	for i, w := range want.cells {
		g := got.cells[i]
		if g.disk != w.disk || g.count != w.count || !reflect.DeepEqual(g.rect, w.rect) {
			t.Errorf("%s: cell %d is %+v, Build's %+v", name, i, g, w)
		}
	}
}

// TestDurableRecoveryFromTrees: a durable Build commits a version-2
// snapshot. Reopened after a logged insert and delete, recovery replays
// into its points and builds, as from version 1; reopened under other
// tree options, it reads the snapshot under its own options for the
// points. Either way the index is the one Build makes from the recovered
// points. A layout the build could not have made is ErrCorrupt on both
// paths.
func TestDurableRecoveryFromTrees(t *testing.T) {
	opts := Options{Dim: 4, Disks: 4, PageSize: 512, Replication: 1, Durable: true}
	pts := data.Uniform(600, 4, 51)
	built := func(t *testing.T) *fsx.Mem {
		fs := fsx.NewMem()
		ix, err := openDurable(opts, fs)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Build(pts); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	// twin builds the recovered table under the given options.
	twin := func(t *testing.T, o Options, table [][]float64) string {
		o.Durable = false
		ix, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Build(table); err != nil {
			t.Fatal(err)
		}
		return stateDigest(ix)
	}

	t.Run("logged mutations", func(t *testing.T) {
		fs := built(t)
		ix, err := openDurable(opts, fs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Insert([]float64{0.5, 0.5, 0.5, 0.5}); err != nil {
			t.Fatal(err)
		}
		if err := ix.Delete(3); err != nil {
			t.Fatal(err)
		}
		want := tableOf(ix)
		re, err := openDurable(opts, fs) // no Close: the image a crash leaves
		if err != nil {
			t.Fatal(err)
		}
		if got := tableOf(re); !reflect.DeepEqual(got, want) {
			t.Fatal("the recovered table differs")
		}
		if got, want := stateDigest(re), twin(t, opts, want); got != want {
			t.Fatalf("recovered digest\n  %s\nwant the build's\n  %s", got, want)
		}
		if err := re.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("other options", func(t *testing.T) {
		fs := built(t)
		other := opts
		other.Disks, other.Replication = 3, 0
		re, err := openDurable(other, fs)
		if err != nil {
			t.Fatal(err)
		}
		table := tableOf(re)
		if len(table) != len(pts) {
			t.Fatalf("recovered %d slots, want %d", len(table), len(pts))
		}
		if got, want := stateDigest(re), twin(t, other, table); got != want {
			t.Fatalf("recovered digest\n  %s\nwant the build's\n  %s", got, want)
		}
	})

	// forge rewrites the snapshot under a fresh CRC with disk 0's entries,
	// in leaf order, edited.
	forge := func(t *testing.T, fs *fsx.Mem, edit func(es []xtree.Entry)) {
		name := snapName(1)
		raw, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		head, secs, tail := splitTrees(t, raw)
		cfg := xtree.DefaultConfig(4)
		cfg.LeafCapacity = xtree.LeafCapacityForPage(4, 512)
		cfg.DirCapacity = xtree.DirCapacityForPage(4, 512)
		tr, err := xtree.ReadLayout(cfg, secs[0], 4, func(int, []float32) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		es := leafEntries(tr)
		edit(es)
		secs = slices.Clone(secs)
		secs[0] = flat(es).layout(nil, true)
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(joinTrees(head, secs, tail)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Trees Build would not make, but valid, are assembled as they are:
	// disk 0's entries reversed in leaf order.
	t.Run("assembled", func(t *testing.T) {
		fs := built(t)
		var want []int
		forge(t, fs, func(es []xtree.Entry) {
			slices.Reverse(es)
			want = entryIDs(es)
		})
		re, err := openDurable(opts, fs)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(leafIDs(re)[0], want) {
			t.Fatal("durable recovery rebuilt what it could assemble")
		}
		if err := re.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
	})

	// The snapshot is checked whether recovery keeps its trees, rebuilds
	// them after a logged mutation, or rebuilds under other options.
	other := opts
	other.Disks, other.Replication = 3, 0
	for _, c := range []struct {
		name   string
		mutate bool
		reopen Options
	}{{"clean", false, opts}, {"logged mutation", true, opts}, {"other options", false, other}} {
		fs := built(t)
		if c.mutate {
			ix, err := openDurable(opts, fs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ix.Insert([]float64{0.5, 0.5, 0.5, 0.5}); err != nil {
				t.Fatal(err)
			}
		}
		// A snapshot whose disk 0 holds an ID twice.
		forge(t, fs, func(es []xtree.Entry) { es[1].ID = es[0].ID })
		if _, err := openDurable(c.reopen, fs); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "held twice") {
			t.Errorf("%s: a forged layout reopened with %v, want ErrCorrupt naming the ID held twice", c.name, err)
		}
	}
}

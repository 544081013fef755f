package parsearch

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"parsearch/internal/data"
)

// packedSnapshotPayload builds a snapshot of a packed index as an old
// quantized one saved it (float32 point table, flag bits 32|64: the
// retired bit 64 is forged on, since Save no longer writes it) and
// returns its payload with the trailing CRC-32 stripped, so fuzz
// mutations reach the parser instead of dying at the checksum.
func packedSnapshotPayload(f *testing.F) []byte {
	f.Helper()
	ix, err := Open(Options{Dim: 5, Disks: 3})
	if err != nil {
		f.Fatal(err)
	}
	pts := data.Uniform(80, 5, 11)
	if err := ix.Build(pts); err != nil {
		f.Fatal(err)
	}
	if err := ix.Delete(9); err != nil { // a tombstone slot in the table
		f.Fatal(err)
	}
	for _, q := range data.Uniform(3, 5, 12) {
		if _, _, err := ix.KNN(q, 2); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		f.Fatal(err)
	}
	payload := buf.Bytes()[:buf.Len()-4]
	payload[snapshotFlagsOffset] |= flagQuantize
	return payload
}

// snapshotFlagsOffset is the byte offset of the header's flag byte.
const snapshotFlagsOffset = len(snapshotMagic) + 4*4

// resealSnapshot appends the CRC-32 of a (possibly forged) payload.
func resealSnapshot(payload []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), payload...), crc32.ChecksumIEEE(payload))
}

// snapshotCountOffset walks the fixed header and the two length-prefixed
// strings to the byte offset of the uint64 point count.
func snapshotCountOffset(payload []byte) int {
	off := snapshotFlagsOffset + 1 + 8 + 8 + 8
	off += 2 + int(binary.LittleEndian.Uint16(payload[off:])) // Kind
	off += 2 + int(binary.LittleEndian.Uint16(payload[off:])) // CostModel
	return off
}

// FuzzSlabRoundtrip fuzzes the snapshot's storage bits (header flags
// 32/64 and the 4-byte float32 point table). The seeds cover the failure
// shapes of the two coordinate widths: the packed flag flipped in either
// direction (so the coordinate stride disagrees with the table — a
// dimension/size mismatch the loader must reject, not misparse),
// truncation mid-point-table, and a forged huge point count that must be
// rejected before any allocation is sized from it. A payload that loads
// must be queryable and must survive Save→Load with bitwise-identical
// query results.
func FuzzSlabRoundtrip(f *testing.F) {
	payload := packedSnapshotPayload(f)
	f.Add(payload)

	// Packed flag cleared but the table still holds float32 coords: the
	// loader reads the 8-byte strides of a snapshot written when float64
	// was stored, and must fail cleanly (short table or trailing bytes),
	// never panic.
	unpacked := append([]byte(nil), payload...)
	unpacked[snapshotFlagsOffset] &^= flagPacked
	f.Add(unpacked)

	// The same without the retired quantize bit beside it: the bit is
	// ignored, so both fail on the stride alone.
	unpackedPlain := append([]byte(nil), unpacked...)
	unpackedPlain[snapshotFlagsOffset] &^= flagQuantize
	f.Add(unpackedPlain)

	// Packed flag forged onto a float64 snapshot: 4-byte strides leave
	// half the table unread — the loader must reject the leftovers.
	raw64, err := os.ReadFile("testdata/pre_slab_golden.snap")
	if err != nil {
		f.Fatal(err)
	}
	forged := raw64[:len(raw64)-4]
	forged[snapshotFlagsOffset] |= flagPacked
	f.Add(forged)

	// Truncated mid-point-table (count intact, coordinates missing).
	countOff := snapshotCountOffset(payload)
	f.Add(payload[:countOff+8+3+2*(1+4*5)])

	// A forged huge count: must be rejected by the plausibility bounds
	// before make() ever sees it — the fuzz harness itself would OOM
	// otherwise.
	huge := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint64(huge[countOff:], 1<<60)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, b []byte) {
		loaded, err := Load(bytes.NewReader(resealSnapshot(b)))
		if err != nil {
			return
		}
		if loaded.Len() == 0 {
			return
		}
		q := make([]float64, loaded.opts.Dim)
		res, _, err := loaded.KNN(q, 2)
		if err != nil {
			t.Fatalf("loaded index cannot be queried: %v", err)
		}
		var again bytes.Buffer
		if err := loaded.Save(&again); err != nil {
			t.Fatalf("re-saving loaded index: %v", err)
		}
		reloaded, err := Load(bytes.NewReader(again.Bytes()))
		if err != nil {
			t.Fatalf("re-loading saved index: %v", err)
		}
		if reloaded.Len() != loaded.Len() {
			t.Fatalf("round-trip changed Len: %d -> %d", loaded.Len(), reloaded.Len())
		}
		res2, _, err := reloaded.KNN(q, 2)
		if err != nil {
			t.Fatalf("round-tripped index cannot be queried: %v", err)
		}
		if !sameNeighbors(res2, res) {
			t.Fatalf("round-trip changed query results:\n got %+v\nwant %+v", res2, res)
		}
	})
}

// TestRetiredQuantizeFlagIgnored pins the compatibility rule of the
// retired snapshot flag: a snapshot carrying bit 64 — what an index with
// the removed SQ8 option saved — loads as the same index, answers byte
// for byte like its unflagged twin, and saves without the bit.
func TestRetiredQuantizeFlagIgnored(t *testing.T) {
	ix, err := Open(Options{Dim: 5, Disks: 3, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(data.Uniform(300, 5, 31)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	plain := buf.Bytes()
	if plain[snapshotFlagsOffset]&flagQuantize != 0 {
		t.Fatalf("Save wrote the retired flag")
	}
	flagged := append([]byte(nil), plain[:len(plain)-4]...)
	flagged[snapshotFlagsOffset] |= flagQuantize
	flagged = resealSnapshot(flagged)

	twin, err := Load(bytes.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	old, err := Load(bytes.NewReader(flagged))
	if err != nil {
		t.Fatalf("snapshot with the retired flag: %v", err)
	}
	var again bytes.Buffer
	if err := old.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), plain) {
		t.Fatalf("re-saving the flagged snapshot differs from its unflagged twin")
	}
	for qi, q := range data.Uniform(10, 5, 32) {
		want, wantStats, err := twin.KNN(q, 7)
		if err != nil {
			t.Fatal(err)
		}
		got, gotStats, err := old.KNN(q, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !sameNeighbors(got, want) || gotStats.TotalPages != wantStats.TotalPages {
			t.Fatalf("query %d: flagged snapshot answers differently:\n got  %v\n want %v", qi, got, want)
		}
	}
}

// TestPreSlabGoldenSnapshot loads the committed golden snapshot written
// by the pre-slab (float64-table) code and checks the current loader
// still honors it: the format is append-only, old snapshots must keep
// loading forever. It loads rounded to float32, as Insert rounds, and
// answers like a fresh Build of its points. The golden data was
// pre-rounded to float32 at generation time.
func TestPreSlabGoldenSnapshot(t *testing.T) {
	raw, err := os.ReadFile("testdata/pre_slab_golden.snap")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("loading pre-slab golden snapshot: %v", err)
	}
	if got := ix.Len(); got != 499 { // 500 points, ID 7 deleted
		t.Fatalf("golden index Len = %d, want 499", got)
	}
	pts := data.Uniform(500, 8, 42)
	pts[7] = nil
	requireBuiltTwin(t, ix, Options{Dim: 8, Disks: 4, Replication: 1}, pts)
}

// TestFloat64SnapshotV2Loads: an as-built version-2 snapshot of an index
// that stored float64 (testdata/float64_v2.snap, see golden_gen_test.go)
// is read for its points only, rounded, and rebuilt.
func TestFloat64SnapshotV2Loads(t *testing.T) {
	raw, err := os.ReadFile("testdata/float64_v2.snap")
	if err != nil {
		t.Fatal(err)
	}
	if v, flags := snapshotVersionOf(raw), raw[snapshotFlagsOffset]; v != snapshotTrees || flags&flagPacked != 0 {
		t.Fatalf("the fixture is version %d with flags %#x, want a version-2 float64 snapshot", v, flags)
	}
	ix, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	requireBuiltTwin(t, ix, float64FixtureOpts, float64FixturePoints())
}

// TestFloat64DurableDirReopens: a durable directory written when float64
// was stored (testdata/float64_durable: a version-2 checkpoint, then
// logged inserts and deletes) recovers rounded, like a fresh Build of
// its points.
func TestFloat64DurableDirReopens(t *testing.T) {
	dir := t.TempDir()
	files, err := os.ReadDir("testdata/float64_durable")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join("testdata/float64_durable", f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	opts := float64FixtureOpts
	opts.Durable, opts.Dir = true, dir
	ix, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if r := ix.Recovery(); !r.HaveSnapshot || r.Records == 0 {
		t.Fatalf("recovery %+v: want a snapshot and logged records", r)
	}
	pts := append(float64FixturePoints(), float64FixtureInserts()...)
	for _, id := range float64FixtureDeletes {
		pts[id] = nil
	}
	requireBuiltTwin(t, ix, float64FixtureOpts, pts)
}

// requireBuiltTwin fails t unless ix, loaded from data written when
// float64 was stored, passes CheckIntegrity and is a fresh Build under
// opts of pts rounded to float32 (a nil point a tombstone): the same
// table, the same trees, the same answers.
func requireBuiltTwin(t *testing.T, ix *Index, opts Options, pts [][]float64) {
	t.Helper()
	if err := ix.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	twin := buildFrom(t, opts, roundF32(pts))
	if ix.Len() != twin.Len() || !reflect.DeepEqual(tableOf(ix), tableOf(twin)) {
		t.Fatalf("%d points, a fresh Build holds %d, or other ones", ix.Len(), twin.Len())
	}
	if got, want := stateDigest(ix), stateDigest(twin); got != want {
		t.Fatalf("digest %s, a fresh Build's %s", got, want)
	}
	for qi, q := range data.Uniform(8, opts.Dim, 99) {
		got, _, err := ix.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := twin.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !sameNeighbors(got, want) {
			t.Fatalf("query %d: %v, a fresh Build answers %v", qi, got, want)
		}
		lo, hi := make([]float64, len(q)), make([]float64, len(q))
		for j := range q {
			lo[j], hi[j] = q[j]-0.2, q[j]+0.2
		}
		if got, _, err = ix.RangeQuery(lo, hi); err != nil {
			t.Fatal(err)
		}
		if want, _, err = twin.RangeQuery(lo, hi); err != nil {
			t.Fatal(err)
		}
		if !sameNeighbors(got, want) {
			t.Fatalf("box %d: %v, a fresh Build answers %v", qi, got, want)
		}
	}
}

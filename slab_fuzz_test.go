package parsearch

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
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
	ix, err := Open(Options{Dim: 5, Disks: 3, Packed: true})
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

// FuzzSlabRoundtrip fuzzes the packed-snapshot bits (header flags 32/64
// and the 4-byte float32 point table). The seeds cover the failure
// shapes the packed format introduces: the packed flag flipped in either
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
	// loader reads 8-byte strides and must fail cleanly (short table or
	// trailing bytes), never panic.
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
	ix64, err := Open(Options{Dim: 5, Disks: 3})
	if err != nil {
		f.Fatal(err)
	}
	if err := ix64.Build(data.Uniform(40, 5, 13)); err != nil {
		f.Fatal(err)
	}
	var buf64 bytes.Buffer
	if err := ix64.Save(&buf64); err != nil {
		f.Fatal(err)
	}
	forged := buf64.Bytes()[:buf64.Len()-4]
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
// for byte like its unflagged twin, and saves without the bit, whether
// or not the packed flag sits beside it.
func TestRetiredQuantizeFlagIgnored(t *testing.T) {
	for _, packed := range []bool{true, false} {
		ix, err := Open(Options{Dim: 5, Disks: 3, Packed: packed, Replication: 1})
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
			t.Fatalf("packed=%v: Save wrote the retired flag", packed)
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
			t.Fatalf("packed=%v: snapshot with the retired flag: %v", packed, err)
		}
		if old.opts.Packed != packed {
			t.Fatalf("packed=%v: retired flag changed the storage mode", packed)
		}
		var again bytes.Buffer
		if err := old.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), plain) {
			t.Fatalf("packed=%v: re-saving the flagged snapshot differs from its unflagged twin", packed)
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
				t.Fatalf("packed=%v query %d: flagged snapshot answers differently:\n got  %v\n want %v", packed, qi, got, want)
			}
		}
	}
}

// TestPreSlabGoldenSnapshot loads the committed golden snapshot written
// by the pre-slab (float64-table) code and checks the current loader
// still honors it: the format is append-only, old snapshots must keep
// loading forever. The golden data was pre-rounded to float32 at
// generation time, so re-ingesting it into a packed index is lossless —
// query results must match the float64 load bit for bit.
func TestPreSlabGoldenSnapshot(t *testing.T) {
	raw, err := os.ReadFile("testdata/pre_slab_golden.snap")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("loading pre-slab golden snapshot: %v", err)
	}
	if ix.opts.Packed {
		t.Fatalf("pre-slab snapshot loaded with packed options: %+v", ix.opts)
	}
	if got := ix.Len(); got != 499 { // 500 points, ID 7 deleted
		t.Fatalf("golden index Len = %d, want 499", got)
	}
	queries := data.Uniform(8, 8, 99)
	var refRes [][]Neighbor
	for _, q := range queries {
		res, _, err := ix.KNN(q, 5)
		if err != nil {
			t.Fatalf("querying golden index: %v", err)
		}
		for _, nb := range res {
			if nb.ID == 7 {
				t.Fatal("golden tombstone resurfaced in results")
			}
		}
		refRes = append(refRes, res)
	}

	// Migrate forward: rebuild the same data as a packed index and check
	// the results are unchanged. The golden coordinates were rounded to
	// float32 before saving, so packing loses nothing.
	packed, err := Open(Options{Dim: 8, Disks: 4, Replication: 1, Packed: true})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([][]float64, 0, ix.Len())
	for _, p := range tableOf(ix) {
		if p != nil {
			pts = append(pts, p)
		}
	}
	if err := packed.Build(pts); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		res, _, err := packed.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(refRes[i]) {
			t.Fatalf("query %d: packed returned %d results, golden %d", i, len(res), len(refRes[i]))
		}
		// IDs are reassigned by the rebuild (the golden tombstone shifts
		// them), so compare the geometry: distances and coordinates must
		// match bit for bit.
		for j := range res {
			if res[j].Dist != refRes[i][j].Dist {
				t.Fatalf("query %d result %d: packed dist %v, golden %v", i, j, res[j].Dist, refRes[i][j].Dist)
			}
			for d := range res[j].Point {
				if res[j].Point[d] != refRes[i][j].Point[d] {
					t.Fatalf("query %d result %d dim %d: packed %v, golden %v",
						i, j, d, res[j].Point[d], refRes[i][j].Point[d])
				}
			}
		}
	}
}

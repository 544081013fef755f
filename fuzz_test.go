package parsearch

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"parsearch/internal/data"
	"parsearch/internal/vec"
)

// Fuzzing the snapshot loader: arbitrary bytes must never panic — they
// either load as an index that passes CheckIntegrity or return an
// error.
func FuzzLoad(f *testing.F) {
	// Seed with a valid snapshot and a few mutations.
	ix, err := Open(Options{Dim: 3, Disks: 2})
	if err != nil {
		f.Fatal(err)
	}
	if err := ix.Build([][]float64{{0.1, 0.2, 0.3}, {0.7, 0.8, 0.9}}); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("PARSRCH1"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	// Snapshots holding a non-finite coordinate, which Load refuses.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		buf.Reset()
		tbl := newTable(3, 2)
		tbl.add(vec.Point{0.1, 0.2, 0.3})
		tbl.add(vec.Point{0.5, v, 0.5})
		if err := ix.writeSnapshot(&buf, tbl, nil); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(buf.Bytes()))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		loaded, err := Load(bytes.NewReader(b))
		if err != nil {
			return
		}
		if err := loaded.CheckIntegrity(); err != nil {
			t.Fatalf("loaded index fails its integrity check: %v", err)
		}
		// A successfully loaded index must be queryable (or empty).
		if loaded.Len() == 0 {
			return
		}
		q := make([]float64, loaded.opts.Dim)
		if _, _, err := loaded.KNN(q, 1); err != nil {
			t.Fatalf("loaded index cannot be queried: %v", err)
		}
	})
}

// metricsSnapshotPayload builds a snapshot of a queried index under
// the given metric (so the metrics section carries real counts) and
// returns its payload with the trailing CRC-32 stripped.
func metricsSnapshotPayload(f *testing.F, m Metric) []byte {
	f.Helper()
	ix, err := Open(Options{Dim: 3, Disks: 2, Metric: m})
	if err != nil {
		f.Fatal(err)
	}
	pts := data.Uniform(64, 3, 5)
	raw := make([][]float64, len(pts))
	for i := range pts {
		raw[i] = pts[i]
	}
	if err := ix.Build(raw); err != nil {
		f.Fatal(err)
	}
	for _, q := range data.Uniform(4, 3, 6) {
		if _, _, err := ix.KNN(q, 3); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		f.Fatal(err)
	}
	blob, err := ix.reg.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	payload := buf.Bytes()[:buf.Len()-4]
	if got := binary.LittleEndian.Uint32(payload[len(payload)-4-len(blob):]); got != uint32(len(blob)) {
		f.Fatalf("metrics length prefix reads %d, blob is %d bytes", got, len(blob))
	}
	return payload
}

// FuzzSnapshotRoundtrip fuzzes the metrics-bearing snapshot bits
// introduced with the observability layer (header flag 16 and the
// length-prefixed metrics section). The harness appends a valid
// CRC-32 to the fuzzed payload so mutations reach the parser instead
// of dying at the checksum. A payload that loads must yield a
// self-consistent metrics snapshot, and Save→Load must preserve it.
func FuzzSnapshotRoundtrip(f *testing.F) {
	payload := metricsSnapshotPayload(f, Euclidean)
	f.Add(payload)
	// A Manhattan index: header flag 128 and the metric string.
	f.Add(metricsSnapshotPayload(f, Manhattan))

	// Flag bit 16 cleared but the metrics section left in place: the
	// loader must reject it as trailing bytes.
	noFlag := append([]byte(nil), payload...)
	noFlag[len(snapshotMagic)+16] &^= flagMetrics
	f.Add(noFlag)

	// A corrupted byte near the end of the metrics blob: the codec's
	// validation must reject it without panicking.
	badLen := append([]byte(nil), payload...)
	badLen[len(badLen)-8] ^= 0xFF
	f.Add(badLen)

	// Truncated mid-metrics, and a corrupted counter inside the blob.
	f.Add(payload[:len(payload)-7])
	corrupt := append([]byte(nil), payload...)
	corrupt[len(corrupt)-3] ^= 0xFF
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, b []byte) {
		full := make([]byte, len(b)+4)
		copy(full, b)
		binary.LittleEndian.PutUint32(full[len(b):], crc32.ChecksumIEEE(b))
		loaded, err := Load(bytes.NewReader(full))
		if err != nil {
			return
		}
		s := loaded.Metrics()
		if len(s.PagesPerDisk) != loaded.opts.Disks || len(s.ServiceTimePerDiskNs) != loaded.opts.Disks {
			t.Fatalf("loaded metrics sized for %d/%d disks, index has %d",
				len(s.PagesPerDisk), len(s.ServiceTimePerDiskNs), loaded.opts.Disks)
		}
		for _, v := range s.PagesPerDisk {
			if v < 0 {
				t.Fatalf("loaded negative per-disk pages: %v", s.PagesPerDisk)
			}
		}
		if s.QueryPages.Count < 0 || s.QueryPages.Sum < 0 {
			t.Fatalf("loaded negative histogram: %+v", s.QueryPages)
		}
		// Counters that loaded once must survive another round-trip
		// bit-for-bit.
		var again bytes.Buffer
		if err := loaded.Save(&again); err != nil {
			t.Fatalf("re-saving loaded index: %v", err)
		}
		reloaded, err := Load(bytes.NewReader(again.Bytes()))
		if err != nil {
			t.Fatalf("re-loading saved index: %v", err)
		}
		if got := reloaded.Metrics(); !reflect.DeepEqual(got, s) {
			t.Fatalf("metrics changed across round-trip:\n got %+v\nwant %+v", got, s)
		}
	})
}

// layoutSnapshotPayload builds a small as-built index and returns its
// version-2 snapshot with the trailing CRC-32 stripped.
func layoutSnapshotPayload(f *testing.F, opts Options, pts [][]float64) []byte {
	f.Helper()
	ix, err := Open(opts)
	if err != nil {
		f.Fatal(err)
	}
	if err := ix.Build(pts); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		f.Fatal(err)
	}
	if v := snapshotVersionOf(buf.Bytes()); v != snapshotTrees {
		f.Fatalf("an as-built index wrote version %d", v)
	}
	return buf.Bytes()[:buf.Len()-4]
}

// FuzzLoadLayout fuzzes the version-2 tree sections with
// FuzzSnapshotRoundtrip's harness: a valid CRC-32 is appended so that
// mutations reach the layout reader. A payload that loads must pass
// CheckIntegrity, and its k-NN answers must be a linear scan's.
func FuzzLoadLayout(f *testing.F) {
	uniform := func(n, d int, seed int64) [][]float64 { return data.Uniform(n, d, seed) }
	tombstones := uniform(60, 3, 5)
	for i := 0; i < len(tombstones); i += 4 {
		tombstones[i] = nil
	}
	skewed := append(uniform(40, 3, 6), data.Clustered(40, 3, 1, 0.04, 7)...)
	for _, seed := range []struct {
		opts Options
		pts  [][]float64
	}{
		{Options{Dim: 3, Disks: 3, PageSize: 256, Replication: 1}, uniform(60, 3, 1)},
		{Options{Dim: 3, Disks: 3, PageSize: 256, Baseline: true}, uniform(60, 3, 2)},
		{Options{Dim: 3, Disks: 4, PageSize: 256, Recursive: true, QuantileSplits: true}, skewed},
		{Options{Dim: 3, Disks: 3, PageSize: 256, Kind: RoundRobin, Replication: 1}, uniform(60, 3, 3)},
		{Options{Dim: 3, Disks: 1, PageSize: 256}, uniform(60, 3, 4)},
		{Options{Dim: 3, Disks: 3, PageSize: 256, QuantileSplits: true, Replication: 1, Baseline: true}, tombstones},
	} {
		f.Add(layoutSnapshotPayload(f, seed.opts, seed.pts))
	}
	queries := append(data.Uniform(4, 3, 8), []float64{0, 0, 0}, []float64{1, 1, 1})

	f.Fuzz(func(t *testing.T, b []byte) {
		full := binary.LittleEndian.AppendUint32(bytes.Clone(b), crc32.ChecksumIEEE(b))
		loaded, err := Load(bytes.NewReader(full))
		if err != nil {
			return
		}
		if err := loaded.CheckIntegrity(); err != nil {
			t.Fatalf("loaded index fails its integrity check: %v", err)
		}
		if loaded.Len() == 0 {
			return
		}
		m, err := loaded.opts.Metric.vecMetric()
		if err != nil {
			t.Fatal(err)
		}
		live := make(map[int][]float64)
		for id, p := range tableOf(loaded) {
			if p != nil {
				live[id] = p
			}
		}
		dim := loaded.opts.Dim
		for _, q3 := range queries {
			q := make([]float64, dim)
			copy(q, q3)
			got, _, err := loaded.KNN(q, 5)
			if err != nil {
				t.Fatalf("loaded index cannot be queried: %v", err)
			}
			want := scanKNN(live, q, 5, m)
			if len(got) != len(want) {
				t.Fatalf("k-NN answered %d neighbors, a linear scan %d", len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
					t.Fatalf("neighbor %d is %d at %v, a linear scan's %d at %v", i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
				}
			}
		}
	})
}

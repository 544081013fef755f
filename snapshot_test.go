package parsearch

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"parsearch/internal/data"
)

func buildTestIndex(t *testing.T, opts Options, n int) *Index {
	t.Helper()
	ix, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	pts := data.Uniform(n, opts.Dim, 123)
	raw := make([][]float64, n)
	for i, p := range pts {
		raw[i] = p
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestSnapshotRoundTrip(t *testing.T) {
	opts := Options{
		Dim: 6, Disks: 4, Kind: Hilbert,
		QuantileSplits: true, Baseline: true,
	}
	ix := buildTestIndex(t, opts, 800)

	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if loaded.Len() != ix.Len() {
		t.Fatalf("Len = %d, want %d", loaded.Len(), ix.Len())
	}
	if loaded.Strategy() != ix.Strategy() || loaded.Disks() != ix.Disks() {
		t.Errorf("options drift: %s/%d vs %s/%d",
			loaded.Strategy(), loaded.Disks(), ix.Strategy(), ix.Disks())
	}
	// Queries on the loaded index must give identical results and cost
	// statistics (the rebuild is deterministic).
	for _, q := range data.Uniform(10, opts.Dim, 9) {
		a, sa, err := ix.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, sb, err := loaded.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
				t.Fatalf("result %d differs after reload: %+v vs %+v", i, a[i], b[i])
			}
		}
		if sa.MaxPages != sb.MaxPages || sa.TotalPages != sb.TotalPages {
			t.Fatalf("cost statistics differ after reload: %+v vs %+v", sa, sb)
		}
	}
}

func TestSnapshotRoundTripRecursive(t *testing.T) {
	ix := buildTestIndex(t, Options{Dim: 5, Disks: 8, Recursive: true, QuantileSplits: true}, 600)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.DiskLoads(), ix.DiskLoads(); len(got) != len(want) {
		t.Fatalf("disk count changed")
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("disk loads differ after reload: %v vs %v", got, want)
			}
		}
	}
}

func TestSnapshotEmptyIndex(t *testing.T) {
	ix, err := Open(Options{Dim: 3, Disks: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 0 {
		t.Errorf("Len = %d", loaded.Len())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"short":       []byte("PAR"),
		"wrong magic": append([]byte("NOTMAGIC"), make([]byte, 64)...),
	}
	for name, b := range cases {
		if _, err := Load(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	ix := buildTestIndex(t, Options{Dim: 4, Disks: 2}, 100)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip one payload byte: checksum must catch it.
	corrupted := append([]byte(nil), good...)
	corrupted[len(corrupted)/2] ^= 0xFF
	if _, err := Load(bytes.NewReader(corrupted)); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupted snapshot: err = %v, want checksum mismatch", err)
	}

	// Truncate: must error, not panic.
	if _, err := Load(bytes.NewReader(good[:len(good)-10])); err == nil {
		t.Error("truncated snapshot accepted")
	}

	// Trailing junk after the checksum changes the checksum position,
	// so it must be rejected too.
	if _, err := Load(bytes.NewReader(append(append([]byte(nil), good...), 1, 2, 3))); err == nil {
		t.Error("snapshot with trailing bytes accepted")
	}
}

func TestSnapshotPreservesUnusualOptions(t *testing.T) {
	opts := Options{
		Dim: 4, Disks: 3, Kind: FX, PageSize: 1024,
		CostModel: BucketPages,
	}
	ix := buildTestIndex(t, opts, 50)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Strategy() != "FX" {
		t.Errorf("strategy %q after reload", loaded.Strategy())
	}
}

// TestSnapshotKeepsMetric: Save/Load keeps Options.Metric (header flag
// 128), so a loaded Manhattan or Maximum index answers byte-identically
// to the saved one instead of silently turning Euclidean. A Euclidean
// snapshot stays byte-identical to the format without the flag — it
// writes no metric flag or string; the digest below is of the bytes a
// packed index saved while float64 storage still existed — and an
// unknown metric string fails Load.
func TestSnapshotKeepsMetric(t *testing.T) {
	const euclideanDigest = "9e65bb7b8a18f32e370a862dc6ff62d8207aa5890afdc89cc14814dfa3096333"
	for _, m := range []Metric{Euclidean, Manhattan, Maximum} {
		ix := buildTestIndex(t, Options{Dim: 4, Disks: 4, Metric: m}, 500)
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		// The index is as built, so Save wrote its trees (version 2); the
		// digest is of the point table the same cut writes as version 1.
		var v1 bytes.Buffer
		if err := ix.writeSnapshot(&v1, ix.tbl, nil); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(v1.Bytes())); m == Euclidean && got != euclideanDigest {
			t.Fatalf("Euclidean snapshot digest %s, want %s", got, euclideanDigest)
		}
		loaded, err := Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if loaded.opts.Metric != m {
			t.Fatalf("%s index loaded as %s", m, loaded.opts.Metric)
		}
		for qi, q := range append(data.Uniform(6, 4, 7), []float64{0.5, 0.5, 0.5, 0.5}) {
			want, _, err := ix.KNN(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := loaded.KNN(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s query %d: loaded index answers %v, saved one %v", m, qi, got, want)
			}
		}
		if m != Manhattan {
			continue
		}
		// The metric string follows the fixed header, the strategy and
		// the cost model: forge it into an unknown one.
		off := len(snapshotMagic) + 4*4 + 1 + 3*8 + 2 + len(ix.opts.Kind) + 2 + len(ix.opts.CostModel)
		forged := append([]byte(nil), raw...)
		copy(forged[off+2:], "l9")
		binary.LittleEndian.PutUint32(forged[len(forged)-4:], crc32.ChecksumIEEE(forged[:len(forged)-4]))
		if _, err := Load(bytes.NewReader(forged)); err == nil || !strings.Contains(err.Error(), "metric") {
			t.Fatalf("snapshot with metric \"l9\" loaded: %v", err)
		}
	}
}

// TestSnapshotMetricsPersist: cumulative metrics ride along in the
// snapshot (flag bit 16) — a loaded index continues counting from
// where the saved one stopped, and further queries add on top.
func TestSnapshotMetricsPersist(t *testing.T) {
	const dim, disks = 4, 3
	ix := buildTestIndex(t, Options{Dim: dim, Disks: disks}, 500)
	queries := data.Uniform(5, dim, 31)
	for _, q := range queries {
		if _, _, err := ix.KNN(q, 4); err != nil {
			t.Fatal(err)
		}
	}
	before := ix.Metrics()
	if before.QueriesKNN != int64(len(queries)) || before.PagesRead == 0 {
		t.Fatalf("pre-save metrics: %+v", before)
	}

	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	after := loaded.Metrics()
	if after.QueriesKNN != before.QueriesKNN || after.PagesRead != before.PagesRead {
		t.Fatalf("loaded metrics %+v, want %+v", after, before)
	}
	if after.QueryPages.Count != before.QueryPages.Count || after.QueryPages.Sum != before.QueryPages.Sum {
		t.Fatalf("loaded histogram %+v, want %+v", after.QueryPages, before.QueryPages)
	}
	for d := range before.PagesPerDisk {
		if after.PagesPerDisk[d] != before.PagesPerDisk[d] {
			t.Fatalf("loaded per-disk pages %v, want %v", after.PagesPerDisk, before.PagesPerDisk)
		}
	}

	// The restored counters keep counting.
	if _, _, err := loaded.KNN(queries[0], 4); err != nil {
		t.Fatal(err)
	}
	if got := loaded.Metrics().QueriesKNN; got != before.QueriesKNN+1 {
		t.Fatalf("post-load QueriesKNN = %d, want %d", got, before.QueriesKNN+1)
	}
}

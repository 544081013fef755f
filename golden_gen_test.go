package parsearch

import (
	"os"
	"testing"

	"parsearch/internal/data"
)

// skipUnlessFloat64Generator skips a generator of float64 fixtures
// unless PARSEARCH_GEN_GOLDEN is set and this code stores float64
// coordinates, so that regenerating the other goldens never overwrites
// the fixtures with float32 data.
func skipUnlessFloat64Generator(t *testing.T) {
	t.Helper()
	if os.Getenv("PARSEARCH_GEN_GOLDEN") == "" {
		t.Skip("set PARSEARCH_GEN_GOLDEN=1 to regenerate")
	}
	ix, err := Open(Options{Dim: 1, Disks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build([][]float64{{0.1}}); err != nil {
		t.Fatal(err)
	}
	if nb, _, err := ix.KNN([]float64{0.1}, 1); err != nil || nb[0].Point[0] != 0.1 {
		t.Skip("this code stores float32; the float64 fixtures are frozen")
	}
}

// TestGenPreSlabGolden wrote testdata/pre_slab_golden.snap, a float64
// snapshot, at a commit that stored float64.
func TestGenPreSlabGolden(t *testing.T) {
	skipUnlessFloat64Generator(t)
	ix, err := Open(Options{Dim: 8, Disks: 4, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	pts := data.Uniform(500, 8, 42)
	// Pre-round to float32 so the golden data is representable exactly
	// in float64 and float32 storage alike.
	for _, p := range pts {
		for j := range p {
			p[j] = float64(float32(p[j]))
		}
	}
	if err := ix.Build(pts); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(7); err != nil { // one tombstone for slot coverage
		t.Fatal(err)
	}
	f, err := os.Create("testdata/pre_slab_golden.snap")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := ix.Save(f); err != nil {
		t.Fatal(err)
	}
}

// The float64 fixtures are data written by an index that stored float64
// coordinates, which every index now rounds to float32 as it loads them:
// testdata/float64_v2.snap, an as-built index with a tombstone (a
// version-2 snapshot whose primaries carry 8-byte coordinates), and
// testdata/float64_durable, a durable directory whose checkpoint is
// followed by logged inserts and deletes. TestGenFloat64Fixtures wrote
// both at commit cd4a7c2, the last one that stored float64.
var float64FixtureOpts = Options{Dim: 6, Disks: 4, PageSize: 1024, Replication: 1, Baseline: true}

// float64FixturePoints are the fixtures' built points, unrounded, ID 5 a
// tombstone.
func float64FixturePoints() [][]float64 {
	pts := data.Uniform(600, 6, 46)
	pts[5] = nil
	return pts
}

// float64FixtureInserts and float64FixtureDeletes are the durable
// fixture's logged mutations after its checkpoint, inserts first.
func float64FixtureInserts() [][]float64 { return data.Uniform(40, 6, 47) }

var float64FixtureDeletes = []int{3, 250, 601, 622}

func TestGenFloat64Fixtures(t *testing.T) {
	skipUnlessFloat64Generator(t)
	ix, err := Open(float64FixtureOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(float64FixturePoints()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create("testdata/float64_v2.snap")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := ix.Save(f); err != nil {
		t.Fatal(err)
	}

	dir := "testdata/float64_durable"
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	opts := float64FixtureOpts
	opts.Durable, opts.Dir = true, dir
	dx, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := dx.Build(float64FixturePoints()); err != nil {
		t.Fatal(err)
	}
	if err := dx.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, p := range float64FixtureInserts() {
		if _, err := dx.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range float64FixtureDeletes {
		if err := dx.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := dx.Close(); err != nil {
		t.Fatal(err)
	}
}

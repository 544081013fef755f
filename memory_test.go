package parsearch

import (
	"bytes"
	"runtime"
	"testing"
)

// liveHeap returns the live heap after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestIndexHeapPerPoint pins what an index holds a point: 200,000
// points, d = 10, 16 disks. Measured: 104.0 B a point built, and as much
// for its Save → Load twin. The ceiling sits 3% above the built level,
// and the twin must stay within 1% of it. Before a leaf's block was the
// only copy of its points the same index held 197.2 B a point (a float64
// clone, its slice header in the point table and in a leaf entry, and a
// float32 slab), and its loaded twin 202.6 B (+2.7%, one array a leaf).
func TestIndexHeapPerPoint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are meaningless under the race detector")
	}
	const n, dim = 200_000, 10
	opts := Options{Dim: dim, Disks: 16}
	pts := rawPoints(n, dim, 73)
	base := liveHeap()
	ix, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(pts); err != nil {
		t.Fatal(err)
	}
	built := float64(liveHeap()-base) / n

	var snap bytes.Buffer
	if err := ix.Save(&snap); err != nil {
		t.Fatal(err)
	}
	base = liveHeap()
	loaded, err := Load(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	twin := float64(liveHeap()-base) / n
	runtime.KeepAlive(pts)
	runtime.KeepAlive(ix)
	runtime.KeepAlive(loaded)
	runtime.KeepAlive(snap.Bytes())
	t.Logf("built %.1f B a point, loaded %.1f B a point", built, twin)
	if built > 107 {
		t.Errorf("the built index holds %.1f B a point, ceiling 107", built)
	}
	if twin > 1.01*built || twin < 0.99*built {
		t.Errorf("the loaded index holds %.1f B a point, its built twin %.1f", twin, built)
	}
}

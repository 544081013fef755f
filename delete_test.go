package parsearch

import (
	"bytes"
	"testing"

	"parsearch/internal/data"
)

func TestDeleteBasics(t *testing.T) {
	ix := buildTestIndex(t, Options{Dim: 4, Disks: 4, Baseline: true}, 500)

	if err := ix.Delete(1000); err == nil {
		t.Error("deleting unknown id should error")
	}
	if err := ix.Delete(-1); err == nil {
		t.Error("deleting negative id should error")
	}
	if err := ix.Delete(42); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(42); err == nil {
		t.Error("double delete should error")
	}
	if ix.Len() != 499 {
		t.Errorf("Len = %d", ix.Len())
	}

	// The deleted vector must never be returned again.
	q := data.Uniform(1, 4, 5)[0]
	res, _, err := ix.KNN(q, 499)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 499 {
		t.Fatalf("got %d results, want 499", len(res))
	}
	for _, nb := range res {
		if nb.ID == 42 {
			t.Fatal("deleted vector returned by KNN")
		}
	}
}

func TestDeleteThenInsertContinuesIDs(t *testing.T) {
	ix := buildTestIndex(t, Options{Dim: 3, Disks: 2}, 10)
	if err := ix.Delete(3); err != nil {
		t.Fatal(err)
	}
	id, err := ix.Insert([]float64{0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if id != 10 {
		t.Errorf("id = %d, want 10 (IDs are never reused)", id)
	}
	if ix.Len() != 10 {
		t.Errorf("Len = %d", ix.Len())
	}
}

func TestDeleteAllThenQuery(t *testing.T) {
	ix := buildTestIndex(t, Options{Dim: 2, Disks: 2}, 20)
	for id := 0; id < 20; id++ {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 0 {
		t.Errorf("Len = %d", ix.Len())
	}
	if _, _, err := ix.NN([]float64{0.5, 0.5}); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestSnapshotPreservesTombstones(t *testing.T) {
	ix := buildTestIndex(t, Options{Dim: 3, Disks: 2}, 50)
	for _, id := range []int{0, 7, 49} {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 47 {
		t.Errorf("Len = %d after reload, want 47", loaded.Len())
	}
	// Deleted IDs stay deleted; the next insert continues past 49.
	if err := loaded.Delete(7); err == nil {
		t.Error("tombstone resurrected by snapshot round trip")
	}
	id, err := loaded.Insert([]float64{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if id != 50 {
		t.Errorf("next id = %d, want 50", id)
	}
}

func TestDeleteUnderRecursiveAssigner(t *testing.T) {
	pts := data.Clustered(600, 5, 1, 0.02, 3)
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	ix, err := Open(Options{Dim: 5, Disks: 8, Recursive: true, QuantileSplits: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 600; id += 3 {
		if err := ix.Delete(id); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
	}
	if ix.Len() != 400 {
		t.Errorf("Len = %d", ix.Len())
	}
	q := raw[1]
	res, _, err := ix.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range res {
		if nb.ID%3 == 0 {
			t.Fatalf("deleted id %d returned", nb.ID)
		}
	}
}

func TestDynamicReorganization(t *testing.T) {
	const d, disks = 6, 8
	ix, err := Open(Options{Dim: d, Disks: disks, QuantileSplits: true})
	if err != nil {
		t.Fatal(err)
	}
	// Build over uniform data: splits land near 0.5.
	uni := data.Uniform(3000, d, 21)
	raw := make([][]float64, len(uni))
	for i, p := range uni {
		raw[i] = p
	}
	if err := ix.Build(raw); err != nil {
		t.Fatal(err)
	}
	if ix.NeedsReorganization() {
		t.Fatal("fresh index should not need reorganization")
	}

	// Drift: insert heavily skewed data (all coordinates small).
	skew := data.Clustered(4000, d, 1, 0.03, 22)
	for _, p := range skew {
		q := make([]float64, d)
		for j, x := range p {
			q[j] = x * 0.2
		}
		if _, err := ix.Insert(q); err != nil {
			t.Fatal(err)
		}
	}
	if !ix.NeedsReorganization() {
		t.Fatal("heavy drift should trigger reorganization")
	}
	before := maxOf(ix.DiskLoads())
	if err := ix.Reorganize(); err != nil {
		t.Fatal(err)
	}
	if ix.NeedsReorganization() {
		t.Error("reorganization did not reset the drift statistics")
	}
	after := maxOf(ix.DiskLoads())
	if after >= before {
		t.Errorf("reorganization did not rebalance: max load %d -> %d", before, after)
	}
	if ix.Len() != 7000 {
		t.Errorf("Len = %d after reorganization", ix.Len())
	}
	// Queries still correct after the rebuild.
	nb, _, err := ix.NN(rounded(raw[0]))
	if err != nil {
		t.Fatal(err)
	}
	if nb.Dist != 0 || nb.ID != 0 {
		t.Errorf("NN after reorganize: %+v", nb)
	}
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestReorganizePreservesTombstones(t *testing.T) {
	ix := buildTestIndex(t, Options{Dim: 3, Disks: 2, QuantileSplits: true}, 100)
	if err := ix.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := ix.Reorganize(); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 99 {
		t.Errorf("Len = %d", ix.Len())
	}
	if err := ix.Delete(5); err == nil {
		t.Error("tombstone resurrected by reorganization")
	}
}

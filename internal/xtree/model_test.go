package xtree

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"parsearch/internal/vec"
)

// TestLeafBlockModel runs seeded random inserts and deletes — a growing
// phase that splits leaves, then a shrinking one whose deletes dissolve
// them — against a map from ID to point, rounded to float32 as the
// blocks hold it, freezing a version every few operations. After every operation every
// leaf's IDs and coordinates are the model's, bit for bit, every MBR is
// tight (CheckInvariants), and every version frozen so far still shows
// what it showed when it was frozen and answers its range query as it
// did then.
func TestLeafBlockModel(t *testing.T) {
	for _, d := range []int{3, 16} {
		name := fmt.Sprintf("d=%d", d)
		cfg := DefaultConfig(d)
		cfg.LeafCapacity, cfg.DirCapacity = 6, 4
		r := rand.New(rand.NewSource(int64(40 + d)))
		tr := New(cfg)
		model := make(map[int]vec.Point)
		type frozen struct {
			v     *Tree
			model map[int]vec.Point
			box   vec.Rect
			hits  string
		}
		var versions []frozen
		next := 0
		for op := 0; op < 400; op++ {
			grow := op < 200
			if len(model) == 0 || (r.Intn(5) != 0) == grow {
				p := make(vec.Point, d)
				for j := range p {
					p[j] = r.Float64()
				}
				tr.Insert(p, next)
				for j := range p {
					p[j] = float64(float32(p[j]))
				}
				model[next] = p
				next++
			} else {
				ids := make([]int, 0, len(model))
				for id := range model {
					ids = append(ids, id)
				}
				slices.Sort(ids)
				id := ids[r.Intn(len(ids))]
				if !tr.Delete(model[id], id) {
					t.Fatalf("%s, op %d: deleting ID %d found nothing", name, op, id)
				}
				delete(model, id)
			}
			checkModel(t, fmt.Sprintf("%s, op %d", name, op), tr, model)
			for i, f := range versions {
				checkModel(t, fmt.Sprintf("%s, op %d, version %d", name, op, i), f.v, f.model)
				if rangeAnswer(f.v, f.box) != f.hits {
					t.Fatalf("%s, op %d: version %d answers its range query otherwise", name, op, i)
				}
			}
			if op%8 == 0 {
				box := randomBox(r, d)
				v := tr.Freeze()
				versions = append(versions, frozen{v, maps.Clone(model), box, rangeAnswer(v, box)})
			}
		}
		if tr.Stats().Splits == 0 {
			t.Errorf("%s: no leaf split", name)
		}
	}
}

// checkModel compares every leaf of tr with the model, bit for bit, and
// checks the tree's invariants.
func checkModel(t *testing.T, name string, tr *Tree, model map[int]vec.Point) {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	seen := make(map[int]bool)
	p := make(vec.Point, tr.cfg.Dim)
	for _, leaf := range tr.Leaves() {
		for i := range leaf.Len() {
			id := leaf.ID(i)
			leaf.PointAt(i, p)
			want, ok := model[id]
			if !ok || seen[id] {
				t.Fatalf("%s: a leaf holds ID %d, which the model holds %v, seen %v", name, id, ok, seen[id])
			}
			seen[id] = true
			for j := range p {
				if math.Float64bits(p[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s: ID %d coordinate %d is %v, the model's %v", name, id, j, p[j], want[j])
				}
			}
		}
	}
	if len(seen) != len(model) || tr.Len() != len(model) {
		t.Fatalf("%s: the leaves hold %d IDs, Len says %d, the model %d", name, len(seen), tr.Len(), len(model))
	}
}

// randomBox returns a box of side 0.5 in the unit cube.
func randomBox(r *rand.Rand, d int) vec.Rect {
	lo, hi := make(vec.Point, d), make(vec.Point, d)
	for j := range lo {
		lo[j] = r.Float64() / 2
		hi[j] = lo[j] + 0.5
	}
	return vec.NewRect(lo, hi)
}

// rangeAnswer renders a range search's answer, IDs and point bits, in
// ID order.
func rangeAnswer(tr *Tree, box vec.Rect) string {
	found, _ := tr.RangeSearch(box)
	slices.SortFunc(found, func(a, b Entry) int { return a.ID - b.ID })
	return fmt.Sprint(found)
}

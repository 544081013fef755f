package parsearch

import (
	"slices"

	"parsearch/internal/vec"
)

// pointTable is the index's ID → coordinates table: one flat float32
// array, ID id's coordinates at [id·dim, (id+1)·dim), which the index
// rounds to float32 at ingest, and a tombstone mark per ID. It is
// append-only, and an ID's coordinates never change, so a reader off the
// lock may keep a cut of it (see cut) while the writers append and mark
// deletes. The trees' leaves hold the points' other copy, in their
// blocks; the table is what deletes, the declustering, Reorganize, the
// version-1 snapshot and CheckIntegrity read.
type pointTable struct {
	dim  int
	f32  []float32
	dead []bool
}

func newTable(dim, ids int) *pointTable {
	return &pointTable{dim: dim, f32: make([]float32, 0, ids*dim), dead: make([]bool, 0, ids)}
}

// len returns the size of the ID space, tombstones included.
func (t *pointTable) len() int { return len(t.dead) }

// has reports whether id is a live ID.
func (t *pointTable) has(id int) bool { return id >= 0 && id < len(t.dead) && !t.dead[id] }

// row returns ID id's coordinates, in the table's own storage: a reader
// must not write them; an assembly fills a tombstone's row so.
func (t *pointTable) row(id int) []float32 { return t.f32[id*t.dim : (id+1)*t.dim : (id+1)*t.dim] }

// point returns ID id's coordinates widened into buf, which must have
// length dim.
func (t *pointTable) point(id int, buf vec.Point) vec.Point {
	for j, x := range t.f32[id*t.dim : (id+1)*t.dim] {
		buf[j] = float64(x)
	}
	return buf
}

// add appends p, rounded to float32, as the next ID and returns it.
func (t *pointTable) add(p vec.Point) int {
	for _, x := range p {
		t.f32 = append(t.f32, float32(x))
	}
	t.dead = append(t.dead, false)
	return len(t.dead) - 1
}

// addRow appends p's float32 coordinates as the next ID.
func (t *pointTable) addRow(p []float32) {
	t.f32 = append(t.f32, p...)
	t.dead = append(t.dead, false)
}

// addDead appends n tombstones, whose coordinates are zero.
func (t *pointTable) addDead(n int) {
	t.f32 = append(t.f32, make([]float32, n*t.dim)...)
	for range n {
		t.dead = append(t.dead, true)
	}
}

// kill marks id deleted. Its coordinates stay: a cut may still read them.
func (t *pointTable) kill(id int) { t.dead[id] = true }

// live counts the live IDs.
func (t *pointTable) live() int {
	n := 0
	for _, d := range t.dead {
		if !d {
			n++
		}
	}
	return n
}

// each calls visit with every live ID in order and its coordinates,
// which are valid until visit returns.
func (t *pointTable) each(visit func(id int, p vec.Point)) {
	buf := make(vec.Point, t.dim)
	for id, d := range t.dead {
		if !d {
			visit(id, t.point(id, buf))
		}
	}
}

// column writes coordinate j of every live row, in ID order, into col.
func (t *pointTable) column(j int, col []float64) {
	k := 0
	for id, dead := range t.dead {
		if !dead {
			col[k] = float64(t.f32[id*t.dim+j])
			k++
		}
	}
}

// rows returns the table as float64 points, index = ID, nil for a
// tombstone: one widened copy, which the caller may drop when done.
func (t *pointTable) rows() []vec.Point {
	out := make([]vec.Point, t.len())
	flat := make([]float64, t.live()*t.dim)
	k := 0
	for id, dead := range t.dead {
		if dead {
			continue
		}
		out[id] = t.point(id, flat[k*t.dim:(k+1)*t.dim:(k+1)*t.dim])
		k++
	}
	return out
}

// cut returns the table as it is now for a reader off the lock: it
// shares the coordinates, which the writers only append to, and owns a
// copy of the tombstone marks.
func (t *pointTable) cut() *pointTable {
	c := *t
	c.dead = slices.Clone(t.dead)
	return &c
}

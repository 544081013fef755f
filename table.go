package parsearch

import (
	"slices"

	"parsearch/internal/vec"
)

// pointTable is the index's ID → coordinates table: one flat array, ID
// id's coordinates at [id·dim, (id+1)·dim) — float32 on a packed index,
// whose coordinates are rounded to float32 at ingest, float64 otherwise
// — and a tombstone mark per ID. It is append-only, and an ID's
// coordinates never change, so a reader off the lock may keep a cut of
// it (see cut) while the writers append and mark deletes. The trees'
// leaves hold the points' other copy, in their blocks; the table is what
// deletes, the declustering, Reorganize, the version-1 snapshot and
// CheckIntegrity read.
type pointTable struct {
	dim    int
	packed bool
	f32    []float32
	f64    []float64
	dead   []bool
}

func newTable(dim int, packed bool, ids int) *pointTable {
	t := &pointTable{dim: dim, packed: packed, dead: make([]bool, 0, ids)}
	if packed {
		t.f32 = make([]float32, 0, ids*dim)
	} else {
		t.f64 = make([]float64, 0, ids*dim)
	}
	return t
}

// len returns the size of the ID space, tombstones included.
func (t *pointTable) len() int { return len(t.dead) }

// has reports whether id is a live ID.
func (t *pointTable) has(id int) bool { return id >= 0 && id < len(t.dead) && !t.dead[id] }

// point returns ID id's coordinates: a view of the table on an unpacked
// index, which the caller must not write, or, on a packed one, widened
// into buf, which must have length dim.
func (t *pointTable) point(id int, buf vec.Point) vec.Point {
	lo, hi := id*t.dim, (id+1)*t.dim
	if !t.packed {
		return t.f64[lo:hi:hi]
	}
	for j, x := range t.f32[lo:hi] {
		buf[j] = float64(x)
	}
	return buf
}

// add appends p, converted to the table's element type, as the next ID
// and returns it.
func (t *pointTable) add(p vec.Point) int {
	if t.packed {
		for _, x := range p {
			t.f32 = append(t.f32, float32(x))
		}
	} else {
		t.f64 = append(t.f64, p...)
	}
	t.dead = append(t.dead, false)
	return len(t.dead) - 1
}

// addDead appends n tombstones, whose coordinates are zero.
func (t *pointTable) addDead(n int) {
	if t.packed {
		t.f32 = append(t.f32, make([]float32, n*t.dim)...)
	} else {
		t.f64 = append(t.f64, make([]float64, n*t.dim)...)
	}
	for range n {
		t.dead = append(t.dead, true)
	}
}

// set writes ID id's coordinates and marks it live: the assembly's
// claim walk fills a table of tombstones so.
func (t *pointTable) set(id int, p vec.Point) {
	lo := id * t.dim
	if t.packed {
		for j, x := range p {
			t.f32[lo+j] = float32(x)
		}
	} else {
		copy(t.f64[lo:lo+t.dim], p)
	}
	t.dead[id] = false
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
		if dead {
			continue
		}
		if t.packed {
			col[k] = float64(t.f32[id*t.dim+j])
		} else {
			col[k] = t.f64[id*t.dim+j]
		}
		k++
	}
}

// rows returns the table as float64 points, index = ID, nil for a
// tombstone: views of the table on an unpacked index, else one widened
// copy, which the caller may drop when done.
func (t *pointTable) rows() []vec.Point {
	out := make([]vec.Point, t.len())
	var flat []float64
	if t.packed {
		flat = make([]float64, t.live()*t.dim)
	}
	k := 0
	for id, dead := range t.dead {
		if dead {
			continue
		}
		var buf vec.Point
		if t.packed {
			buf = flat[k*t.dim : (k+1)*t.dim : (k+1)*t.dim]
			k++
		}
		out[id] = t.point(id, buf)
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

// as returns the table in the given element type: t itself, or a copy
// converted row by row — rounded to float32, or widened (exactly).
func (t *pointTable) as(packed bool) *pointTable {
	if t.packed == packed {
		return t
	}
	c := newTable(t.dim, packed, t.len())
	buf := make(vec.Point, t.dim)
	for id, d := range t.dead {
		c.add(t.point(id, buf))
		c.dead[id] = d
	}
	return c
}

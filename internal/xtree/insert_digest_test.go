package xtree

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"parsearch/internal/vec"
)

// The insert-shape golden: testdata/insert_digests.golden holds, for a
// battery of insert/delete runs, a digest of every tree node for node.
// Nothing else pins the shape of an insert-built tree — the build
// golden covers bulk loads only — so an insert path that is faster but
// makes the same choices leaves this file byte-identical. Regenerate it
// (PARSEARCH_GEN_GOLDEN=1) only with a change that means to alter the
// trees an insert builds.
const insertDigestGolden = "testdata/insert_digests.golden"

type insertCase struct {
	d, pageBytes, n int
	corner          bool
}

// String names the case; "packed" is what the golden's lines have always
// called the float32 trees.
func (c insertCase) String() string {
	data := "uniform"
	if c.corner {
		data = "corner"
	}
	return fmt.Sprintf("d=%d/packed/%s", c.d, data)
}

// insertCases: d = 1 and 2 on small pages (deep trees of wide nodes),
// d = 10 at the engine's dimensionality, d = 16 on 4-KByte pages, where
// the directory splits give up and make supernodes, and d = 40, past the
// stack buffer chooseSubtree enlarges into.
func insertCases() []insertCase {
	var cs []insertCase
	for _, s := range []struct{ d, pageBytes, n int }{
		{1, 1024, 4000}, {2, 1024, 4000}, {10, 2048, 2500}, {16, PageSize, 4000}, {40, PageSize, 1500},
	} {
		for _, corner := range []bool{false, true} {
			cs = append(cs, insertCase{s.d, s.pageBytes, s.n, corner})
		}
	}
	return cs
}

// insertRunPoints draws the points of a run: uniform, or — like the live
// benchmark — 8% of the first half and all of the second half scaled into
// the lowest corner, with every fifth corner point on a 1/16 grid
// (duplicates, points on shared faces) and some coordinates ±0, all
// rounded to float32.
func insertRunPoints(c insertCase, seed int64) []vec.Point {
	r := rand.New(rand.NewSource(seed))
	pts := rawPoints(r, c.n+c.n/4, c.d)
	if c.corner {
		for i, p := range pts {
			if i < c.n/2 && i%12 != 0 {
				continue
			}
			for j := range p {
				p[j] *= 0.3
				if i%5 == 0 {
					p[j] = math.Round(p[j]*16) / 16
				}
				if i%7 == 0 && j%3 == 0 {
					p[j] = math.Copysign(0, float64(i%2)-0.5)
				}
			}
		}
	}
	for _, p := range pts {
		for j := range p {
			p[j] = float64(float32(p[j]))
		}
	}
	return pts
}

// runInserts inserts n points, then deletes 60% of them in random order
// with one insert after every fourth delete, freezing a version every
// seventh operation so the mutations copy shared paths. It returns the
// tree and a digest of it after the insert phase, halfway through the
// deletes and at the end.
func runInserts(t *testing.T, c insertCase) (*Tree, string) {
	t.Helper()
	cfg := DefaultConfig(c.d)
	cfg.LeafCapacity = LeafCapacityForPage(c.d, c.pageBytes)
	cfg.DirCapacity = DirCapacityForPage(c.d, c.pageBytes)
	tr := New(cfg)
	pts := insertRunPoints(c, int64(1000*c.d+c.n))
	h := sha256.New()
	ops := 0
	step := func() {
		if ops++; ops%7 == 0 {
			tr.Freeze()
		}
	}
	next := 0
	insert := func() {
		tr.Insert(pts[next], next)
		next++
		step()
	}
	for next < c.n {
		insert()
	}
	digestTree(h, tr)
	r := rand.New(rand.NewSource(int64(c.d)))
	dels := r.Perm(c.n)[:c.n*3/5]
	for i, id := range dels {
		if !tr.Delete(pts[id], id) {
			t.Fatalf("%v: entry %d not found", c, id)
		}
		step()
		if i%4 == 3 && next < len(pts) {
			insert()
		}
		if i == len(dels)/2 {
			digestTree(h, tr)
		}
	}
	digestTree(h, tr)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	return tr, fmt.Sprintf("%x", h.Sum(nil))
}

// digestTree hashes, in preorder, every node's leaf flag, supernode
// multiplier, split history, MBR bits and payload — a leaf's IDs with
// their coordinate bits, in entry order — then the tree's size and Stats.
func digestTree(h hash.Hash, tr *Tree) {
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putPoint := func(p vec.Point) {
		for _, v := range p {
			put(math.Float64bits(v))
		}
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		leaf := uint64(0)
		if n.leaf {
			leaf = 1
		}
		put(leaf)
		put(uint64(n.super))
		put(n.history)
		putPoint(n.rect.Min)
		putPoint(n.rect.Max)
		put(uint64(n.Len()))
		for _, e := range n.Entries() {
			put(uint64(e.ID))
			putPoint(e.Point)
		}
		put(uint64(len(n.children)))
		for _, c := range n.children {
			walk(c)
		}
	}
	if tr.root != nil {
		walk(tr.root)
	}
	st := tr.Stats()
	put(uint64(tr.Len()))
	put(uint64(st.Splits))
	put(uint64(st.OverlapMinimalSplits))
	put(uint64(st.Supernodes))
}

// TestInsertDigest runs every insert case and requires each digest to
// equal the golden's: an insert must pick the same leaf and the same
// split as the code that generated the file, whatever its speed.
func TestInsertDigest(t *testing.T) {
	var got bytes.Buffer
	for _, c := range insertCases() {
		tr, digest := runInserts(t, c)
		st := tr.Stats()
		if c.d >= 16 && st.Supernodes == 0 {
			t.Errorf("%v: no supernode; the case no longer covers supernode fan-outs", c)
		}
		fmt.Fprintf(&got, "%v %s len=%d height=%d splits=%d overlap-minimal=%d supernodes=%d\n",
			c, digest, tr.Len(), tr.Height(), st.Splits, st.OverlapMinimalSplits, st.Supernodes)
	}
	if os.Getenv("PARSEARCH_GEN_GOLDEN") != "" {
		if err := os.WriteFile(insertDigestGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(insertDigestGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, got.Bytes()) {
		return
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d digest lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("digest differs from golden:\n  got  %s\n  want %s", gotLines[i], wantLines[i])
		}
	}
}

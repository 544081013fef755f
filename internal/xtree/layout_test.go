package xtree

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// sameNodes reports the first difference between two subtrees: kind,
// super, history, MBR bits, fan-out, and each leaf entry's ID and
// coordinate bits.
func sameNodes(a, b *Node) bool {
	if a.leaf != b.leaf || a.super != b.super || a.history != b.history ||
		!rectsEqual(a.rect, b.rect) || a.Len() != b.Len() || len(a.children) != len(b.children) {
		return false
	}
	be := b.Entries()
	for i, e := range a.Entries() {
		f := be[i]
		if e.ID != f.ID || len(e.Point) != len(f.Point) {
			return false
		}
		for j := range e.Point {
			if math.Float64bits(e.Point[j]) != math.Float64bits(f.Point[j]) {
				return false
			}
		}
	}
	for i, c := range a.children {
		if !sameNodes(c, b.children[i]) {
			return false
		}
	}
	return true
}

// byID resolves an IDs-only layout against the tree it was written from.
func byID(tr *Tree) Resolver {
	pts := make(map[int][]float32)
	for _, n := range tr.Leaves() {
		for i := range n.Len() {
			pts[n.ID(i)] = make([]float32, tr.cfg.Dim)
			n.Block().RowAt(i, pts[n.ID(i)])
		}
	}
	return func(id int, p []float32) error {
		copy(p, pts[id])
		return nil
	}
}

// TestLayoutRoundTrip: a bulk-loaded tree and an insert-built one (with
// supernodes), read back node for node — MBRs bit for
// bit — pass CheckInvariants, and write the same layout again; with
// points and with IDs only.
func TestLayoutRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, shape := range []struct {
		name string
		tree func(cfg Config) *Tree
	}{
		{"bulk", func(cfg Config) *Tree {
			pts := uniformPoints(r, 3000, cfg.Dim)
			for i := 0; i < len(pts); i += 3 {
				pts[i][0] = math.Copysign(0, -1) // signed zeros: the MBRs keep the first seen
			}
			es := make([]Entry, len(pts))
			for i, p := range pts {
				es[i] = Entry{Point: p, ID: i}
			}
			tr := New(cfg)
			tr.BulkLoad(es)
			return tr
		}},
		{"inserted", func(cfg Config) *Tree {
			cfg.LeafCapacity, cfg.DirCapacity = 8, 6
			tr := New(cfg)
			for i, p := range uniformPoints(r, 3000, cfg.Dim) {
				tr.Insert(p, i)
			}
			if tr.Stats().Supernodes == 0 {
				t.Fatal("the insert-built tree has no supernode")
			}
			return tr
		}},
		{"empty", func(cfg Config) *Tree { return New(cfg) }},
	} {
		tr := shape.tree(DefaultConfig(16))
		cfg := tr.Config()
		for _, points := range []bool{true, false} {
			b := tr.AppendLayout(nil, points)
			resolve := byID(tr)
			if points {
				resolve = func(int, []float32) error { return nil }
			}
			coord := 0
			if points {
				coord = 4
			}
			got, err := ReadLayout(cfg, b, coord, resolve)
			if err != nil {
				t.Fatalf("%s points=%v: %v", shape.name, points, err)
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("%s points=%v: %v", shape.name, points, err)
			}
			if got.Len() != tr.Len() || (tr.root == nil) != (got.root == nil) ||
				(tr.root != nil && !sameNodes(tr.root, got.root)) {
				t.Fatalf("%s points=%v: the tree read back differs", shape.name, points)
			}
			if again := got.AppendLayout(nil, points); !bytes.Equal(again, b) {
				t.Fatalf("%s points=%v: the tree read back writes other bytes", shape.name, points)
			}
		}
	}
}

// TestReadLayoutRefusals: each structural refusal of ReadLayout, on a
// root leaf or a one-level tree of a small configuration.
func TestReadLayoutRefusals(t *testing.T) {
	cfg := smallConfig(2) // 8 entries a leaf, 6 children a directory
	header := func(b []byte, kind byte, count uint32, history uint64, super uint32) []byte {
		b = append(b, kind)
		b = binary.LittleEndian.AppendUint32(b, count)
		b = binary.LittleEndian.AppendUint64(b, history)
		return binary.LittleEndian.AppendUint32(b, super)
	}
	entries := func(b []byte, ids ...int) []byte {
		for _, id := range ids {
			b = binary.LittleEndian.AppendUint32(b, uint32(id))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.5))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(id)))
		}
		return b
	}
	leaf := func(ids ...int) []byte { return entries(header(nil, 1, uint32(len(ids)), 0, 1), ids...) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	same := func(int, []float32) error { return nil }
	nan := entries(header(nil, 1, 1, 0, 1), 0)
	binary.LittleEndian.PutUint64(nan[len(nan)-8:], math.Float64bits(math.NaN()))
	huge := entries(header(nil, 1, 1, 0, 1), 0)
	binary.LittleEndian.PutUint64(huge[len(huge)-8:], math.Float64bits(1e39))
	for _, c := range []struct {
		name string
		b    []byte
		want string
	}{
		{"control", cat(header(nil, 0, 2, 1, 1), leaf(0, 1), leaf(2)), ""},
		{"node kind 2", header(nil, 2, 1, 0, 1), "kind 2"},
		{"empty leaf", header(nil, 1, 0, 0, 1), "empty node"},
		{"empty directory", cat(header(nil, 0, 2, 0, 1), leaf(0), header(nil, 0, 0, 0, 1)), "empty node"},
		{"leaf over capacity", leaf(0, 1, 2, 3, 4, 5, 6, 7, 8), "exceeds capacity 8"},
		{"directory over capacity", cat(header(nil, 0, 7, 0, 1), leaf(0), leaf(1), leaf(2), leaf(3), leaf(4), leaf(5), leaf(6)), "exceeds capacity 6"},
		{"supernode directory", cat(header(nil, 0, 7, 0, 2), leaf(0), leaf(1), leaf(2), leaf(3), leaf(4), leaf(5), leaf(6)), ""},
		{"leaf with super 2", header(nil, 1, 1, 0, 2), "leaf with super 2"},
		{"super 0", header(nil, 0, 1, 0, 0), "super 0"},
		{"leaves at different depths", cat(header(nil, 0, 2, 0, 1), leaf(0), header(nil, 0, 1, 0, 1), leaf(1)), "expected 1"},
		{"history beyond the dimension", cat(header(nil, 0, 1, 4, 1), leaf(0)), "history"},
		{"NaN coordinate", nan, "not finite"},
		{"finite float64 beyond float32", huge, "not finite"},
		{"more children than bytes", header(nil, 0, 5, 0, 1), "claims 5 children"},
		{"more entries than bytes", header(nil, 1, 5, 0, 1), "claims 5 entries"},
		{"bytes after the walk", cat(leaf(0), []byte{0}), "bytes after"},
		{"truncated header", leaf(0)[:5], "truncated"},
	} {
		_, err := ReadLayout(cfg, c.b, 8, same)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: ReadLayout says %v, want a refusal naming %q", c.name, err, c.want)
		}
	}
	deep := []byte{}
	for i := 0; i < maxLayoutDepth; i++ {
		deep = header(deep, 0, 1, 0, 1)
	}
	if _, err := ReadLayout(cfg, cat(deep, leaf(0)), 8, same); err == nil || !strings.Contains(err.Error(), "deeper") {
		t.Errorf("a tree %d levels deep: %v", maxLayoutDepth+1, err)
	}
	if _, err := ReadLayout(cfg, leaf(0), 3, same); err == nil || !strings.Contains(err.Error(), "3 bytes") {
		t.Errorf("coordinates of 3 bytes: %v", err)
	}
}

package xtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"parsearch/internal/vec"
)

// The reference choosers: the quadratic chooseSubtree, chooseLeafSplit
// and chooseDirSplit as they were before the linear rewrite, verbatim
// but for the receiver, with vec.Rect.OverlapArea's math.Min/math.Max
// form and the deleted vec.Rect.Enlargement. The rewrite must make the
// same choice on every input.

func refChooseSubtree(n *Node, p vec.Point) int {
	pr := vec.PointRect(p)
	childrenAreLeaves := n.children[0].leaf

	best, bi := n.children[0], 0
	if childrenAreLeaves {
		bestOverlapInc := refOverlapEnlargement(n.children, 0, pr)
		bestAreaInc := refEnlargement(best.rect, pr)
		for i, c := range n.children[1:] {
			oi := refOverlapEnlargement(n.children, i+1, pr)
			ai := refEnlargement(c.rect, pr)
			if oi < bestOverlapInc ||
				(oi == bestOverlapInc && ai < bestAreaInc) ||
				(oi == bestOverlapInc && ai == bestAreaInc && c.rect.Area() < best.rect.Area()) {
				best, bi, bestOverlapInc, bestAreaInc = c, i+1, oi, ai
			}
		}
		return bi
	}
	bestAreaInc := refEnlargement(best.rect, pr)
	for i, c := range n.children[1:] {
		ai := refEnlargement(c.rect, pr)
		if ai < bestAreaInc || (ai == bestAreaInc && c.rect.Area() < best.rect.Area()) {
			best, bi, bestAreaInc = c, i+1, ai
		}
	}
	return bi
}

func refOverlapEnlargement(children []*Node, i int, r vec.Rect) float64 {
	enlarged := children[i].rect.Union(r)
	var before, after float64
	for j, c := range children {
		if j == i {
			continue
		}
		before += refOverlapArea(children[i].rect, c.rect)
		after += refOverlapArea(enlarged, c.rect)
	}
	return after - before
}

func refOverlapArea(r, s vec.Rect) float64 {
	a := 1.0
	for i := range r.Min {
		lo := math.Max(r.Min[i], s.Min[i])
		hi := math.Min(r.Max[i], s.Max[i])
		if hi <= lo {
			return 0
		}
		a *= hi - lo
	}
	return a
}

func refEnlargement(r, s vec.Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

func refChooseLeafSplit(t *Tree, entries []Entry) (axis, k int) {
	n := len(entries)
	m := t.minFillOf(n)

	bestAxis, bestMargin := 0, math.Inf(1)
	for a := 0; a < t.cfg.Dim; a++ {
		sortEntriesByAxis(entries, a)
		margin := 0.0
		for s := m; s <= n-m; s++ {
			margin += mbrOfEntries(entries[:s]).Margin() + mbrOfEntries(entries[s:]).Margin()
		}
		if margin < bestMargin {
			bestAxis, bestMargin = a, margin
		}
	}

	sortEntriesByAxis(entries, bestAxis)
	bestK, bestOverlap, bestArea := m, math.Inf(1), math.Inf(1)
	for s := m; s <= n-m; s++ {
		r1 := mbrOfEntries(entries[:s])
		r2 := mbrOfEntries(entries[s:])
		ov := refOverlapArea(r1, r2)
		area := r1.Area() + r2.Area()
		if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestK, bestOverlap, bestArea = s, ov, area
		}
	}
	return bestAxis, bestK
}

func refChooseDirSplit(t *Tree, children []*Node) (axis, k int) {
	n := len(children)
	m := t.minFillOf(n)

	bestAxis, bestMargin := 0, math.Inf(1)
	for a := 0; a < t.cfg.Dim; a++ {
		sortNodesByAxis(children, a)
		margin := 0.0
		for s := m; s <= n-m; s++ {
			margin += mbrOfNodes(children[:s]).Margin() + mbrOfNodes(children[s:]).Margin()
		}
		if margin < bestMargin {
			bestAxis, bestMargin = a, margin
		}
	}

	sortNodesByAxis(children, bestAxis)
	bestK, bestOverlap, bestArea := m, math.Inf(1), math.Inf(1)
	for s := m; s <= n-m; s++ {
		r1 := mbrOfNodes(children[:s])
		r2 := mbrOfNodes(children[s:])
		ov := refOverlapArea(r1, r2)
		area := r1.Area() + r2.Area()
		if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestK, bestOverlap, bestArea = s, ov, area
		}
	}
	return bestAxis, bestK
}

// choiceInput is one input to the three choosers: a directory node's
// child rectangles, points to insert under it, and the point entries of
// an overfull leaf (the rectangles' corners are the overfull directory).
type choiceInput struct {
	name   string
	rects  []vec.Rect
	points []vec.Point
}

// checkChoices runs every chooser and its reference on in and reports
// where they differ: the subtree each point descends into, with leaf and
// directory children, and the (axis, k) and resulting order of a leaf
// split of the points and a directory split of the rectangles.
func checkChoices(t *testing.T, in choiceInput) {
	t.Helper()
	d := in.rects[0].Dim()
	tr := New(DefaultConfig(d))
	for _, leaves := range []bool{true, false} {
		n := &Node{}
		for _, r := range in.rects {
			n.children = append(n.children, &Node{leaf: leaves, rect: r})
		}
		for _, p := range in.points {
			if got, want := tr.chooseSubtree(n, p), refChooseSubtree(n, p); got != want {
				t.Fatalf("%s: chooseSubtree(leaf children %v, %v) = %d, reference %d", in.name, leaves, p, got, want)
			}
		}
	}
	if splittable(in.points) {
		a, b := entriesOf(in.points), entriesOf(in.points)
		ga, gk := tr.chooseLeafSplit(a)
		wa, wk := refChooseLeafSplit(tr, b)
		if ga != wa || gk != wk {
			t.Fatalf("%s: chooseLeafSplit = (%d, %d), reference (%d, %d)", in.name, ga, gk, wa, wk)
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatalf("%s: chooseLeafSplit left entry %d = ID %d, reference ID %d", in.name, i, a[i].ID, b[i].ID)
			}
		}
	}
	rects := make([]vec.Point, 0, 2*len(in.rects))
	for _, r := range in.rects {
		rects = append(rects, r.Min, r.Max)
	}
	if len(in.rects) >= 2 && splittable(rects) {
		a, b := make([]*Node, len(in.rects)), make([]*Node, len(in.rects))
		for i, r := range in.rects {
			a[i] = &Node{rect: r, history: uint64(i)}
			b[i] = a[i]
		}
		ga, gk := tr.chooseDirSplit(a)
		wa, wk := refChooseDirSplit(tr, b)
		if ga != wa || gk != wk {
			t.Fatalf("%s: chooseDirSplit = (%d, %d), reference (%d, %d)", in.name, ga, gk, wa, wk)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: chooseDirSplit left child %d = %d, reference %d", in.name, i, a[i].history, b[i].history)
			}
		}
	}
}

// splittable reports whether a split may be asked of these coordinates:
// at least two of them, none NaN (the index refuses NaN coordinates, and
// the suffix sweep relies on it).
func splittable(pts []vec.Point) bool {
	for _, p := range pts {
		for _, v := range p {
			if math.IsNaN(v) {
				return false
			}
		}
	}
	return len(pts) >= 2
}

func rect(min, max vec.Point) vec.Rect { return vec.Rect{Min: min, Max: max} }

// randomChoiceInput draws fan rectangles and points in d dimensions
// whose coordinates come from a grid of 1/8 steps with ±0, so that
// faces, corners and whole rectangles coincide.
func randomChoiceInput(r *rand.Rand, name string, d, fan int) choiceInput {
	coord := func() float64 {
		v := float64(r.Intn(9)) / 8
		if v == 0 && r.Intn(2) == 0 {
			v = math.Copysign(0, -1)
		}
		return v
	}
	in := choiceInput{name: name}
	for i := 0; i < fan; i++ {
		min, max := make(vec.Point, d), make(vec.Point, d)
		for j := range min {
			a, b := coord(), coord()
			if r.Intn(4) == 0 {
				b = a // zero extent
			}
			min[j], max[j] = math.Min(a, b), math.Max(a, b)
		}
		in.rects = append(in.rects, rect(min, max))
	}
	for i := 0; i < 2*fan; i++ {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = coord()
		}
		in.points = append(in.points, p)
	}
	return in
}

// TestInsertChoicesMatchReference runs the three choosers against their
// references on adversarial inputs: duplicate points and rectangles, ±0
// coordinates, zero-extent MBRs, points on MBR faces, a point inside
// several children (the first of them the largest, so the win goes to a
// tie on area enlargement broken by area), fan-outs above 32 as in a
// supernode, and d = 1 and d = 40.
func TestInsertChoicesMatchReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nested := choiceInput{
		name: "point inside several children",
		rects: []vec.Rect{
			rect(vec.Point{0, 0}, vec.Point{4, 4}),
			rect(vec.Point{5, 5}, vec.Point{6, 6}),
			rect(vec.Point{1, 1}, vec.Point{3, 3}),
			rect(vec.Point{1.5, 1.5}, vec.Point{2.5, 2.5}),
			rect(vec.Point{1.5, 1.5}, vec.Point{2.5, 2.5}),
		},
		points: []vec.Point{{2, 2}, {1, 1}, {2.5, 1.5}, {5.5, 5.5}, {4.5, 4.5}, {7, 7}},
	}
	faces := choiceInput{
		name: "points on faces, zero extents and ±0",
		rects: []vec.Rect{
			rect(vec.Point{negZero, 0}, vec.Point{0, 1}),
			rect(vec.Point{0, negZero}, vec.Point{1, 0}),
			rect(vec.Point{negZero, negZero}, vec.Point{negZero, negZero}),
			rect(vec.Point{0, 0}, vec.Point{1, 1}),
			rect(vec.Point{1, 0}, vec.Point{2, 1}),
			rect(vec.Point{1, 1}, vec.Point{1, 1}),
		},
		points: []vec.Point{{0, 0}, {negZero, negZero}, {1, 0.5}, {0.5, 1}, {1, 1}, {2, 0}, {negZero, 2}, {3, negZero}},
	}
	dups := choiceInput{name: "duplicates"}
	for i := 0; i < 12; i++ {
		dups.rects = append(dups.rects, rect(vec.Point{0.25, 0.25, 0.25}, vec.Point{0.5, 0.75, 0.5}))
		dups.points = append(dups.points, vec.Point{0.5, 0.5, 0.5}, vec.Point{0.25, 1, 0})
	}
	// Forty children in a row, each overlapping the next by a sliver:
	// a fan-out above 32, with overlap enlargements of 0 and just above.
	slivers := choiceInput{name: "slivers"}
	for i := 0; i < 40; i++ {
		lo := float64(i)
		slivers.rects = append(slivers.rects, rect(vec.Point{lo, 0}, vec.Point{lo + 1 + 1.0/1024, 1}))
		slivers.points = append(slivers.points, vec.Point{lo + 0.5, 1.5}, vec.Point{lo + 1 + 1.0/2048, 2})
	}
	for _, in := range []choiceInput{nested, faces, dups, slivers} {
		checkChoices(t, in)
	}
	r := rand.New(rand.NewSource(41))
	for _, d := range []int{1, 2, 3, 10, 16, 40} {
		for _, fan := range []int{2, 3, 7, 24, 33, 70} {
			for rep := 0; rep < 3; rep++ {
				checkChoices(t, randomChoiceInput(r, fmt.Sprintf("random d=%d fan=%d #%d", d, fan, rep), d, fan))
			}
		}
	}
}

// TestChooserOracleOnTreeNodes runs the choosers on real trees' nodes:
// every directory node of the insert-digest runs, with one point of each
// child's subtree as an insert candidate.
func TestChooserOracleOnTreeNodes(t *testing.T) {
	for _, c := range insertCases() {
		tr, _ := runInserts(t, c)
		var walk func(n *Node)
		walk = func(n *Node) {
			if n.leaf {
				return
			}
			in := choiceInput{name: fmt.Sprintf("%v node", c)}
			for _, ch := range n.children {
				in.rects = append(in.rects, ch.rect)
				var es []Entry
				collectEntries(ch, &es)
				in.points = append(in.points, es[0].Point)
			}
			checkChoices(t, in)
			for _, ch := range n.children {
				walk(ch)
			}
		}
		walk(tr.root)
	}
}

// TestEnlargeMatchesUnion: enlarge's in-place area enlargement and
// rectangle are bit for bit Union's, including on ±0 and zero extents.
func TestEnlargeMatchesUnion(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		r vec.Rect
		p vec.Point
	}{
		{rect(vec.Point{0, 0}, vec.Point{2, 4}), vec.Point{3, 3}},
		{rect(vec.Point{0, 0}, vec.Point{2, 4}), vec.Point{1, 1}},
		{rect(vec.Point{negZero, 0}, vec.Point{0, negZero}), vec.Point{0, negZero}},
		{rect(vec.Point{1, 1}, vec.Point{1, 1}), vec.Point{negZero, 2}},
		{rect(vec.Point{-1e300, 0}, vec.Point{1e300, 1}), vec.Point{0, 2}},
	}
	for _, c := range cases {
		e := vec.Rect{Min: make(vec.Point, 2), Max: make(vec.Point, 2)}
		inc, area := enlarge(e, c.r, c.p)
		u := c.r.Union(vec.PointRect(c.p))
		want := refEnlargement(c.r, vec.PointRect(c.p))
		if math.Float64bits(inc) != math.Float64bits(want) && !(math.IsNaN(inc) && math.IsNaN(want)) {
			t.Errorf("enlarge(%v, %v) = %v, want %v", c.r, c.p, inc, want)
		}
		if math.Float64bits(area) != math.Float64bits(c.r.Area()) {
			t.Errorf("enlarge(%v, %v) area %v, want %v", c.r, c.p, area, c.r.Area())
		}
		for i := range u.Min {
			if math.Float64bits(e.Min[i]) != math.Float64bits(u.Min[i]) || math.Float64bits(e.Max[i]) != math.Float64bits(u.Max[i]) {
				t.Errorf("enlarge(%v, %v) rectangle %v, want %v", c.r, c.p, e, u)
			}
		}
	}
	if inc, _ := enlarge(vec.Rect{Min: make(vec.Point, 2), Max: make(vec.Point, 2)}, cases[0].r, cases[0].p); inc != 4 {
		t.Errorf("enlargement of [0,2]x[0,4] to (3, 3) = %v, want 4", inc)
	}
}

// TestChooseSubtreeAllocatesNothing: the descent's choice enlarges into
// a stack rectangle, at the engine's d = 10 and at d = 16.
func TestChooseSubtreeAllocatesNothing(t *testing.T) {
	for _, d := range []int{10, 16} {
		r := rand.New(rand.NewSource(int64(d)))
		tr := New(DefaultConfig(d))
		for i, p := range uniformPoints(r, 3000, d) {
			tr.Insert(p, i)
		}
		n := tr.root
		for !n.children[0].leaf {
			n = n.children[0]
		}
		p := uniformPoints(r, 1, d)[0]
		if allocs := testing.AllocsPerRun(100, func() { tr.chooseSubtree(n, p) }); allocs != 0 {
			t.Errorf("d=%d: chooseSubtree allocates %v times per call", d, allocs)
		}
	}
}

// fuzzPalette are the coordinates FuzzInsertChoices draws from besides
// a grid: signed zeros, subnormals, values whose products under- and
// overflow, infinities and NaN.
var fuzzPalette = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 5e-324, -5e-324, 1e-300,
	1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 0.25,
}

// FuzzInsertChoices decodes a dimensionality, a fan-out and coordinates
// from the input and requires every chooser to choose what its reference
// chooses (splits only on NaN-free input, as the index guarantees).
// Fan-outs reach 41, as in a supernode, and d = 40 is past the stack
// rectangle; at most 16 insert points keep the quadratic references fast.
func FuzzInsertChoices(f *testing.F) {
	f.Add([]byte{2, 5, 0, 16, 32, 48, 1, 17, 33, 49, 20, 40, 60, 80, 3, 14, 15, 200, 100, 50})
	f.Add([]byte{0, 40, 255, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{4, 3, 16, 16, 16, 16, 16, 16, 16, 16})
	seed := make([]byte, 600)
	binary.LittleEndian.PutUint64(seed, 0x9e3779b97f4a7c15)
	for i := 8; i < len(seed); i++ {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		d := []int{1, 2, 3, 10, 40}[int(data[0])%5]
		fan := 2 + int(data[1])%40
		data = data[2:]
		next := 0
		coord := func() float64 {
			b := data[next%len(data)]
			next++
			if b < 16 {
				return fuzzPalette[b]
			}
			return float64(b-16) / 32
		}
		in := choiceInput{name: "fuzz"}
		for i := 0; i < fan; i++ {
			min, max := make(vec.Point, d), make(vec.Point, d)
			for j := range min {
				a, b := coord(), coord()
				if b < a {
					a, b = b, a
				}
				min[j], max[j] = a, b
			}
			in.rects = append(in.rects, rect(min, max))
		}
		for i := 0; i < min(fan, 16); i++ {
			p := make(vec.Point, d)
			for j := range p {
				p[j] = coord()
			}
			in.points = append(in.points, p)
		}
		checkChoices(t, in)
	})
}

// mbrOfEntries returns the MBR of the given entries in order, as a leaf's
// MBR is computed from its block.
func mbrOfEntries(entries []Entry) vec.Rect {
	r := vec.PointRect(entries[0].Point)
	for _, e := range entries[1:] {
		r.Extend(e.Point)
	}
	return r
}

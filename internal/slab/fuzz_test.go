package slab

import (
	"math"
	"testing"

	"parsearch/internal/vec"
)

// FuzzStagedKernels checks both staged kernels against the dense ones
// (the contract of checkStaged) on fuzzed pages: dimension 1 + dim%32,
// 1 + n%64 entries, and coordinates int8(b)·2^exp from the bytes of raw
// (cycled), so that ties, zeros, denormals and overflowing squares all
// occur. The bound is one of the dense outputs, or +Inf. Every kernel
// also runs on the Go loops, which must write the same bits and keep
// the same entries (checkPaths), so the assembly is fuzzed against its
// oracle. The containment kernel runs on a box from the same bytes,
// with wildcard dimensions and bounds off the float32 grid (checkInside).
func FuzzStagedKernels(f *testing.F) {
	f.Add(uint8(9), uint8(40), int8(-3), uint8(7), []byte{1, 200, 3, 0, 0, 17, 128, 255, 9, 9})
	f.Add(uint8(0), uint8(0), int8(0), uint8(0), []byte{0})
	f.Add(uint8(15), uint8(63), int8(-120), uint8(1), []byte{127, 129, 5})
	f.Add(uint8(31), uint8(10), int8(100), uint8(200), []byte{3, 4, 5, 250, 251})
	f.Fuzz(func(t *testing.T, dim, n uint8, exp int8, pick uint8, raw []byte) {
		if len(raw) == 0 {
			return
		}
		d, cnt := 1+int(dim%32), 1+int(n%64)
		scale := math.Ldexp(1, min(int(exp), 120)) // int8·scale is float32-representable
		k := 0
		next := func() vec.Point {
			p := make(vec.Point, d)
			for j := range p {
				p[j] = float64(int8(raw[k%len(raw)])) * scale
				k++
			}
			return p
		}
		q := next()
		pts := make([]vec.Point, cnt)
		for i := range pts {
			pts[i] = next()
		}
		rects := pairRects(pts)
		s, rs := Build(d, pts, false), BuildRects(d, rects)
		bounds := func(_, dense []float64) []float64 { return []float64{dense[int(pick)%len(dense)], math.Inf(1)} }
		for _, m := range metrics {
			checkPaths(t, "points", leafPage{s}, q, m, bounds)
			checkPaths(t, "rects", dirPage{rs}, q, m, bounds)
		}
		lo, hi := next(), next()
		for j := range lo {
			lo[j], hi[j] = min(lo[j], hi[j]), max(lo[j], hi[j])
			switch (int(pick) + j) % 4 {
			case 0:
				lo[j], hi[j] = math.Inf(-1), math.Inf(1)
			case 1:
				lo[j], hi[j] = math.Nextafter(lo[j], math.Inf(1)), math.Nextafter(hi[j], math.Inf(-1))
			}
		}
		checkInside(t, "box", s, pts, rs, rects, vec.Rect{Min: lo, Max: hi})
	})
}

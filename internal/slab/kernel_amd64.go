//go:build !purego

package slab

// useAVX2 says whether the L2 kernels and the containment kernel run
// the AVX2 assembly of kernel_amd64.s: the CPU has AVX2 and POPCNT, and
// the OS saves the YMM registers.
// The Go loops are the fallback and the tests' oracle; the tests clear
// it to run them.
var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

// addDimsL2 folds dimensions [from, to) of the squared distance of every
// one of the n points of data (dimension-major, n to a column) into out.
//
//go:noescape
func addDimsL2(out *float64, data *float32, q *float64, n, from, to int)

// distsWithinL2 is Slab.distsWithin's L2 kernel: it writes every
// point's distance, or its partial over the first h dimensions when that
// is above bound, into out, the indices of the others into keep (room
// for n), and returns how many it kept.
//
//go:noescape
func distsWithinL2(out *float64, keep *int32, data *float32, q *float64, n, h, dim int, bound float64) int

// addMinDimsL2 is addDimsL2's squared MINDIST over rectangles whose
// minima and maxima are the dimension-major columns lo and hi.
//
//go:noescape
func addMinDimsL2(out *float64, lo, hi *float32, q *float64, n, from, to int)

// minDistsWithinL2 is distsWithinL2's squared MINDIST over the columns
// lo and hi.
//
//go:noescape
func minDistsWithinL2(out *float64, keep *int32, lo, hi *float32, q *float64, n, h, dim int, bound float64) int

// insideAVX2 is the containment kernel (inside) over n entries whose
// extents are the dimension-major columns lower and upper, n to a
// column: it writes the index of every entry inside the dim bounds min
// and max to keep (room for n), ascending, and returns how many.
//
//go:noescape
func insideAVX2(keep *int32, lower, upper *float32, min, max *float64, n, dim int) int

// laneTable[m] holds, byte by byte, the lanes of the 8-bit mask m that
// are set, ascending: a block's keep list, which insideAVX2 widens and
// offsets by the block's first index.
var laneTable = func() (t [256]uint64) {
	for m := range t {
		for b, k := 0, 0; b < 8; b++ {
			if m&(1<<b) != 0 {
				t[m] |= uint64(b) << (8 * k)
				k++
			}
		}
	}
	return t
}()

//go:build !amd64 || purego

package slab

// useAVX2 is false here: there is no assembly, and every kernel runs
// the Go loops. The functions below are never called.
var useAVX2 = false

func addDimsL2(out *float64, data *float32, q *float64, n, from, to int) {
	panic("slab: no assembly kernels")
}

func distsWithinL2(out *float64, keep *int32, data *float32, q *float64, n, h, dim int, bound float64) int {
	panic("slab: no assembly kernels")
}

func addMinDimsL2(out *float64, lo, hi *float32, q *float64, n, from, to int) {
	panic("slab: no assembly kernels")
}

func minDistsWithinL2(out *float64, keep *int32, lo, hi *float32, q *float64, n, h, dim int, bound float64) int {
	panic("slab: no assembly kernels")
}

func insideAVX2(keep *int32, lower, upper *float32, min, max *float64, n, dim int) int {
	panic("slab: no assembly kernels")
}

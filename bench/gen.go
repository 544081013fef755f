package main

import (
	"math"
	"math/rand"
	"sort"

	"parsearch"
	"parsearch/internal/data"
)

// op is one operation of a workload's sequence: a class and an index into
// that class's input pool.
type op struct {
	kind opKind
	idx  int
}

// partial is one partial-match input.
type partial struct {
	spec []float64
	eps  float64
}

// dataset is everything a workload feeds the program, generated from the
// seed alone: the same seed gives the same points, pools and sequence.
type dataset struct {
	spec     spec
	points   [][]float64
	queries  [][]float64
	boxes    [][2][]float64
	partials []partial
	inserts  [][]float64
	ops      []op
}

const (
	queryPool   = 4096
	boxPool     = 1024
	partialPool = 512
	// seqLen is the length of the generated operation sequence. A run
	// stops at its deadline, not at the end of the sequence; the length
	// only has to outlast the fastest plausible run.
	seqLen      = 400_000
	seqLenSmoke = 20_000
	// boxResults is the result count range and partial-match inputs on
	// clustered data are sized for.
	boxResults = 50
)

// Fourier descriptors of 12 part families at jitter 0.15, queries
// following the data with jitter 0.02: the real-data model of cmd/nnsearch.
const (
	fourierFamilies = 12
	fourierJitter   = 0.15
	queryJitter     = 0.02
	catalogueSeed   = 1
)

func generate(s spec, seed int64, smoke bool) *dataset {
	ds := &dataset{spec: s}
	n := seqLen
	if smoke {
		n = seqLenSmoke
	}
	if s.fourier {
		// The part families are the same for every seed and the seed picks
		// which parts are indexed: two thirds of a fixed catalogue. Drawing
		// the families themselves from the seed would make every seed a
		// different problem (speed-ups from 4.4 to 8.4 over ten seeds).
		catalogue := data.Fourier(s.points*3/2, s.dim, fourierFamilies, fourierJitter, catalogueSeed)
		pick := rand.New(rand.NewSource(seed)).Perm(len(catalogue))[:s.points]
		ds.points = make([][]float64, s.points)
		for i, j := range pick {
			ds.points[i] = catalogue[j]
		}
	} else {
		ds.points = data.Uniform(s.points, s.dim, seed)
	}
	// Part of a live workload's base data sits in the corner its inserts go
	// to, enough that the corner's disk is past Reorganize's overload factor
	// (twice the mean load) whatever the insert rate: Reorganize then always
	// has a bucket to split, mid-run, with the inserted points in it.
	if s.deploy == deployDurable {
		for _, p := range ds.points[:len(ds.points)*cornerShare/100] {
			toCorner(p)
		}
	}
	// The packed engine rounds coordinates to float32 at ingest. Rounding
	// here makes the raw points what the engine stores, so the brute-force
	// check can demand identical distances.
	roundToFloat32(ds.points)

	if s.fourier {
		ds.queries = data.QueriesFromData(ds.points, queryPool, queryJitter, seed+1)
		ds.boxes, ds.partials = fittedBoxes(ds.points, seed+2)
	} else {
		ds.queries = data.Uniform(queryPool, s.dim, seed+1)
		// Half-side 0.2 on uniform data: the box of internal/exp's bench.
		for _, c := range data.Uniform(boxPool, s.dim, seed+2) {
			lo, hi := make([]float64, s.dim), make([]float64, s.dim)
			for j := range c {
				lo[j], hi[j] = c[j]-0.2, c[j]+0.2
			}
			ds.boxes = append(ds.boxes, [2][]float64{lo, hi})
		}
	}

	// The sequence: each op draws its class from the mix and takes the
	// next input of that class's pool.
	r := rand.New(rand.NewSource(seed + 3))
	var next [numKinds]int
	ds.ops = make([]op, n)
	for i := range ds.ops {
		k := drawKind(r, s.mix)
		ds.ops[i] = op{kind: k, idx: next[k]}
		next[k]++
	}
	// Inserts are scaled toward the origin so they all land in one corner
	// of the space: quantile splits drift and a bucket overflows, which is
	// what gives Reorganize work.
	if next[opInsert] > 0 {
		ds.inserts = data.Uniform(next[opInsert], s.dim, seed+4)
		for _, p := range ds.inserts {
			toCorner(p)
		}
		roundToFloat32(ds.inserts)
	}
	return ds
}

// cornerShare is the share of a live workload's base points, in percent,
// that lie in the insert corner: 8% of the points on one of 16 disks is
// 2.2 times the mean load.
const cornerShare = 8

// toCorner scales a point of the unit cube toward the origin, into the
// lowest quadrant of every dimension.
func toCorner(p []float64) {
	for j := range p {
		p[j] *= 0.3
	}
}

func roundToFloat32(pts [][]float64) {
	for _, p := range pts {
		for j, x := range p {
			p[j] = float64(float32(x))
		}
	}
}

func drawKind(r *rand.Rand, mix [numKinds]int) opKind {
	x := r.Intn(100)
	for k, share := range mix {
		if x < share {
			return opKind(k)
		}
		x -= share
	}
	panic("bench: mix does not sum to 100")
}

// fittedBoxes sizes range and partial-match inputs on clustered data so
// each returns about boxResults points: a box is centred on a jittered
// data point and reaches as far as its r-th nearest point (maximum norm)
// in a fixed subsample, with r scaled to the subsample's share.
func fittedBoxes(points [][]float64, seed int64) (boxes [][2][]float64, partials []partial) {
	r := rand.New(rand.NewSource(seed))
	dim := len(points[0])
	sample := make([][]float64, 2000)
	for i := range sample {
		sample[i] = points[r.Intn(len(points))]
	}
	rank := boxResults * len(sample) / len(points)
	if rank < 1 {
		rank = 1
	}
	// reach returns the rank-th smallest maximum-norm distance from c to
	// the subsample over the given dimensions, keeping only the smallest
	// rank+1 distances in order as it scans.
	nearest := make([]float64, 0, rank+2)
	reach := func(c []float64, dims []int) float64 {
		nearest = nearest[:0]
		for _, p := range sample {
			d := 0.0
			for _, j := range dims {
				d = math.Max(d, math.Abs(p[j]-c[j]))
			}
			if len(nearest) > rank && d >= nearest[rank] {
				continue
			}
			i := sort.SearchFloat64s(nearest, d)
			nearest = append(nearest, 0)
			copy(nearest[i+1:], nearest[i:])
			nearest[i] = d
			nearest = nearest[:min(len(nearest), rank+1)]
		}
		return nearest[rank]
	}
	all := make([]int, dim)
	for j := range all {
		all[j] = j
	}
	centres := data.QueriesFromData(points, boxPool+partialPool, queryJitter, seed+1)
	for _, c := range centres[:boxPool] {
		h := reach(c, all)
		lo, hi := make([]float64, dim), make([]float64, dim)
		for j := range c {
			lo[j], hi[j] = c[j]-h, c[j]+h
		}
		boxes = append(boxes, [2][]float64{lo, hi})
	}
	// A partial match specifies a quarter of the dimensions.
	for _, c := range centres[boxPool:] {
		dims := r.Perm(dim)[:dim/4]
		sp := make([]float64, dim)
		for j := range sp {
			sp[j] = parsearch.Wildcard
		}
		for _, j := range dims {
			sp[j] = c[j]
		}
		partials = append(partials, partial{spec: sp, eps: reach(c, dims)})
	}
	return boxes, partials
}

// batchOf returns the queries of batch operation idx.
func (ds *dataset) batchOf(idx int) [][]float64 {
	out := make([][]float64, batchSize)
	for i := range out {
		out[i] = ds.queries[(idx*batchSize+i)%len(ds.queries)]
	}
	return out
}

func (ds *dataset) query(idx int) []float64       { return ds.queries[idx%len(ds.queries)] }
func (ds *dataset) box(idx int) [2][]float64      { return ds.boxes[idx%len(ds.boxes)] }
func (ds *dataset) partial(idx int) partial       { return ds.partials[idx%len(ds.partials)] }
func (ds *dataset) rawBytes() float64             { return float64(len(ds.points)) * float64(ds.spec.dim) * 8 }
func (ds *dataset) insertPoint(idx int) []float64 { return ds.inserts[idx] }

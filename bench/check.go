package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"parsearch"
)

// The output check: after a phase, outside any timing, a seeded sample of
// the sequence's operations is run again through the target and every
// answer is compared with a linear scan over the raw points, written here
// and sharing no code with the program.

// checkSample is the number of operations sampled per workload.
const checkSample = 200

// idPoint is one live point of the model.
type idPoint struct {
	id int
	p  []float64
}

// model is the set of points the index must hold: the built points (IDs
// are their positions) plus the acknowledged inserts minus the
// acknowledged deletes.
func model(ds *dataset, ph *phase) []idPoint {
	live := make([]idPoint, 0, len(ds.points)+len(ph.inserted))
	for i, p := range ds.points {
		live = append(live, idPoint{i, p})
	}
	for _, a := range ph.inserted {
		live = append(live, idPoint{a.id, a.point})
	}
	return live
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// bruteKNN scans every live point and returns the k nearest to q, nearest
// first, ties broken by ID.
func bruteKNN(live []idPoint, q []float64, k int) []parsearch.Neighbor {
	type cand struct {
		sq float64
		id int
		p  []float64
	}
	best := make([]cand, 0, k+1)
	for _, lp := range live {
		sq := sqDist(lp.p, q)
		if len(best) == k {
			w := best[k-1]
			if sq > w.sq || (sq == w.sq && lp.id > w.id) {
				continue
			}
		}
		i := sort.Search(len(best), func(i int) bool {
			return best[i].sq > sq || (best[i].sq == sq && best[i].id > lp.id)
		})
		best = append(best, cand{})
		copy(best[i+1:], best[i:])
		best[i] = cand{sq, lp.id, lp.p}
		if len(best) > k {
			best = best[:k]
		}
	}
	out := make([]parsearch.Neighbor, len(best))
	for i, c := range best {
		out[i] = parsearch.Neighbor{ID: c.id, Point: c.p, Dist: math.Sqrt(c.sq)}
	}
	return out
}

// bruteBox returns the live points inside [lo, hi] (bounds included), by
// ID, each with its distance to the box centre. A NaN bound leaves that
// dimension open, which is how a partial match reads.
func bruteBox(live []idPoint, lo, hi []float64) []parsearch.Neighbor {
	centre := make([]float64, len(lo))
	for i := range centre {
		centre[i] = (lo[i] + hi[i]) / 2
	}
	var out []parsearch.Neighbor
scan:
	for _, lp := range live {
		for i, x := range lp.p {
			if x < lo[i] || x > hi[i] {
				continue scan
			}
		}
		out = append(out, parsearch.Neighbor{ID: lp.id, Point: lp.p, Dist: math.Sqrt(sqDist(centre, lp.p))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// sameNeighbors demands identical IDs, in order, and — unless idsOnly —
// bit-identical distances.
func sameNeighbors(got, want []parsearch.Neighbor, idsOnly bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			return fmt.Errorf("result %d has id %d, want %d", i, got[i].ID, want[i].ID)
		}
		if !idsOnly && got[i].Dist != want[i].Dist {
			return fmt.Errorf("result %d (id %d) at distance %v, want %v", i, got[i].ID, got[i].Dist, want[i].Dist)
		}
	}
	return nil
}

// approxWithin checks an ε answer: never short, every returned distance is
// the true distance of the returned point, and the i-th is within (1+ε) of
// the exact i-th. It returns the answer's recall against the exact one.
func approxWithin(got, exact []parsearch.Neighbor, byID map[int][]float64, q []float64) (float64, error) {
	if len(got) != len(exact) {
		return 0, fmt.Errorf("%d results, want %d", len(got), len(exact))
	}
	truth := make(map[int]bool, len(exact))
	for _, n := range exact {
		truth[n.ID] = true
	}
	hits := 0
	for i, n := range got {
		p, ok := byID[n.ID]
		if !ok {
			return 0, fmt.Errorf("result %d names id %d, which is not live", i, n.ID)
		}
		if d := math.Sqrt(sqDist(p, q)); d != n.Dist {
			return 0, fmt.Errorf("result %d (id %d) at distance %v, its point lies at %v", i, n.ID, n.Dist, d)
		}
		if n.Dist > (1+epsilon)*exact[i].Dist {
			return 0, fmt.Errorf("result %d at distance %v exceeds (1+ε)·%v", i, n.Dist, exact[i].Dist)
		}
		if truth[n.ID] {
			hits++
		}
	}
	return float64(hits) / float64(len(exact)), nil
}

// verdict is the outcome of the output check.
type verdict struct {
	attempted, failed int
	// recall is the mean recall of the ε answers over the sampled k-NN
	// queries.
	recall  float64
	queries int
	first   []string
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.first) < 5 {
		v.first = append(v.first, fmt.Sprintf(format, args...))
	}
}

// verify re-runs a seeded sample of the sequence through the target and
// compares every answer with the linear scan. Exact answers must be
// identical in IDs and distances; a front's answer must also equal the
// library's on the same index. Every sampled k-NN query is additionally
// asked with ε, which gives the workload's recall. The scans run on all
// cores; the target is asked from one goroutine.
func verify(r *rig, ds *dataset, live []idPoint, seed int64) verdict {
	rnd := rand.New(rand.NewSource(seed + 200))
	var reqs []request
	for len(reqs) < checkSample {
		o := ds.ops[rnd.Intn(len(ds.ops))]
		if o.kind == opInsert || o.kind == opDelete {
			continue
		}
		reqs = append(reqs, ds.request(o))
	}
	byID := make(map[int][]float64, len(live))
	for _, lp := range live {
		byID[lp.id] = lp.p
	}

	// One scan per query, spread over the cores.
	type job struct {
		req   request
		exact [][]parsearch.Neighbor // one per query of the request
	}
	jobs := make([]job, len(reqs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2*runtime.GOMAXPROCS(0)) // bounds the scanning goroutines
	for i, req := range reqs {
		jobs[i].req = req
		wg.Add(1)
		sem <- struct{}{}
		go func(j *job) {
			defer wg.Done()
			defer func() { <-sem }()
			switch j.req.kind {
			case opKNN, opKNNEps:
				j.exact = [][]parsearch.Neighbor{bruteKNN(live, j.req.q, knnK)}
			case opBatch:
				for _, q := range j.req.qs {
					j.exact = append(j.exact, bruteKNN(live, q, knnK))
				}
			case opRange:
				j.exact = [][]parsearch.Neighbor{bruteBox(live, j.req.lo, j.req.hi)}
			case opPartial:
				lo, hi := make([]float64, len(j.req.pm.spec)), make([]float64, len(j.req.pm.spec))
				for d, v := range j.req.pm.spec {
					if math.IsNaN(v) {
						lo[d], hi[d] = math.Inf(-1), math.Inf(1)
					} else {
						lo[d], hi[d] = v-j.req.pm.eps, v+j.req.pm.eps
					}
				}
				j.exact = [][]parsearch.Neighbor{bruteBox(live, lo, hi)}
			}
		}(&jobs[i])
	}
	wg.Wait()

	var v verdict
	var recalls []float64
	ctx := context.Background()
	lib := libTarget{ix: r.ix}
	_, viaFront := r.tgt.(httpTarget)
check:
	for _, j := range jobs {
		req := j.req
		// ε operations are checked below, for every k-NN query.
		if req.kind == opKNNEps {
			req.kind = opKNN
		}
		// A partial match reports no distance (its box is unbounded).
		idsOnly := req.kind == opPartial
		v.attempted++
		got, err := r.tgt.do(ctx, req)
		if err != nil {
			v.fail("%v: %v", req.kind, err)
			continue
		}
		answers := got.answers(req.kind)
		if len(answers) != len(j.exact) {
			v.fail("%v: %d answers, want %d", req.kind, len(answers), len(j.exact))
			continue
		}
		for i := range answers {
			if err := sameNeighbors(answers[i], j.exact[i], idsOnly); err != nil {
				v.fail("%v against the linear scan: %v", req.kind, err)
				continue check
			}
		}
		if viaFront {
			inProcess, err := lib.do(ctx, req)
			if err != nil {
				v.fail("%v in the library: %v", req.kind, err)
				continue
			}
			for i, want := range inProcess.answers(req.kind) {
				if err := sameNeighbors(answers[i], want, idsOnly); err != nil {
					v.fail("%v against the library: %v", req.kind, err)
					continue check
				}
			}
		}
		if req.kind != opKNN {
			continue
		}
		v.attempted++
		req.kind = opKNNEps
		approx, err := r.tgt.do(ctx, req)
		if err != nil {
			v.fail("knn-eps: %v", err)
			continue
		}
		recall, err := approxWithin(approx.neighbors, j.exact[0], byID, req.q)
		if err != nil {
			v.fail("knn-eps: %v", err)
			continue
		}
		recalls = append(recalls, recall)
	}
	v.recall, v.queries = mean(recalls), len(recalls)
	return v
}

// answers returns an answer's result lists: one, or one per batch query.
func (a answer) answers(kind opKind) [][]parsearch.Neighbor {
	if kind == opBatch {
		return a.batch
	}
	return [][]parsearch.Neighbor{a.neighbors}
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// verifyReopened checks the index brought back from its persisted form
// against the model: Len matches, every acknowledged insert is found at
// distance 0 under its ID, and every acknowledged delete is gone.
func verifyReopened(reopened *parsearch.Index, ds *dataset, ph *phase, v *verdict) {
	v.attempted++
	if want := len(ds.points) + len(ph.inserted); reopened.Len() != want {
		v.fail("reopened index holds %d points, the model %d", reopened.Len(), want)
	}
	for _, a := range ph.inserted {
		v.attempted++
		ns, _, err := reopened.KNN(a.point, 1)
		if err != nil || len(ns) != 1 || ns[0].ID != a.id || ns[0].Dist != 0 {
			v.fail("acknowledged insert %d not found after reopen: %v %v", a.id, ns, err)
		}
	}
	for _, a := range ph.deleted {
		v.attempted++
		ns, _, err := reopened.RangeQuery(a.point, a.point)
		if err != nil {
			v.fail("looking for deleted %d after reopen: %v", a.id, err)
			continue
		}
		for _, n := range ns {
			if n.ID == a.id {
				v.fail("acknowledged delete %d is back after reopen", a.id)
			}
		}
	}
}

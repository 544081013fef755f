package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"parsearch"
)

// sample is one measured operation. start is relative to the end of the
// warm-up, so warm-up operations have a negative start.
type sample struct {
	kind   opKind
	start  int64
	dur    int64
	failed bool
}

// acked is one acknowledged durable insert.
type acked struct {
	id    int
	point []float64
}

// phase is the record of one closed-loop pass over a workload's sequence.
type phase struct {
	window  time.Duration // length of the measured window
	samples []sample      // measured operations only, in no particular order
	// The model of a live workload: what was acknowledged.
	inserted []acked
	deleted  []acked
	reorg    parsearch.ReorgStats
}

// warmShare is the untimed warm-up, as a share of the measured window.
const warmShare = 0.05

// drive runs the workload's sequence against the rig's target: a closed
// loop of the workload's clients, the sequence dealt round-robin among them,
// each sending its next operation only when the previous one returned. The
// pass lasts a warm-up plus `window`; operations begun during the warm-up
// are not measured. On a durable rig, client 0 calls Checkpoint a third and
// ReorganizeStats two thirds of the way through the window.
func drive(r *rig, ds *dataset, seed int64, window time.Duration, tr *tracer) *phase {
	warm := time.Duration(float64(window) * warmShare)
	ph := &phase{window: window}
	clients := ds.spec.clients
	runtime.GC() // every pass starts from a collected heap, whatever ran before it
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	t0 := time.Now()
	since := func() int64 { return int64(time.Since(t0) - warm) }
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var (
				samples  []sample
				inserted []acked // still live, deletable
				deleted  []acked
				reorg    parsearch.ReorgStats
				rnd      = rand.New(rand.NewSource(seed + 100 + int64(c)))
			)
			run := func(req request) (answer, error) {
				start := since()
				a, err := tr.do(r.tgt, req)
				end := since()
				if start >= 0 {
					samples = append(samples, sample{kind: req.kind, start: start, dur: end - start, failed: err != nil})
				}
				return a, err
			}
			maintenance := []struct {
				at   int64
				kind opKind
			}{{int64(window) / 3, opCheckpoint}, {2 * int64(window) / 3, opReorg}}
			if c != 0 || r.dir == "" {
				maintenance = nil
			}
			for i := c; i < len(ds.ops); i += clients {
				now := since()
				if now >= int64(window) {
					break
				}
				if len(maintenance) > 0 && now >= maintenance[0].at {
					if a, err := run(request{kind: maintenance[0].kind}); err == nil && maintenance[0].kind == opReorg {
						reorg = a.reorg
					}
					maintenance = maintenance[1:]
				}
				req := ds.request(ds.ops[i])
				if req.kind == opDelete {
					if len(inserted) == 0 {
						continue // nothing of this client's acknowledged yet
					}
					j := rnd.Intn(len(inserted))
					victim := inserted[j]
					inserted[j] = inserted[len(inserted)-1]
					inserted = inserted[:len(inserted)-1]
					req.id = victim.id
					if _, err := run(req); err == nil {
						deleted = append(deleted, victim)
					}
					continue
				}
				a, err := run(req)
				if req.kind == opInsert && err == nil {
					inserted = append(inserted, acked{id: a.id, point: req.q})
				}
			}
			mu.Lock()
			ph.samples = append(ph.samples, samples...)
			ph.inserted = append(ph.inserted, inserted...)
			ph.deleted = append(ph.deleted, deleted...)
			if c == 0 {
				ph.reorg = reorg
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return ph
}

// count returns the measured operations attempted and failed.
func (ph *phase) count() (attempted, failed int) {
	for _, s := range ph.samples {
		if s.failed {
			failed++
		}
	}
	return len(ph.samples), failed
}

// fifth returns which fifth of the measured window a sample began in.
func (ph *phase) fifth(s sample) int {
	return min(int(5*s.start/int64(ph.window)), 4)
}

// opsPerSecond is the operations completed per second of measured time:
// the median over the five fifths of the window of the operations begun in
// a fifth over the fifth's length, so that one stall — a neighbour's burst,
// the reorganize — does not decide the run's figure.
func (ph *phase) opsPerSecond() float64 {
	var begun [5]float64
	for _, s := range ph.samples {
		if !s.failed {
			begun[ph.fifth(s)]++
		}
	}
	return median(begun[:]) / (ph.window.Seconds() / 5)
}

// latency is the distribution of one operation class over a phase, in ms.
type latency struct {
	n              int
	mean, p50, p90 float64
	p99            float64
}

// latencyOf pools the successful samples of the given classes over the
// phase. (Taking a tail in each fifth of the phase and reporting the median
// of the five was tried: at these sample counts it spread wider over ten
// seeds than the pooled percentile on three workloads of four.)
func (ph *phase) latencyOf(kinds ...opKind) latency {
	var all []float64
	for _, s := range ph.samples {
		if !s.failed && isOneOf(s.kind, kinds) {
			all = append(all, float64(s.dur)/1e6)
		}
	}
	if len(all) == 0 {
		return latency{}
	}
	sort.Float64s(all)
	return latency{n: len(all), mean: mean(all),
		p50: quantile(all, 0.5), p90: quantile(all, 0.9), p99: quantile(all, 0.99)}
}

// classes returns the latency of every operation class the phase ran.
func (ph *phase) classes() map[opKind]latency {
	out := map[opKind]latency{}
	for k := opKind(0); k < numKinds; k++ {
		if l := ph.latencyOf(k); l.n > 0 {
			out[k] = l
		}
	}
	return out
}

func isOneOf(k opKind, kinds []opKind) bool {
	for _, x := range kinds {
		if k == x {
			return true
		}
	}
	return false
}

// quantile returns the q-quantile of sorted values, interpolating between
// neighbours.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func medianDuration(ds []time.Duration) time.Duration {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d)
	}
	return time.Duration(median(vs))
}

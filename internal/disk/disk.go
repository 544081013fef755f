// Package disk simulates the multi-disk hardware of the paper's testbed
// (a workstation cluster where every disk serves page reads
// independently). Queries translate into batches of page reads spread
// over the disks; each disk is serviced by its own goroutine, so batch
// execution is genuinely parallel, and a parametric service-time model
// (seek + transfer per block) converts page counts into simulated time.
//
// The paper measures "the search time of the disk which accesses most
// pages"; BatchResult exposes exactly that (MaxPerDisk / ParallelTime)
// next to the sequential cost (Total / SequentialTime), whose ratio is the
// speed-up reported in the experiments.
//
// Disks can be failed and healed to test error propagation, and a
// FaultModel injects transient read errors and latency spikes with a
// seeded RNG; ReadBatch absorbs transient errors with a bounded,
// backoff-charged retry per read (see FaultModel).
//
// An Array is safe for concurrent use: ReadBatch may run from any number
// of goroutines, and Fail/Heal/Failed/TotalReads are atomic — the
// failure flags, the installed fault model, and the lifetime block
// counters are the only shared state, and all are lock-free (the fault
// model's per-disk RNGs use short per-disk critical sections).
package disk

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Params is the service-time model of one disk.
type Params struct {
	// Seek is charged once per page read (positioning + rotational
	// delay).
	Seek time.Duration
	// Transfer is charged per block of the page (supernodes span
	// several blocks).
	Transfer time.Duration
	// Throttle, when non-zero, makes ReadBatch really sleep
	// Throttle-scaled service time on each disk goroutine, turning the
	// accounting model into observable wall-clock behaviour (used by
	// tests and demos; experiments keep it 0 for speed).
	Throttle float64
}

// DefaultParams models a mid-1990s SCSI disk: ~8 ms positioning and ~1 ms
// to transfer a 4-KByte block.
func DefaultParams() Params {
	return Params{Seek: 8 * time.Millisecond, Transfer: time.Millisecond}
}

// PageRef identifies one page read: the disk it lives on and how many
// blocks it spans (1 for a normal node, more for supernodes).
type PageRef struct {
	Disk   int
	Blocks int
}

// BatchResult summarizes the execution of one read batch.
type BatchResult struct {
	// PerDisk is the number of blocks read per disk.
	PerDisk []int
	// ReadsPerDisk is the number of page reads per disk.
	ReadsPerDisk []int
	// Total is the total number of blocks read.
	Total int
	// MaxPerDisk is the largest per-disk block count — the bottleneck
	// disk, the paper's cost metric.
	MaxPerDisk int
	// ParallelTime is the simulated batch time: the service time of
	// the slowest disk.
	ParallelTime time.Duration
	// SequentialTime is the simulated time had a single disk performed
	// every read.
	SequentialTime time.Duration
	// Times is the simulated service time each disk spent on its share
	// of the batch (ParallelTime is its maximum, SequentialTime its
	// sum) — the per-disk view observability consumers aggregate.
	Times []time.Duration
	// Retries is the number of re-read attempts transient faults caused
	// across all disks (0 unless a FaultModel is installed). Retries
	// counts attempts, not backoff sleeps: a retry performed under a
	// zero-length RetryBackoff still counts.
	Retries int
}

// Speedup returns SequentialTime / ParallelTime, the paper's headline
// metric; 0 when the batch was empty.
func (r BatchResult) Speedup() float64 {
	if r.ParallelTime == 0 {
		return 0
	}
	return float64(r.SequentialTime) / float64(r.ParallelTime)
}

// ErrDiskFailed is wrapped by ReadBatch errors for failed disks.
var ErrDiskFailed = errors.New("disk failed")

// Array is a bank of n independently serviced disks.
type Array struct {
	n      int
	params Params

	failed []atomic.Bool
	reads  []atomic.Int64 // lifetime block counters
	faults atomic.Pointer[faultState]
}

// NewArray returns an array of n disks with the given service model.
func NewArray(n int, params Params) *Array {
	if n < 1 {
		panic(fmt.Sprintf("disk: array of %d disks", n))
	}
	if params.Seek < 0 || params.Transfer < 0 || params.Throttle < 0 {
		panic(fmt.Sprintf("disk: negative service parameters %+v", params))
	}
	return &Array{
		n:      n,
		params: params,
		failed: make([]atomic.Bool, n),
		reads:  make([]atomic.Int64, n),
	}
}

// Disks returns the number of disks.
func (a *Array) Disks() int { return a.n }

// Params returns the service model.
func (a *Array) Params() Params { return a.params }

// checkDisk returns a descriptive error when no such disk exists.
func (a *Array) checkDisk(disk int) error {
	if disk < 0 || disk >= a.n {
		return fmt.Errorf("disk: no disk %d in an array of %d (want [0, %d])", disk, a.n, a.n-1)
	}
	return nil
}

// Fail marks a disk as failed; subsequent reads from it error. It
// returns a descriptive error when no such disk exists.
func (a *Array) Fail(disk int) error {
	if err := a.checkDisk(disk); err != nil {
		return err
	}
	a.failed[disk].Store(true)
	return nil
}

// Heal clears a disk's failure. It returns a descriptive error when no
// such disk exists.
func (a *Array) Heal(disk int) error {
	if err := a.checkDisk(disk); err != nil {
		return err
	}
	a.failed[disk].Store(false)
	return nil
}

// Failed reports whether the disk is failed; out-of-range disks are
// reported as not failed.
func (a *Array) Failed(disk int) bool {
	return disk >= 0 && disk < a.n && a.failed[disk].Load()
}

// FailedDisks returns the currently failed disks in ascending order. Like
// Fail and Heal it is lock-free; a concurrent Fail/Heal may or may not be
// reflected.
func (a *Array) FailedDisks() []int {
	var out []int
	for d := 0; d < a.n; d++ {
		if a.failed[d].Load() {
			out = append(out, d)
		}
	}
	return out
}

// TotalReads returns the lifetime per-disk block counters.
func (a *Array) TotalReads() []int64 {
	out := make([]int64, a.n)
	for i := range out {
		out[i] = a.reads[i].Load()
	}
	return out
}

// ResetCounters zeroes the lifetime counters.
func (a *Array) ResetCounters() {
	for i := range a.reads {
		a.reads[i].Store(0)
	}
}

// ReadBatch executes the given page reads, one goroutine per involved
// disk, and returns the cost accounting. Reads on failed disks make the
// whole batch return an error (wrapping ErrDiskFailed) alongside the
// accounting of the disks that did succeed; with several disks failing,
// the per-disk errors are aggregated with errors.Join so callers can
// route around every failure, not just the lowest-numbered one. With a
// FaultModel installed, transient read errors are retried up to
// MaxRetries times per read (charging exponential backoff plus the
// re-read as service time); a read that stays broken makes its disk
// report an error wrapping ErrTransient.
func (a *Array) ReadBatch(refs []PageRef) (BatchResult, error) {
	res := BatchResult{
		PerDisk:      make([]int, a.n),
		ReadsPerDisk: make([]int, a.n),
	}
	// Group the refs by disk, in order, inside one backing array.
	counts := make([]int, a.n)
	for _, ref := range refs {
		if ref.Disk < 0 || ref.Disk >= a.n {
			panic(fmt.Sprintf("disk: read from disk %d of %d", ref.Disk, a.n))
		}
		if ref.Blocks < 1 {
			panic(fmt.Sprintf("disk: page of %d blocks", ref.Blocks))
		}
		counts[ref.Disk]++
	}
	grouped := make([]PageRef, len(refs))
	byDisk := make([][]PageRef, a.n)
	for d, off := 0, 0; d < a.n; d++ {
		byDisk[d] = grouped[off : off : off+counts[d]]
		off += counts[d]
	}
	for _, ref := range refs {
		byDisk[ref.Disk] = append(byDisk[ref.Disk], ref)
	}

	fs := a.faults.Load()
	times := make([]time.Duration, a.n)
	errs := make([]error, a.n)
	retries := make([]int, a.n)
	var wg sync.WaitGroup
	for d := 0; d < a.n; d++ {
		if len(byDisk[d]) == 0 {
			continue
		}
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			if a.failed[d].Load() {
				errs[d] = fmt.Errorf("disk %d: %w", d, ErrDiskFailed)
				return
			}
			var t time.Duration
			blocks, reads := 0, 0
			for _, ref := range byDisk[d] {
				cost := a.params.Seek + time.Duration(ref.Blocks)*a.params.Transfer
				t += cost
				if fs != nil {
					if fs.spike(d) {
						t += fs.model.SpikeLatency
					}
					// Retry accounting counts re-read attempts; the
					// backoff charge is a separate, purely temporal
					// concern (zero-length backoff still retries — and
					// still counts).
					attempts := 0
					for fs.transient(d) {
						if attempts == fs.model.MaxRetries {
							errs[d] = fmt.Errorf("disk %d: read of %d blocks still failing after %d retries: %w",
								d, ref.Blocks, attempts, ErrTransient)
							break
						}
						if backoff := fs.model.RetryBackoff; backoff > 0 {
							t += backoff << attempts // doubling wait, charged as service time
						}
						attempts++
						t += cost // the re-read
					}
					retries[d] += attempts
					if errs[d] != nil {
						// Like a failed disk, a disk that gave up on a
						// read contributes no accounting.
						return
					}
				}
				blocks += ref.Blocks
				reads++
			}
			if a.params.Throttle > 0 {
				time.Sleep(time.Duration(float64(t) * a.params.Throttle))
			}
			a.reads[d].Add(int64(blocks))
			times[d] = t
			res.PerDisk[d] = blocks
			res.ReadsPerDisk[d] = reads
		}(d)
	}
	wg.Wait()

	res.Times = times
	for d := 0; d < a.n; d++ {
		res.Retries += retries[d]
		res.Total += res.PerDisk[d]
		res.SequentialTime += times[d]
		if res.PerDisk[d] > res.MaxPerDisk {
			res.MaxPerDisk = res.PerDisk[d]
		}
		if times[d] > res.ParallelTime {
			res.ParallelTime = times[d]
		}
	}
	return res, errors.Join(errs...)
}

// SimulateCost converts block counts into simulated time without touching
// the array: reads page reads, each of blocks blocks. Used to derive
// search times from page-access counts the same way for every strategy.
func (p Params) SimulateCost(reads, blocks int) time.Duration {
	return time.Duration(reads)*p.Seek + time.Duration(blocks)*p.Transfer
}

package parsearch

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// TestBuildWorkerPanic: a panic inside a load job does not kill the
// process from a worker goroutine — it comes out of the build's own call,
// where the caller can recover it, carrying the worker's message and
// stack; jobs not yet handed out are dropped.
func TestBuildWorkerPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var ran atomic.Int64
		jobs := make([]func(), 64)
		for i := range jobs {
			jobs[i] = func() {
				ran.Add(1)
				if i == 3 {
					panic("xtree: bulk loading went wrong")
				}
			}
		}
		recovered := func() (r any) {
			defer func() { r = recover() }()
			runJobs(jobs)
			return nil
		}()
		msg, _ := recovered.(string)
		if !strings.Contains(msg, "bulk loading went wrong") || !strings.Contains(msg, "goroutine") {
			t.Fatalf("GOMAXPROCS %d: recovered %q, want the worker's panic and its stack", procs, msg)
		}
		// One worker takes the jobs in order, so the count is exact.
		if n := ran.Load(); procs == 1 && n != 4 {
			t.Errorf("%d jobs ran on one worker; the panic in the fourth should stop the hand-out", n)
		}
	}
	runJobs(nil) // no jobs, no workers
}

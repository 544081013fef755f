package parsearch

import (
	"context"
	"expvar"
	"fmt"
	"time"

	"parsearch/internal/disk"
	"parsearch/internal/metrics"
)

// This file is the observability layer of the engine: structured
// per-query tracing (Tracer / TraceEvent, installed via Options.Tracer
// or carried in a context) and the metrics registry every query path
// updates (Index.Metrics, PublishExpvar). See README "Observability".

// The trace stages, in the order a query emits them. A k-NN query
// traces plan → (reroute | unreachable)* → search per routed disk →
// merge → io → (retry)? → done; range queries skip merge;
// batch queries emit one search event per batch item (Item ≥ 0) around
// the shared plan and io events. Errors surface as a final "error"
// event.
const (
	StagePlan        = "plan"        // failure routing decided
	StageReroute     = "reroute"     // Disk's reads will be served by its replica
	StageUnreachable = "unreachable" // Disk has no live copy; its data is invisible
	StageSearch      = "search"      // one disk's share (or one batch item) of the search finished
	StageMerge       = "merge"       // local results merged to the global k
	StageIO          = "io"          // the disk array executed the page reads
	StageRetry       = "retry"       // transient faults forced re-read attempts
	StageDone        = "done"        // query finished successfully
	StageError       = "error"       // query returned an error
	// StageRecovery is emitted once by a durable Open that found prior
	// state: Results carries the WAL records replayed, Pages the log
	// generations. StageCheckpoint is emitted by every generation
	// rotation (Checkpoint and durable Build): Results carries the
	// point-table length committed to the snapshot. Both arrive on the
	// index-wide Options.Tracer (ops "recovery" / "checkpoint").
	StageRecovery   = "recovery"
	StageCheckpoint = "checkpoint"
	// StageIngest is emitted once per applied mutation batch (InsertBatch
	// and each AsyncWriter group commit): Results carries the mutations
	// applied. StageReorg is emitted once per Reorganize call: Results
	// carries the buckets split, Pages the points moved between disks.
	// StageCatchup is emitted per served catch-up delta: Results carries
	// the files shipped, Pages the delta bytes. All three arrive on the
	// index-wide Options.Tracer (ops "ingest" / "reorganize" / "catchup").
	StageIngest  = "ingest"
	StageReorg   = "reorganize"
	StageCatchup = "catchup"
	// StageApprox is emitted once per query that ran with the
	// approximate tier armed (ε > 0), after the search: Epsilon
	// carries the governing ε, Pages the pages the approximation skipped
	// (QueryStats.PagesSkippedApprox). Exact queries never emit it.
	StageApprox = "approx"
)

// TraceEvent is one span event of a query's execution. Numeric fields
// not meaningful for a stage are zero; Disk and Item are -1 when the
// event is not scoped to a disk or batch item.
type TraceEvent struct {
	// Query is the engine-wide query sequence number (one per traced
	// KNN/NN/RangeQuery/PartialMatch/BatchKNN call).
	Query uint64
	// Op is the query kind: "knn", "range", or "batch".
	Op string
	// Stage is one of the Stage* constants.
	Stage string
	// Disk scopes per-disk events (search, reroute, unreachable); -1
	// otherwise. For a reroute it names the failed primary disk.
	Disk int
	// Item scopes batch events to a query index within the batch; -1
	// otherwise.
	Item int
	// K is the query's k (0 for range queries).
	K int
	// Results counts neighbors: a batch item's or a range query disk's
	// at search, the merged total at merge, the final count at done.
	Results int
	// Pages counts disk blocks: a disk's visited tree pages at search
	// (a batch item's executed pages), the executed total at io and done.
	Pages int
	// Retries is the number of re-read attempts at the retry stage.
	Retries int
	// Rerouted and Degraded mirror the QueryStats fields as soon as they
	// are known (plan and done).
	Rerouted bool
	Degraded bool
	// Radius is the NN-sphere radius at merge (0 elsewhere).
	Radius float64
	// Epsilon is the governing ε at the approx stage (0 elsewhere).
	Epsilon float64
	// Elapsed is the wall-clock time since the query started.
	Elapsed time.Duration
	// Err is the error text at the error stage, "" otherwise.
	Err string
}

// String formats the event for logs.
func (ev TraceEvent) String() string {
	s := fmt.Sprintf("q%d %s/%s", ev.Query, ev.Op, ev.Stage)
	if ev.Disk >= 0 {
		s += fmt.Sprintf(" disk=%d", ev.Disk)
	}
	if ev.Item >= 0 {
		s += fmt.Sprintf(" item=%d", ev.Item)
	}
	if ev.Err != "" {
		s += " err=" + ev.Err
	}
	return s
}

// Tracer receives the span events of traced queries. Implementations
// must be safe for concurrent use: a batch emits its items' events from
// its workers, and concurrent queries interleave their events. A nil Tracer (the default) disables tracing with no
// per-query cost beyond one pointer check.
type Tracer interface {
	Event(TraceEvent)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(TraceEvent)

// Event calls f(ev).
func (f TracerFunc) Event(ev TraceEvent) { f(ev) }

// tracerKey carries a Tracer in a context.
type tracerKey struct{}

// WithTracer returns a context carrying the tracer. A context tracer
// takes precedence over Options.Tracer for queries run through the
// *Context methods (KNNContext, RangeQueryContext, BatchKNNContext),
// scoping a trace to one request instead of the whole index. A nil t
// masks a tracer ctx already carries: the query reports to Options.Tracer.
func WithTracer(ctx context.Context, t Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// ContextTracer returns the tracer carried by ctx, or nil.
func ContextTracer(ctx context.Context) Tracer {
	t, _ := ctx.Value(tracerKey{}).(Tracer)
	return t
}

// tracerFor resolves the tracer of one query: the context's, else the
// index-wide Options.Tracer, else nil.
func (ix *Index) tracerFor(ctx context.Context) Tracer {
	if t := ContextTracer(ctx); t != nil {
		return t
	}
	return ix.opts.Tracer
}

// span is the per-query emitting state: a resolved tracer plus the
// query identity every event shares. The zero span (tracer nil) makes
// every emit a no-op, so untraced queries pay one nil check per stage.
type span struct {
	tr    Tracer
	query uint64
	op    string
	start time.Time
}

// newSpan starts a span for one query; it assigns the query sequence
// number only when a tracer is attached.
func (ix *Index) newSpan(ctx context.Context, op string) span {
	tr := ix.tracerFor(ctx)
	if tr == nil {
		return span{}
	}
	return span{tr: tr, query: ix.querySeq.Add(1), op: op, start: time.Now()}
}

// emit sends one event, filling the span-wide fields. Safe to call
// concurrently from a batch's workers (Tracer implementations must
// tolerate that; see Tracer).
func (s *span) emit(ev TraceEvent) {
	if s.tr == nil {
		return
	}
	ev.Query = s.query
	ev.Op = s.op
	ev.Elapsed = time.Since(s.start)
	s.tr.Event(ev)
}

// on reports whether the span traces (events would be delivered).
func (s *span) on() bool { return s.tr != nil }

// planEvents emits the routing decisions of a freshly planned query:
// one reroute event per failed primary with a live replica, one
// unreachable event per shard with no live copy, then the plan summary.
func (s *span) planEvents(routes []route, degraded bool) {
	if s.tr == nil {
		return
	}
	for d := range routes {
		switch {
		case routes[d].tree == nil:
			s.emit(TraceEvent{Stage: StageUnreachable, Disk: d, Item: -1})
		case routes[d].rerouted:
			s.emit(TraceEvent{Stage: StageReroute, Disk: d, Item: -1, Rerouted: true})
		}
	}
	s.emit(TraceEvent{Stage: StagePlan, Disk: -1, Item: -1, Degraded: degraded})
}

// ioEvents emits the io (and, when retries happened, retry) events of
// an executed read batch.
func (s *span) ioEvents(batch disk.BatchResult) {
	if s.tr == nil {
		return
	}
	s.emit(TraceEvent{Stage: StageIO, Disk: -1, Item: -1, Pages: batch.Total, Retries: batch.Retries})
	if batch.Retries > 0 {
		s.emit(TraceEvent{Stage: StageRetry, Disk: -1, Item: -1, Retries: batch.Retries})
	}
}

// errEvent emits the error event for a failed query.
func (s *span) errEvent(err error) {
	if s.tr == nil || err == nil {
		return
	}
	s.emit(TraceEvent{Stage: StageError, Disk: -1, Item: -1, Err: err.Error()})
}

// Metrics returns a snapshot of the index's cumulative metrics: query
// counts by kind, page reads (total, per disk, and as a histogram),
// simulated per-disk service time, fault-path counters (retries,
// reroutes, unreachable pages, degraded queries), and the per-disk
// balance coefficient over the lifetime page reads. Counters persist
// across Save/Load (the snapshot carries them) and accumulate until
// ResetMetrics.
func (ix *Index) Metrics() metrics.Snapshot {
	return ix.reg.Snapshot()
}

// ResetMetrics zeroes the metrics registry (the disk array's lifetime
// block counters included), e.g. between benchmark phases. It zeroes
// the registry in place, by installing an empty registry's encoding:
// queries read ix.reg without a lock, so the pointer never changes.
// Neither call can fail: the encoding is of a registry over the same
// disk count, made by the codec that validates it.
func (ix *Index) ResetMetrics() {
	empty, _ := metrics.NewRegistry(ix.opts.Disks).MarshalBinary()
	_ = ix.reg.UnmarshalBinary(empty)
	ix.array.ResetCounters()
}

// PublishExpvar publishes the index's metrics under the given expvar
// name (rendered as JSON on /debug/vars). expvar names are global and
// permanent, so publishing the same name twice — even from different
// indexes — returns an error instead of panicking; the variable keeps
// reading the live registry of the index it was published from.
func (ix *Index) PublishExpvar(name string) error {
	if name == "" {
		return fmt.Errorf("parsearch: empty expvar name")
	}
	if expvar.Get(name) != nil {
		return fmt.Errorf("parsearch: expvar %q already published", name)
	}
	expvar.Publish(name, expvar.Func(func() interface{} {
		return ix.Metrics()
	}))
	return nil
}

// recordQuery folds one finished query's own statistics — a single
// query's, or one batch item's — into the registry. The call that ran it
// is recorded by recordCall.
func (ix *Index) recordQuery(qs *QueryStats) {
	ix.reg.PagesRead.Add(int64(qs.TotalPages))
	ix.reg.CellsVisited.Add(int64(qs.Cells))
	ix.reg.Rerouted.Add(int64(qs.Rerouted))
	ix.reg.Unreachable.Add(int64(qs.Unreachable))
	ix.reg.SearchPages.Add(int64(qs.SearchPages))
	ix.reg.PagesSavedByBound.Add(int64(qs.PagesSavedByBound))
	ix.reg.PagesSavedByRemoteBound.Add(int64(qs.PagesSavedByRemoteBound))
	if qs.Degraded {
		ix.reg.DegradedQueries.Inc()
	}
	for d, pages := range qs.PagesPerDisk {
		ix.reg.PagesPerDisk.Add(d, int64(pages))
	}
	ix.recordApprox(qs)
	ix.reg.QueryPages.Observe(int64(qs.TotalPages))
	ix.reg.QueryTimeNs.Observe(int64(qs.ParallelTime * 1e9))
}

// recordCall folds one finished API call into the registry: kind counts
// the call, batch carries the I/O it executed (the retries, and the
// per-disk service times that feed the per-disk time accumulators), and
// start is its wall-clock entry time. A batch is one call — one
// wall-clock observation, the histogram tracks API-call latencies (it
// feeds the bench harness's percentiles) — over many recorded queries.
func (ix *Index) recordCall(kind *metrics.Counter, batch disk.BatchResult, start time.Time) {
	kind.Inc()
	ix.reg.Retries.Add(int64(batch.Retries))
	for d, t := range batch.Times {
		ix.reg.ServiceTimePerDisk.Add(d, t.Nanoseconds())
	}
	ix.reg.QueryWallNs.Observe(time.Since(start).Nanoseconds())
}

// recordApprox folds one query's approximate-tier statistics into the
// registry. Exact queries (EffectiveEpsilon 0, so nothing skipped) leave
// every approx metric untouched, so the exact path's metrics stay
// identical to an engine without the tier.
func (ix *Index) recordApprox(qs *QueryStats) {
	if qs.EffectiveEpsilon == 0 {
		return
	}
	ix.reg.ApproxQueries.Inc()
	ix.reg.PagesSkippedApprox.Add(int64(qs.PagesSkippedApprox))
}

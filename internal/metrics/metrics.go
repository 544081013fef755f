// Package metrics is the engine-wide metrics registry of the query
// engine: lock-free counters, fixed-bucket exponential histograms, and
// per-disk accumulators that every query path updates and that
// Index.Metrics() exposes as an immutable Snapshot.
//
// All primitives are safe for concurrent use by any number of
// goroutines; updates are single atomic adds, so instrumentation stays
// off the contended paths (no locks, no allocation). A Snapshot taken
// while writers are running is a per-field-consistent view: every value
// is a valid atomic read, but different fields may reflect slightly
// different instants.
//
// The registry round-trips through a binary encoding (MarshalBinary /
// UnmarshalBinary) so an index snapshot can carry its operational
// history across Save/Load.
package metrics

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Counter is a lock-free monotonic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// HistBuckets is the number of exponential buckets of a Histogram.
// Bucket i counts observations v with 2^(i-1) <= v < 2^i (bucket 0
// counts v <= 0 and v = 1 lands in bucket 1); the last bucket absorbs
// everything larger. 48 buckets cover nanosecond-scale observations up
// to ~78 hours.
const HistBuckets = 48

// Histogram is a lock-free histogram over int64 observations with
// fixed power-of-two buckets — coarse, but allocation-free and
// mergeable, which is what per-query instrumentation needs.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [HistBuckets]atomic.Int64
}

// bucketOf returns the bucket index of observation v.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v)) // v in [2^(b-1), 2^b)
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// HistogramSnapshot is an immutable copy of a Histogram.
type HistogramSnapshot struct {
	// Count is the number of observations; Sum their total.
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	// Mean is Sum/Count (0 when empty).
	Mean float64 `json:"mean"`
	// Buckets[i] counts observations in [2^(i-1), 2^i); see HistBuckets.
	Buckets []int64 `json:"buckets"`
}

// Snapshot returns an immutable copy of the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Buckets: make([]int64, HistBuckets)}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	// Count is derived from the buckets rather than h.count so that a
	// snapshot taken under concurrent writers stays internally
	// consistent (sum of buckets == count).
	s.Sum = h.sum.Load()
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	return s
}

// Quantile returns an upper bound of the q-quantile (0 <= q <= 1) of
// the observations: the upper edge of the bucket holding the quantile
// observation. It returns 0 for an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(s.Count-1))
	var seen int64
	for i, c := range s.Buckets {
		seen += c
		if seen > rank {
			if i == 0 {
				return 0
			}
			return int64(1) << uint(i) // upper edge of bucket i
		}
	}
	return int64(1) << uint(len(s.Buckets)-1)
}

// PerDisk is a fixed-width array of lock-free per-disk accumulators.
type PerDisk struct {
	vals []atomic.Int64
}

// NewPerDisk returns accumulators for n disks.
func NewPerDisk(n int) *PerDisk {
	return &PerDisk{vals: make([]atomic.Int64, n)}
}

// Add adds n to disk d's accumulator; out-of-range disks are ignored
// (queries charge only real disks, so this is a belt-and-braces guard,
// not a code path).
func (p *PerDisk) Add(d int, n int64) {
	if d >= 0 && d < len(p.vals) {
		p.vals[d].Add(n)
	}
}

// Values returns a copy of the per-disk values.
func (p *PerDisk) Values() []int64 {
	out := make([]int64, len(p.vals))
	for i := range p.vals {
		out[i] = p.vals[i].Load()
	}
	return out
}

// Registry is the engine-wide metrics registry: one per Index, updated
// by every query, exposed via Index.Metrics() and expvar.
type Registry struct {
	// Queries by kind. Batch counts BatchKNN calls; BatchQueries the
	// individual queries inside them.
	QueriesKNN   Counter
	QueriesRange Counter
	QueriesBatch Counter
	BatchQueries Counter
	// QueryErrors counts queries that returned an error (including
	// ErrEmpty and ErrUnavailable).
	QueryErrors Counter
	// DegradedQueries counts queries whose answer unreachable data could
	// have affected (QueryStats.Degraded).
	DegradedQueries Counter

	// PagesRead counts disk blocks read; CellsVisited the storage cells
	// (or tree leaves) the NN-sphere/box intersected; NodeVisits the
	// X-tree nodes the per-disk searches visited.
	PagesRead    Counter
	CellsVisited Counter
	NodeVisits   Counter

	// Fault-path counters, mirroring the QueryStats fields.
	Retries     Counter
	Rerouted    Counter
	Unreachable Counter

	// Search-work counters, mirroring the QueryStats fields: SearchPages
	// counts the index pages the searches actually traversed,
	// PagesSavedByBound the pages the k-NN searches still had queued
	// when they stopped.
	SearchPages       Counter
	PagesSavedByBound Counter

	// retiredBoundTightenings is the fifteenth scalar slot of codec v2+,
	// which counted how often the per-disk searches of the old parallel
	// fan-out lowered their shared bound. Nothing increments it and no
	// snapshot reports it; it stays in scalars() so that every old blob
	// decodes and re-encodes at its length without a codec v8.
	retiredBoundTightenings Counter

	// retiredDistCompsSaved is the sixteenth scalar slot of codec v3+,
	// which counted the distance computations the deleted SQ8 pre-filter
	// skipped. Nothing increments it and no snapshot reports it; it
	// stays in scalars() so that every old blob decodes and re-encodes
	// at its length without a codec v8.
	retiredDistCompsSaved Counter

	// Durability counters (zero on non-durable indexes): WALAppends
	// counts log records appended, WALSyncs the fsyncs the group-commit
	// writer issued (≤ WALAppends under load — that gap is the group
	// commit working), WALBytes the log bytes written, Recoveries how
	// often Open replayed durable state, and RecoveredRecords the log
	// records those replays applied.
	WALAppends       Counter
	WALSyncs         Counter
	WALBytes         Counter
	Recoveries       Counter
	RecoveredRecords Counter

	// Live-mutation counters: IngestBatches counts the mutation batches
	// the batched-ingest path applied (InsertBatch calls and AsyncWriter
	// group commits), ReorgBuckets the overloaded buckets the
	// incremental reorganization split one level deeper, and
	// CatchupBytes the snapshot+WAL delta bytes served to catching-up
	// replicas.
	IngestBatches Counter
	ReorgBuckets  Counter
	CatchupBytes  Counter

	// Approximate-tier counters: ApproxQueries counts queries that ran
	// with the approximate tier armed (ε > 0), PagesSkippedApprox the
	// search pages the tier skipped (QueryStats.PagesSkippedApprox).
	// Both stay zero on exact paths.
	ApproxQueries      Counter
	PagesSkippedApprox Counter

	// Cluster counters (codec v7). On a shard daemon,
	// PagesSavedByRemoteBound counts the search pages pruned while the
	// shared bound still held a remotely seeded value
	// (QueryStats.PagesSavedByRemoteBound). On a coordinator — whose
	// registry treats the process shards as its "disks" — ShardRPCs
	// counts the shard requests fanned out and ShardRetries the failover
	// re-issues after a shard RPC failed. All three stay zero on a
	// single-process index.
	PagesSavedByRemoteBound Counter
	ShardRPCs               Counter
	ShardRetries            Counter

	// retiredRemoteBoundTightenings is the thirtieth scalar slot of codec
	// v7, which counted the queries whose first phase shipped a k-th
	// distance to the other shards when a cluster k-NN ran in two
	// rounds. Nothing increments it and no snapshot reports it; it stays
	// in scalars() so that every old blob decodes and re-encodes at its
	// length without a codec v8.
	retiredRemoteBoundTightenings Counter

	// PagesPerDisk accumulates the blocks charged to each disk;
	// ServiceTimePerDisk the simulated service time (nanoseconds) each
	// disk spent — the per-disk balance view of the paper's cost model.
	PagesPerDisk       *PerDisk
	ServiceTimePerDisk *PerDisk

	// QueryPages observes each query's total page count; QueryTimeNs
	// each query's simulated parallel time in nanoseconds; QueryWallNs
	// each query's real wall-clock latency in nanoseconds (the source
	// of the bench harness's latency percentiles).
	QueryPages  Histogram
	QueryTimeNs Histogram
	QueryWallNs Histogram

	// WALFsyncNs observes the duration of each group-commit fsync in
	// nanoseconds (empty on non-durable indexes).
	WALFsyncNs Histogram

	// retiredLSHProbePages is the fifth histogram slot of codec v6/v7,
	// which profiled the deleted LSH pre-filter. Nothing observes it and
	// no snapshot reports it; it stays in histograms() so that every old
	// blob decodes and re-encodes at its length without a codec v8.
	retiredLSHProbePages Histogram

	// ShardLatencyNs observes the wall-clock latency of each shard RPC a
	// coordinator issued, in nanoseconds (empty on shard daemons and
	// single-process indexes).
	ShardLatencyNs Histogram
}

// NewRegistry returns an empty registry for an index over disks disks.
func NewRegistry(disks int) *Registry {
	if disks < 1 {
		panic(fmt.Sprintf("metrics: registry over %d disks", disks))
	}
	return &Registry{
		PagesPerDisk:       NewPerDisk(disks),
		ServiceTimePerDisk: NewPerDisk(disks),
	}
}

// Disks returns the number of disks the registry tracks.
func (r *Registry) Disks() int { return len(r.PagesPerDisk.vals) }

// Snapshot is an immutable, JSON-serializable copy of a Registry.
type Snapshot struct {
	QueriesKNN      int64 `json:"queries_knn"`
	QueriesRange    int64 `json:"queries_range"`
	QueriesBatch    int64 `json:"queries_batch"`
	BatchQueries    int64 `json:"batch_queries"`
	QueryErrors     int64 `json:"query_errors"`
	DegradedQueries int64 `json:"degraded_queries"`

	PagesRead    int64 `json:"pages_read"`
	CellsVisited int64 `json:"cells_visited"`
	NodeVisits   int64 `json:"node_visits"`

	Retries     int64 `json:"retries"`
	Rerouted    int64 `json:"rerouted"`
	Unreachable int64 `json:"unreachable"`

	SearchPages       int64 `json:"search_pages"`
	PagesSavedByBound int64 `json:"pages_saved_by_bound"`

	PagesPerDisk         []int64 `json:"pages_per_disk"`
	ServiceTimePerDiskNs []int64 `json:"service_time_per_disk_ns"`

	// Balance is the per-disk balance coefficient over the cumulative
	// page reads: mean/max of PagesPerDisk. 1.0 means every disk read
	// exactly the same number of blocks (the declustering goal of the
	// paper); 1/disks means one disk did all the work; 0 means no reads
	// yet.
	Balance float64 `json:"balance"`

	WALAppends       int64 `json:"wal_appends"`
	WALSyncs         int64 `json:"wal_syncs"`
	WALBytes         int64 `json:"wal_bytes"`
	Recoveries       int64 `json:"recoveries"`
	RecoveredRecords int64 `json:"recovered_records"`

	IngestBatches int64 `json:"ingest_batches"`
	ReorgBuckets  int64 `json:"reorg_buckets"`
	CatchupBytes  int64 `json:"catchup_bytes"`

	ApproxQueries      int64 `json:"approx_queries"`
	PagesSkippedApprox int64 `json:"pages_skipped_approx"`

	PagesSavedByRemoteBound int64 `json:"pages_saved_by_remote_bound"`
	ShardRPCs               int64 `json:"shard_rpcs"`
	ShardRetries            int64 `json:"shard_retries"`

	QueryPages     HistogramSnapshot `json:"query_pages"`
	QueryTimeNs    HistogramSnapshot `json:"query_time_ns"`
	QueryWallNs    HistogramSnapshot `json:"query_wall_ns"`
	WALFsyncNs     HistogramSnapshot `json:"wal_fsync_ns"`
	ShardLatencyNs HistogramSnapshot `json:"shard_latency_ns"`
}

// BalanceCoefficient computes mean/max over per-disk loads: 1.0 is a
// perfectly even spread, 0 an empty one.
func BalanceCoefficient(perDisk []int64) float64 {
	var sum, max int64
	for _, v := range perDisk {
		sum += v
		if v > max {
			max = v
		}
	}
	if max == 0 || len(perDisk) == 0 {
		return 0
	}
	return float64(sum) / float64(len(perDisk)) / float64(max)
}

// Snapshot returns an immutable copy of the registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		QueriesKNN:      r.QueriesKNN.Value(),
		QueriesRange:    r.QueriesRange.Value(),
		QueriesBatch:    r.QueriesBatch.Value(),
		BatchQueries:    r.BatchQueries.Value(),
		QueryErrors:     r.QueryErrors.Value(),
		DegradedQueries: r.DegradedQueries.Value(),

		PagesRead:    r.PagesRead.Value(),
		CellsVisited: r.CellsVisited.Value(),
		NodeVisits:   r.NodeVisits.Value(),

		Retries:     r.Retries.Value(),
		Rerouted:    r.Rerouted.Value(),
		Unreachable: r.Unreachable.Value(),

		SearchPages:       r.SearchPages.Value(),
		PagesSavedByBound: r.PagesSavedByBound.Value(),

		PagesPerDisk:         r.PagesPerDisk.Values(),
		ServiceTimePerDiskNs: r.ServiceTimePerDisk.Values(),

		WALAppends:       r.WALAppends.Value(),
		WALSyncs:         r.WALSyncs.Value(),
		WALBytes:         r.WALBytes.Value(),
		Recoveries:       r.Recoveries.Value(),
		RecoveredRecords: r.RecoveredRecords.Value(),

		IngestBatches: r.IngestBatches.Value(),
		ReorgBuckets:  r.ReorgBuckets.Value(),
		CatchupBytes:  r.CatchupBytes.Value(),

		ApproxQueries:      r.ApproxQueries.Value(),
		PagesSkippedApprox: r.PagesSkippedApprox.Value(),

		PagesSavedByRemoteBound: r.PagesSavedByRemoteBound.Value(),
		ShardRPCs:               r.ShardRPCs.Value(),
		ShardRetries:            r.ShardRetries.Value(),

		QueryPages:     r.QueryPages.Snapshot(),
		QueryTimeNs:    r.QueryTimeNs.Snapshot(),
		QueryWallNs:    r.QueryWallNs.Snapshot(),
		WALFsyncNs:     r.WALFsyncNs.Snapshot(),
		ShardLatencyNs: r.ShardLatencyNs.Snapshot(),
	}
	s.Balance = BalanceCoefficient(s.PagesPerDisk)
	return s
}

// The binary encoding: a magic+version prefix, the disk count, the
// scalar counters in a fixed order, the per-disk arrays, and the
// histograms. Everything is little-endian int64s, so the format is
// fixed-length for a given disk count and version.
//
// Decoding accepts every version (older encodings leave the newer
// fields zero), encoding always writes the current one.
const codecMagic = uint32(0x4d545231) // "MTR1"

// codecLayouts[v-1] is how many of the scalar counters (see scalars)
// and of the histograms (see histograms) version v encodes. Both lists
// are append-only, so a version is a prefix of each; adding a counter
// or a histogram is one appended row here and one appended entry there.
var codecLayouts = [...]struct{ scalars, hists int }{
	{12, 2}, // v1
	{15, 2}, // v2: the three cooperative-pruning counters (the third now retiredBoundTightenings)
	{16, 3}, // v3: retiredDistCompsSaved, QueryWallNs
	{21, 4}, // v4: the five durability counters, WALFsyncNs
	{24, 4}, // v5: the three live-mutation counters
	{26, 5}, // v6: the two approximate-tier counters, retiredLSHProbePages
	{30, 6}, // v7: the four cluster counters (the fourth now retiredRemoteBoundTightenings), ShardLatencyNs
}

const codecVersion = uint32(len(codecLayouts))

// scalars lists the scalar counters in encoding order. Append-only:
// decoding older versions relies on the prefix staying stable.
func (r *Registry) scalars() []*Counter {
	return []*Counter{
		&r.QueriesKNN, &r.QueriesRange, &r.QueriesBatch, &r.BatchQueries,
		&r.QueryErrors, &r.DegradedQueries,
		&r.PagesRead, &r.CellsVisited, &r.NodeVisits,
		&r.Retries, &r.Rerouted, &r.Unreachable,
		&r.SearchPages, &r.PagesSavedByBound, &r.retiredBoundTightenings,
		&r.retiredDistCompsSaved,
		&r.WALAppends, &r.WALSyncs, &r.WALBytes,
		&r.Recoveries, &r.RecoveredRecords,
		&r.IngestBatches, &r.ReorgBuckets, &r.CatchupBytes,
		&r.ApproxQueries, &r.PagesSkippedApprox,
		&r.PagesSavedByRemoteBound, &r.ShardRPCs, &r.ShardRetries,
		&r.retiredRemoteBoundTightenings,
	}
}

// histograms lists the histograms in encoding order, append-only like
// scalars.
func (r *Registry) histograms() []*Histogram {
	return []*Histogram{&r.QueryPages, &r.QueryTimeNs, &r.QueryWallNs, &r.WALFsyncNs, &r.retiredLSHProbePages, &r.ShardLatencyNs}
}

// MarshalBinary encodes the registry's current values.
func (r *Registry) MarshalBinary() ([]byte, error) {
	disks := r.Disks()
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, codecMagic)
	buf = binary.LittleEndian.AppendUint32(buf, codecVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(disks))
	for _, c := range r.scalars() {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Value()))
	}
	for _, p := range []*PerDisk{r.PagesPerDisk, r.ServiceTimePerDisk} {
		for _, v := range p.Values() {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	for _, h := range r.histograms() {
		s := h.Snapshot()
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Count))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Sum))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Buckets)))
		for _, b := range s.Buckets {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(b))
		}
	}
	return buf, nil
}

// decoder is a bounds-checked little-endian reader.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) u32() (uint32, error) {
	if d.off+4 > len(d.b) {
		return 0, fmt.Errorf("metrics: truncated encoding at byte %d", d.off)
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) i64() (int64, error) {
	if d.off+8 > len(d.b) {
		return 0, fmt.Errorf("metrics: truncated encoding at byte %d", d.off)
	}
	v := int64(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v, nil
}

// nonNegative rejects counter values a well-formed registry can never
// hold (fuzzed or corrupted encodings).
func nonNegative(name string, v int64) error {
	if v < 0 {
		return fmt.Errorf("metrics: negative %s %d", name, v)
	}
	return nil
}

// UnmarshalBinary decodes an encoding produced by MarshalBinary into
// the registry, replacing its values. It validates structure (magic,
// version, disk count must match the registry) and plausibility (no
// negative counters; histogram buckets must sum to the count), so a
// corrupted encoding is rejected with an error rather than installed.
func (r *Registry) UnmarshalBinary(data []byte) error {
	d := &decoder{b: data}
	magic, err := d.u32()
	if err != nil {
		return err
	}
	if magic != codecMagic {
		return fmt.Errorf("metrics: bad magic %#x", magic)
	}
	version, err := d.u32()
	if err != nil {
		return err
	}
	if version < 1 || version > codecVersion {
		return fmt.Errorf("metrics: unsupported encoding version %d", version)
	}
	disks, err := d.u32()
	if err != nil {
		return err
	}
	if int(disks) != r.Disks() {
		return fmt.Errorf("metrics: encoding for %d disks, registry has %d", disks, r.Disks())
	}

	layout := codecLayouts[version-1]
	scalars := r.scalars()
	vals := make([]int64, len(scalars))
	for i := 0; i < layout.scalars; i++ {
		v, err := d.i64()
		if err != nil {
			return err
		}
		if err := nonNegative("counter", v); err != nil {
			return err
		}
		vals[i] = v
	}
	perDisk := make([][]int64, 2)
	for p := range perDisk {
		perDisk[p] = make([]int64, disks)
		for i := range perDisk[p] {
			v, err := d.i64()
			if err != nil {
				return err
			}
			if err := nonNegative("per-disk value", v); err != nil {
				return err
			}
			perDisk[p][i] = v
		}
	}
	type histVals struct {
		count, sum int64
		buckets    []int64
	}
	hists := make([]histVals, layout.hists)
	for h := range hists {
		var hv histVals
		if hv.count, err = d.i64(); err != nil {
			return err
		}
		if hv.sum, err = d.i64(); err != nil {
			return err
		}
		if err := nonNegative("histogram count", hv.count); err != nil {
			return err
		}
		if err := nonNegative("histogram sum", hv.sum); err != nil {
			return err
		}
		n, err := d.u32()
		if err != nil {
			return err
		}
		if n != HistBuckets {
			return fmt.Errorf("metrics: %d histogram buckets, want %d", n, HistBuckets)
		}
		hv.buckets = make([]int64, n)
		var total int64
		for i := range hv.buckets {
			v, err := d.i64()
			if err != nil {
				return err
			}
			if err := nonNegative("bucket count", v); err != nil {
				return err
			}
			hv.buckets[i] = v
			total += v
		}
		if total != hv.count {
			return fmt.Errorf("metrics: histogram buckets sum to %d, count says %d", total, hv.count)
		}
		hists[h] = hv
	}
	if d.off != len(data) {
		return fmt.Errorf("metrics: %d trailing bytes in encoding", len(data)-d.off)
	}

	// Everything validated — install.
	for i, c := range scalars {
		c.v.Store(vals[i])
	}
	for p, dst := range []*PerDisk{r.PagesPerDisk, r.ServiceTimePerDisk} {
		for i, v := range perDisk[p] {
			dst.vals[i].Store(v)
		}
	}
	for h, dst := range r.histograms() {
		if h >= len(hists) {
			// Histogram absent from an older encoding: reset to zero.
			dst.count.Store(0)
			dst.sum.Store(0)
			for i := range dst.buckets {
				dst.buckets[i].Store(0)
			}
			continue
		}
		dst.count.Store(hists[h].count)
		dst.sum.Store(hists[h].sum)
		for i, v := range hists[h].buckets {
			dst.buckets[i].Store(v)
		}
	}
	return nil
}

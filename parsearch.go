// Package parsearch is a parallel similarity-search engine for
// high-dimensional feature vectors, reproducing "Fast Parallel Similarity
// Search in Multimedia Databases" (Berchtold, Böhm, Braunmüller, Keim,
// Kriegel; ACM SIGMOD 1997).
//
// Feature vectors are declustered over a bank of simulated disks; each
// disk holds an X-tree over its share of the data. A k-nearest-neighbor
// query searches all disks' trees with one best-first queue, and only
// its simulated page reads fan out to the disks in parallel. The
// declustering strategy decides how well the pages a query must read are
// spread over the disks, and hence the speed-up; the paper's near-optimal
// strategy guarantees that all directly and indirectly neighboring
// quadrants of the data space land on different disks.
//
// Basic use:
//
//	ix, err := parsearch.Open(parsearch.Options{Dim: 16, Disks: 8})
//	if err != nil { ... }
//	ix.Build(points)
//	neighbors, stats, err := ix.KNN(query, 10)
//
// The returned QueryStats carry the paper's cost metrics: pages read per
// disk, the bottleneck disk, and the speed-up over a sequential search.
//
// # Concurrency
//
// An Index is safe for concurrent use by any number of goroutines: the
// query methods (KNN*, RangeQuery*, PartialMatch*, BatchKNN*, Browse,
// ServiceDemands, Save) may run concurrently with each other and with the
// mutating methods (Insert, Delete, FailDisk, HealDisk, Reorganize,
// Build). A query takes no lock: it reads the one version the index last
// published, which a whole write batch, Reorganize step or Build cuts in
// atomically, so it observes either the old or the new structure, never
// a half-built one, and never waits for a writer. See DESIGN.md
// ("Concurrency contract") for the exact guarantees and the lock
// hierarchy.
package parsearch

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"parsearch/internal/core"
	"parsearch/internal/disk"
	"parsearch/internal/fsx"
	"parsearch/internal/metrics"
	"parsearch/internal/vec"
	"parsearch/internal/wal"
	"parsearch/internal/xtree"
)

// Kind selects a declustering strategy.
type Kind string

// The available declustering strategies.
const (
	// NearOptimal is the paper's graph-coloring declustering ("new"):
	// quadrant coloring with col, folded to the disk count.
	NearOptimal Kind = "near-optimal"
	// Hilbert declusters by the quadrant's Hilbert value mod disks
	// [FB 93] — the strongest classic baseline.
	Hilbert Kind = "hilbert"
	// DiskModulo declusters by the coordinate sum mod disks [DS 82].
	DiskModulo Kind = "disk-modulo"
	// FX declusters by the coordinate XOR mod disks [KP 88].
	FX Kind = "fx"
	// RoundRobin assigns points to disks by insertion order.
	RoundRobin Kind = "round-robin"
	// DirectOnly is an ablation: a d+1-coloring separating only direct
	// neighbors.
	DirectOnly Kind = "direct-only"
)

// DiskParams is the service-time model of one simulated disk.
type DiskParams struct {
	// Seek is charged once per page read (positioning).
	Seek time.Duration
	// Transfer is charged per 4-KByte block of the page.
	Transfer time.Duration
	// Throttle, when non-zero, makes queries really sleep the scaled
	// service time on each disk goroutine (tests and demos only).
	Throttle float64
}

// DefaultDiskParams models the paper's mid-1990s SCSI disks: 8 ms
// positioning and 1 ms to transfer a 4-KByte block.
func DefaultDiskParams() DiskParams {
	p := disk.DefaultParams()
	return DiskParams{Seek: p.Seek, Transfer: p.Transfer, Throttle: p.Throttle}
}

func (p DiskParams) validate() error {
	if p.Seek < 0 || p.Transfer < 0 || p.Throttle < 0 {
		return fmt.Errorf("parsearch: negative disk parameters %+v", p)
	}
	return nil
}

// Metric selects the distance function for similarity queries.
type Metric string

// The available metrics.
const (
	// Euclidean (L2) distance, the paper's similarity measure. Default.
	Euclidean Metric = "l2"
	// Manhattan (L1) distance.
	Manhattan Metric = "l1"
	// Maximum (L∞) distance.
	Maximum Metric = "linf"
)

// CostModel selects how query page accesses are accounted.
type CostModel string

// The available cost models.
const (
	// TreePages counts the leaf pages of each disk's X-tree whose MBR
	// intersects the NN-sphere — the behaviour of the real system,
	// where every disk packs its share of the data into its own index
	// pages. Default.
	TreePages CostModel = "tree"
	// BucketPages counts the pages of the quadrant buckets intersecting
	// the NN-sphere — the paper's idealized storage model of §3, where
	// the buckets themselves are the storage units. Useful at small
	// scale, where per-disk trees cannot resolve quadrants yet.
	BucketPages CostModel = "buckets"
)

// Options configure an Index. Zero values select the documented defaults.
// Options are immutable after Open.
type Options struct {
	// Dim is the dimensionality of the feature vectors. Required.
	Dim int
	// Disks is the number of disks to decluster onto. Required.
	Disks int
	// Kind selects the declustering strategy; default NearOptimal.
	Kind Kind
	// PageSize is the disk block size in bytes; default 4096 (the
	// paper's block size). It determines the X-tree node capacities.
	PageSize int
	// QuantileSplits, when true, places the quadrant split of every
	// dimension at the data's median instead of 0.5 (the paper's first
	// extension for skewed data). Takes effect at Build time.
	QuantileSplits bool
	// Recursive, when true, recursively declusters overloaded disks
	// (the paper's second extension for highly clustered data). Takes
	// effect at Build time. Only valid with Kind NearOptimal.
	Recursive bool
	// DiskParams is the service-time model of the simulated disks;
	// nil selects DefaultDiskParams.
	DiskParams *DiskParams
	// Baseline, when true, additionally maintains a sequential X-tree
	// over all data so QueryStats can report the true speed-up.
	Baseline bool
	// CostModel selects the page-access accounting; default TreePages.
	CostModel CostModel
	// Metric selects the similarity measure; default Euclidean.
	Metric Metric
	// Replication is the number of extra copies every storage cell
	// keeps (0 or 1). With Replication = 1 each disk's cells are stored
	// twice: on their primary disk (the declustering's choice) and on
	// the chained replica disk (primary+1 mod Disks), so queries keep
	// returning exact results through any single disk failure — at a
	// degraded speed-up, since the replica disk serves double load.
	// Requires Disks >= 2. See README "Failure semantics".
	Replication int
	// Tracer, when non-nil, receives structured span events for every
	// query (plan, per-disk search, merge, I/O, retry/reroute
	// decisions). It must be safe for concurrent use; a per-request
	// tracer can instead be carried in a context via WithTracer and the
	// *Context query methods. See README "Observability".
	Tracer Tracer
	// Packed is ignored. Every index stores its vectors in contiguous
	// per-page float32 slabs, rounding each coordinate to float32 at
	// Build, Insert and load, and serves queries with batched distance
	// kernels (see DESIGN.md "Storage"). The field stays so that callers
	// which set it keep compiling.
	Packed bool
	// Epsilon is the default ε of the approximate search tier: k-NN
	// traversals stop once the next node's MINDIST exceeds
	// kth/(1+ε), so every returned distance is within a factor (1+ε)
	// of exact (see DESIGN.md "Approximate search"). 0 (the default)
	// keeps every query exact — byte-identical to an index without the
	// knob. Per-query overrides: the Approx of KNNShardContext and
	// BatchKNNShardContext (and KNNApprox), and the wire "epsilon"
	// field. Must be finite, ≥ 0, and ≤ 1e6.
	Epsilon float64

	// Durable arms the durability subsystem: every Insert and Delete
	// is appended to a write-ahead log in Dir before it returns, and
	// Open recovers the acknowledged state from the newest snapshot
	// plus the log chain after a crash (see durable.go). Checkpoint
	// rotates the log into a fresh snapshot; Close flushes and stops
	// mutations.
	Durable bool
	// Dir is the durable directory (required with Durable, rejected
	// without). It is created when missing.
	Dir string
	// WALSync selects the log fsync policy: WALSyncAlways (the
	// default) makes every acknowledged mutation crash-proof;
	// WALSyncOS trades the unsynced tail for mutation throughput.
	WALSync WALSyncPolicy
	// Salvage turns recovery's refusal of corrupt durable state
	// (ErrCorrupt) into best-effort recovery of the longest valid
	// prefix. Only meaningful with Durable.
	Salvage bool
}

// vecMetric maps the option value to the internal metric type.
func (m Metric) vecMetric() (vec.Metric, error) {
	switch m {
	case Euclidean:
		return vec.L2, nil
	case Manhattan:
		return vec.L1, nil
	case Maximum:
		return vec.LInf, nil
	default:
		return 0, fmt.Errorf("parsearch: unknown metric %q", m)
	}
}

// metric returns the validated internal metric of the index.
func (ix *Index) metric() vec.Metric {
	m, err := ix.opts.Metric.vecMetric()
	if err != nil {
		panic(err) // validated in Open
	}
	return m
}

// Neighbor is one query result.
type Neighbor struct {
	// ID is the identifier assigned at Build/Insert time.
	ID int
	// Point is the stored feature vector: the caller's copy, which the
	// caller may keep or write; every answer's points share one array of
	// their own.
	Point []float64
	// Dist is the distance to the query point under the index's metric
	// (Euclidean by default).
	Dist float64
}

// QueryStats reports the cost of one query in the paper's metrics. Data
// is stored in bucket cells (the quadrants of the data space, the paper's
// storage units); a query must read the pages of every cell whose region
// intersects the NN-sphere.
type QueryStats struct {
	// PagesPerDisk is the number of data pages each disk had to read.
	PagesPerDisk []int
	// MaxPages is the bottleneck disk's page count — the paper's
	// parallel search cost.
	MaxPages int
	// TotalPages is the sum over all disks, the cost of a sequential
	// search over the same storage.
	TotalPages int
	// Cells is the number of bucket cells the NN-sphere intersected.
	Cells int
	// SeqPages is the page count of a sequential X-tree over all data
	// (the paper's sequential baseline); 0 unless Options.Baseline was
	// set.
	SeqPages int
	// BaselineTime is the simulated search time of the sequential
	// X-tree, in seconds; 0 without Options.Baseline.
	BaselineTime float64
	// BaselineSpeedup is BaselineTime / ParallelTime — the speed-up the
	// paper reports (parallel X-tree vs. the original sequential
	// X-tree); 0 without Options.Baseline.
	BaselineSpeedup float64
	// ParallelTime is the simulated search time of the bottleneck
	// disk, in seconds.
	ParallelTime float64
	// SequentialTime is the simulated time had one disk performed all
	// reads, in seconds.
	SequentialTime float64
	// Speedup is SequentialTime / ParallelTime, the paper's headline
	// metric.
	Speedup float64
	// Degraded reports that unreachable data (no live copy on any disk)
	// could have affected this query's answer: the results are
	// best-effort — exact over the reachable data, but points on the
	// unreachable disks may be missing. When Degraded is false the
	// results are provably exact, even with disks failed: either every
	// shard had a live copy, or the unreachable pages lie outside the
	// query's NN-sphere (or box). Always false with
	// Options.Replication = 1 and at most one failed disk.
	Degraded bool
	// Unreachable is the number of pages the query needed whose primary
	// and replica disks were both failed (0 on healthy paths).
	Unreachable int
	// Rerouted is the number of pages served by a replica disk because
	// the primary was failed.
	Rerouted int
	// Retries is the number of read retries the fault model's transient
	// errors caused (0 without fault injection).
	Retries int
	// SearchPages is the number of index pages the search actually
	// traversed while answering the query, over every disk (the one
	// Hjaltason–Samet queue of a k-NN query, the tree walk of a range
	// query) — the engine's own I/O, as opposed to the cost-model
	// accounting of PagesPerDisk/TotalPages, which charges the pages the
	// paper's storage model must read for the final NN-sphere or box.
	SearchPages int
	// PagesSavedByBound counts the pages the k-NN search still had
	// queued when it stopped: an estimate of the pages independent
	// per-disk searches would have gone on to read, not that count.
	// Pages below a queued directory page are not counted. Where the
	// search knows a disk's own k-th best — an ε query, or a query on
	// one disk — only the pages inside it count; otherwise every queued
	// page does, including those a disk's own search would have ruled
	// out. 0 for range queries (a box has no distance bound). See
	// DESIGN.md "One queue".
	PagesSavedByBound int
	// PagesSavedByRemoteBound is PagesSavedByBound when the search was
	// stopped by an externally seeded bound (Approx.Bound, which a
	// cluster coordinator forwards to every shard) before its own k-th
	// best improved on it: pruning attributable to the remote bound.
	// Always 0 without a seeded bound.
	PagesSavedByRemoteBound int
	// PagesSkippedApprox is the number of search pages the approximate
	// tier skipped: the still-reachable priority queue at ε-termination
	// (a lower bound on the avoided work — pages under unexpanded
	// directory nodes are not counted). Always 0 on exact queries.
	PagesSkippedApprox int
	// EffectiveEpsilon is the ε that governed this query's termination
	// (the per-query override, or Options.Epsilon). 0 on exact queries.
	EffectiveEpsilon float64
}

// Approx carries the per-query knobs of the approximate search tier
// (see DESIGN.md "Approximate search"), which KNNShardContext and
// BatchKNNShardContext take. The zero value requests an exact search,
// whatever the index defaults: byte-identical to KNN on an index with
// no approximate defaults.
type Approx struct {
	// Epsilon relaxes the k-NN termination: every returned distance is
	// within a factor (1+Epsilon) of the exact answer. Must be finite,
	// ≥ 0, and ≤ 1e6; 0 keeps the traversal exact.
	Epsilon float64
	// Bound makes the query a k-NN within distance Bound, in metric
	// space: the answer is the k nearest points at distance ≤ Bound, so
	// it holds fewer than k results — or none, without error — when the
	// ball does, and pages beyond the ball are neither searched nor
	// accounted. It seeds the k-NN search queue. A cluster coordinator
	// forwards it to every shard, so the merged answer is this bounded
	// answer; an older coordinator shipped the k-th distance one shard
	// group had already achieved, which leaves the merged top k
	// unchanged because k points at that distance or closer are known.
	// A caller supplying a Bound below the true k-th distance gets the
	// narrower answer it asked for. The pruning surfaces as
	// QueryStats.PagesSavedByRemoteBound. 0 (the default) means no
	// bound; must be finite and ≥ 0.
	Bound float64
}

// maxEpsilon bounds Options.Epsilon and per-query epsilons: beyond it
// the knob is indistinguishable from "first k candidates win" and is
// almost certainly a caller bug (or an attack on the wire).
const maxEpsilon = 1e6

func (a Approx) validate() error {
	if math.IsNaN(a.Epsilon) || a.Epsilon < 0 || a.Epsilon > maxEpsilon {
		return fmt.Errorf("parsearch: epsilon %v outside [0, %g]", a.Epsilon, maxEpsilon)
	}
	if math.IsNaN(a.Bound) || math.IsInf(a.Bound, 0) || a.Bound < 0 {
		return fmt.Errorf("parsearch: bound %v, want a finite distance >= 0", a.Bound)
	}
	return nil
}

// ShardSpec restricts a query to a subset of the declustered disks: the
// disks d with d mod Of in Groups. The zero value selects every disk —
// the ordinary single-process query. The spec is how a multi-node
// deployment partitions one declustered index over Of process shards
// (disk d belongs to shard group d mod Of): every shard daemon serves
// the full snapshot, and the coordinator restricts each daemon to its
// groups per query, so global IDs — and with them the merge — are
// identical to the single-process search. A dead shard's groups can be
// handed to any other daemon the same way (see the coord package).
type ShardSpec struct {
	// Of is the number of shard groups the disk set is partitioned
	// into; 0 disables the restriction.
	Of int
	// Groups lists the group indices (in [0, Of)) this query serves.
	Groups []int
}

// Enabled reports whether the spec restricts the query at all.
func (s ShardSpec) Enabled() bool { return s.Of > 0 }

func (s ShardSpec) validate(disks int) error {
	if s.Of == 0 {
		if len(s.Groups) != 0 {
			return fmt.Errorf("parsearch: shard groups %v without a group count", s.Groups)
		}
		return nil
	}
	if s.Of < 0 || s.Of > disks {
		return fmt.Errorf("parsearch: %d shard groups over %d disks", s.Of, disks)
	}
	if len(s.Groups) == 0 {
		return fmt.Errorf("parsearch: shard spec of %d selects no groups", s.Of)
	}
	seen := make(map[int]bool, len(s.Groups))
	for _, g := range s.Groups {
		if g < 0 || g >= s.Of {
			return fmt.Errorf("parsearch: shard group %d outside [0, %d)", g, s.Of)
		}
		if seen[g] {
			return fmt.Errorf("parsearch: duplicate shard group %d", g)
		}
		seen[g] = true
	}
	return nil
}

// mask returns the per-disk selection of the (validated) spec, or nil
// when the spec is disabled.
func (s ShardSpec) mask(disks int) []bool {
	if !s.Enabled() {
		return nil
	}
	sel := make([]bool, disks)
	for d := 0; d < disks; d++ {
		for _, g := range s.Groups {
			if d%s.Of == g {
				sel[d] = true
				break
			}
		}
	}
	return sel
}

// ApproxDefaults returns the index-level approximate-search default
// (Options.Epsilon): what KNN, KNNContext and BatchKNNContext run with,
// and what the server fills into requests that omit the knob.
func (ix *Index) ApproxDefaults() Approx {
	return Approx{Epsilon: ix.opts.Epsilon}
}

// cellInfo is one storage cell: a quadrant (or recursive sub-quadrant)
// region, the disk it is assigned to, and how many points it holds.
type cellInfo struct {
	rect  vec.Rect
	disk  int
	count int
}

// state is the derived index structure — everything Build computes from
// the stored vectors: the bucketing, the declustering assignment, the
// per-disk trees, the optional sequential baseline, and the storage-cell
// accounting. Build constructs a replacement state off the lock and
// cuts it in under meta, so queries never observe a half-built index.
// A state belongs to the writers: its trees, cells and assigner change
// only under Index.meta. Queries read the version the index last
// published (see Index.publish).
type state struct {
	bucketer core.Bucketer
	assigner core.Assigner
	shards   []*xtree.Tree
	// replicas are the replica trees, indexed by the disk *hosting*
	// them: replicas[r] holds a copy of the data whose primary disk is
	// r-1 mod n (chained declustering). nil unless Options.Replication.
	replicas  []*xtree.Tree
	baseline  *xtree.Tree // nil unless Options.Baseline
	cells     []cellInfo
	cellIndex map[string]int
	// asBuilt is set while Build would make these very trees from the
	// point table: a build or an assembly sets it, and every change to a
	// disk's trees (place, take) clears it — an applied write batch, a
	// reorganize step that moves a point, a rolled-back delete. A
	// snapshot of an as-built state records its trees (see Save).
	asBuilt bool
}

// version is what a query reads: a frozen version (xtree.Tree.Freeze) of
// every tree of a state — shards, replicas and baseline — with the
// assigner and the live count, as one whole write batch, reorganize
// step or build left them. Nothing writes a version, so a query reads
// it without a lock and answers exactly over it.
type version struct {
	shards, replicas []*xtree.Tree
	baseline         *xtree.Tree
	assigner         core.Assigner
	live             int
	// st is the state the version was frozen from. Only the BucketPages
	// cell scan reads through it, under meta; CheckIntegrity checks it
	// is the writers' state.
	st *state
}

// publish makes st the writers' state and freezes its trees, assigner
// and the live count into the version queries load. Writers call it
// under meta (or before the index is shared) once st holds a whole
// write batch, reorganize step or build.
func (ix *Index) publish(st *state) {
	ix.st = st
	v := &version{shards: freeze(st.shards), replicas: freeze(st.replicas),
		assigner: st.assigner, live: ix.live, st: st}
	if st.baseline != nil {
		v.baseline = st.baseline.Freeze()
	}
	ix.pub.Store(v)
}

func freeze(trees []*xtree.Tree) []*xtree.Tree {
	if trees == nil {
		return nil
	}
	out := make([]*xtree.Tree, len(trees))
	for i, t := range trees {
		out[i] = t.Freeze()
	}
	return out
}

// Index is a parallel similarity-search index, safe for concurrent use
// (see the package comment).
//
// Lock hierarchy (always acquired in this order, never the reverse):
//
//	ckptMu (serializes Checkpoint / durable Build / Close)
//	→ rotMu (R by durable mutations, W by durable Build and Close)
//	→ meta (the writers' state, point table, live count, cell loads,
//	  quantile estimators)
//
// A query takes none of them. It loads the published version once
// (see publish) and is answered exactly over it: the state after some
// whole write batch, reorganize step or build. A write batch publishes
// before it returns, so an Insert that returned is visible to the next
// query.
type Index struct {
	opts   Options
	params disk.Params
	array  *disk.Array

	// reg is the engine-wide metrics registry (see Metrics); querySeq
	// numbers traced queries. Both are updated lock-free.
	reg      *metrics.Registry
	querySeq atomic.Uint64

	// pub is the published version: what every query reads.
	pub atomic.Pointer[version]

	// meta guards the writers' state and the point table with
	// everything maintained per point: the ID space, the live count,
	// the storage-cell loads, and the adaptive quantile estimators.
	meta     sync.Mutex
	st       *state
	tbl      *pointTable // ID → coordinates, with the tombstones
	live     int         // number of non-tombstone points
	adaptive *core.AdaptiveSplitter

	// Durability state (durable.go); fs and recov are set once at
	// Open, wal/gen/closed are guarded by meta. ckptMu serializes
	// generation rotations; rotMu excludes mutations from the durable
	// Build cutover (mutations hold it in read mode for their whole
	// log-append + apply + sync span).
	fs     fsx.FS
	ckptMu sync.Mutex
	rotMu  sync.RWMutex
	wal    *wal.Writer
	gen    uint64
	closed bool
	recov  RecoveryInfo
}

// Open validates the options and returns an index: empty, or — with
// Options.Durable — recovered from the durable directory's snapshot
// and write-ahead log (see durable.go).
func Open(opts Options) (*Index, error) {
	if !opts.Durable {
		if opts.Dir != "" {
			return nil, fmt.Errorf("parsearch: Dir requires Durable")
		}
		if opts.WALSync != "" {
			return nil, fmt.Errorf("parsearch: WALSync requires Durable")
		}
		if opts.Salvage {
			return nil, fmt.Errorf("parsearch: Salvage requires Durable")
		}
		return open(opts)
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("parsearch: Durable requires Dir")
	}
	fs, err := fsx.NewOS(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("parsearch: %w", err)
	}
	return openDurable(opts, fs)
}

// open builds the in-memory index: the non-durable Open, and the
// substrate openDurable recovers onto.
func open(opts Options) (*Index, error) {
	opts, err := checkOptions(opts)
	if err != nil {
		return nil, err
	}
	params := disk.DefaultParams()
	if opts.DiskParams != nil {
		if err := opts.DiskParams.validate(); err != nil {
			return nil, err
		}
		params = disk.Params{
			Seek:     opts.DiskParams.Seek,
			Transfer: opts.DiskParams.Transfer,
			Throttle: opts.DiskParams.Throttle,
		}
	}

	ix := &Index{opts: opts, params: params, tbl: newTable(opts.Dim, 0)}
	ix.array = disk.NewArray(opts.Disks, params)
	ix.reg = metrics.NewRegistry(opts.Disks)
	st, err := ix.emptyState()
	if err != nil {
		return nil, err
	}
	ix.publish(st)
	return ix, nil
}

// checkOptions validates the options that shape an index's data and
// search, and fills in their defaults.
func checkOptions(opts Options) (Options, error) {
	if opts.Dim < 1 || opts.Dim > core.MaxDim {
		return Options{}, fmt.Errorf("parsearch: dimension %d outside [1, %d]", opts.Dim, core.MaxDim)
	}
	if opts.Disks < 1 {
		return Options{}, fmt.Errorf("parsearch: %d disks", opts.Disks)
	}
	if opts.Kind == "" {
		opts.Kind = NearOptimal
	}
	if opts.PageSize == 0 {
		opts.PageSize = xtree.PageSize
	}
	if opts.PageSize < 256 {
		return Options{}, fmt.Errorf("parsearch: page size %d too small", opts.PageSize)
	}
	if opts.Recursive && opts.Kind != NearOptimal {
		return Options{}, fmt.Errorf("parsearch: recursive declustering requires the near-optimal strategy, not %q", opts.Kind)
	}
	if opts.CostModel == "" {
		opts.CostModel = TreePages
	}
	if opts.CostModel != TreePages && opts.CostModel != BucketPages {
		return Options{}, fmt.Errorf("parsearch: unknown cost model %q", opts.CostModel)
	}
	if opts.Metric == "" {
		opts.Metric = Euclidean
	}
	if _, err := opts.Metric.vecMetric(); err != nil {
		return Options{}, err
	}
	if opts.Replication < 0 || opts.Replication > 1 {
		return Options{}, fmt.Errorf("parsearch: replication %d, want 0 or 1", opts.Replication)
	}
	if opts.Replication == 1 && opts.Disks < 2 {
		return Options{}, fmt.Errorf("parsearch: replication needs at least 2 disks, have %d", opts.Disks)
	}
	if err := (Approx{Epsilon: opts.Epsilon}).validate(); err != nil {
		return Options{}, err
	}
	return opts, nil
}

// emptyState returns the derived structure of an index with no data: a
// midpoint bucketing, the configured strategy, and empty trees.
func (ix *Index) emptyState() (*state, error) {
	st := &state{
		bucketer:  core.NewMidpointSplitter(ix.opts.Dim),
		cellIndex: make(map[string]int),
	}
	assigner, err := ix.makeAssigner(st.bucketer)
	if err != nil {
		return nil, err
	}
	st.assigner = assigner
	cfg := ix.treeConfig()
	st.shards = make([]*xtree.Tree, ix.opts.Disks)
	for i := range st.shards {
		st.shards[i] = xtree.New(cfg)
	}
	if ix.opts.Replication > 0 {
		st.replicas = make([]*xtree.Tree, ix.opts.Disks)
		for i := range st.replicas {
			st.replicas[i] = xtree.New(cfg)
		}
	}
	if ix.opts.Baseline {
		st.baseline = xtree.New(cfg)
	}
	return st, nil
}

// Strategy returns the name of the active declustering strategy.
func (ix *Index) Strategy() string {
	return ix.pub.Load().assigner.Name()
}

// Disks returns the number of disks.
func (ix *Index) Disks() int { return ix.opts.Disks }

// Dim returns the dimensionality of the indexed vectors.
func (ix *Index) Dim() int { return ix.opts.Dim }

// Replication returns the configured number of extra copies per
// storage cell (0 or 1; see Options.Replication).
func (ix *Index) Replication() int { return ix.opts.Replication }

// Len returns the number of indexed (non-deleted) vectors.
func (ix *Index) Len() int {
	return ix.pub.Load().live
}

// FailDisk marks a simulated disk as failed. Queries starting after
// the call route the disk's page reads to the chained replica (with
// Options.Replication = 1) or return best-effort results flagged
// Degraded; only a failure flipped mid-query surfaces as an error
// (wrapping disk.ErrDiskFailed) until HealDisk is called. The failure
// flag is atomic; FailDisk is safe to call during running queries.
func (ix *Index) FailDisk(d int) error {
	if err := ix.array.Fail(d); err != nil {
		return fmt.Errorf("parsearch: %w", err)
	}
	return nil
}

// HealDisk clears a disk failure injected with FailDisk.
func (ix *Index) HealDisk(d int) error {
	if err := ix.array.Heal(d); err != nil {
		return fmt.Errorf("parsearch: %w", err)
	}
	return nil
}

// DiskFailed reports whether disk d is currently failed.
func (ix *Index) DiskFailed(d int) bool {
	if d < 0 || d >= ix.opts.Disks {
		return false
	}
	return ix.array.Failed(d)
}

// DiskLoads returns the number of vectors stored on each disk.
func (ix *Index) DiskLoads() []int {
	v := ix.pub.Load()
	loads := make([]int, len(v.shards))
	for i, t := range v.shards {
		loads[i] = t.Len()
	}
	return loads
}

// CellLoads returns, per disk, the sum of the point counts of the disk's
// storage cells. By construction it equals DiskLoads after any
// interleaving of operations; CheckIntegrity verifies exactly that.
func (ix *Index) CellLoads() []int {
	ix.meta.Lock()
	defer ix.meta.Unlock()
	st := ix.st
	loads := make([]int, len(st.shards))
	for _, c := range st.cells {
		loads[c.disk] += c.count
	}
	return loads
}

// CheckIntegrity verifies the cross-structure invariants of the index and
// returns the first violation found, or nil:
//
//   - the live count equals the number of non-tombstone IDs,
//   - every disk's X-tree passes its structural invariant check,
//   - every disk's tree size equals the sum of its cell loads,
//   - the tree sizes sum to the live count, and the primaries hold every
//     live ID once and no other,
//   - every point of every tree — primary, replica or baseline — has
//     its ID's coordinates in the point table, bit for bit,
//   - with Options.Replication, every replica tree passes the same
//     invariant check and holds exactly its primary disk's vectors,
//   - the baseline tree (if any) holds exactly the live points,
//   - the published version is of the writers' state, carries the live
//     count, and holds exactly every tree's entries.
//
// It takes meta, as a writer does, so the check is atomic with respect
// to concurrent mutations.
func (ix *Index) CheckIntegrity() error {
	ix.meta.Lock()
	defer ix.meta.Unlock()
	st, tbl := ix.st, ix.tbl

	if stored := tbl.live(); stored != ix.live {
		return fmt.Errorf("parsearch: %d stored points but live count %d", stored, ix.live)
	}
	cellLoads := make([]int, len(st.shards))
	for _, c := range st.cells {
		if c.count < 0 {
			return fmt.Errorf("parsearch: negative cell load %d on disk %d", c.count, c.disk)
		}
		cellLoads[c.disk] += c.count
	}
	v := ix.pub.Load()
	if v.st != st || v.live != ix.live {
		return fmt.Errorf("parsearch: the published version is not the writers' state of %d points", ix.live)
	}
	total := 0
	treeLens := make([]int, len(st.shards))
	held := make([]bool, tbl.len())
	for d, t := range st.shards {
		n := t.Len()
		if err := checkTree(t, v.shards[d], tbl, held); err != nil {
			return fmt.Errorf("parsearch: disk %d: %w", d, err)
		}
		if cellLoads[d] != n {
			return fmt.Errorf("parsearch: disk %d holds %d vectors but cell loads sum to %d", d, n, cellLoads[d])
		}
		treeLens[d] = n
		total += n
	}
	if total != ix.live {
		return fmt.Errorf("parsearch: trees hold %d vectors, live count %d", total, ix.live)
	}
	if (st.replicas != nil) != (ix.opts.Replication > 0) {
		return fmt.Errorf("parsearch: replica trees present = %v with replication %d",
			st.replicas != nil, ix.opts.Replication)
	}
	if st.replicas != nil {
		n := len(st.shards)
		for h, rt := range st.replicas {
			src := (h - 1 + n) % n
			if err := checkTree(rt, v.replicas[h], tbl, nil); err != nil {
				return fmt.Errorf("parsearch: replica of disk %d on disk %d: %w", src, h, err)
			}
			if rn := rt.Len(); rn != treeLens[src] {
				return fmt.Errorf("parsearch: replica of disk %d on disk %d holds %d vectors, primary holds %d",
					src, h, rn, treeLens[src])
			}
		}
	}
	if st.baseline != nil {
		if err := checkTree(st.baseline, v.baseline, tbl, nil); err != nil {
			return fmt.Errorf("parsearch: baseline: %w", err)
		}
		if n := st.baseline.Len(); n != ix.live {
			return fmt.Errorf("parsearch: baseline holds %d vectors, live count %d", n, ix.live)
		}
	}
	return nil
}

// checkTree checks a writer's tree against its invariants and the point
// table — every entry is a live ID whose table row is its point, bit for
// bit, and, with held, an ID no tree marked in held before — and the
// published version of it against the tree: the version must hold
// exactly the tree's entries.
func checkTree(t, pub *xtree.Tree, tbl *pointTable, held []bool) error {
	if err := t.CheckInvariants(); err != nil {
		return err
	}
	have, want := entriesByID(pub), entriesByID(t)
	if !slices.EqualFunc(have, want, func(a, b xtree.Entry) bool { return a.ID == b.ID && vec.Equal(a.Point, b.Point) }) {
		return fmt.Errorf("published version holds %d entries that differ from the tree's %d", len(have), len(want))
	}
	buf := make(vec.Point, tbl.dim)
	for _, e := range want {
		if !tbl.has(e.ID) {
			return fmt.Errorf("the tree holds ID %d, which is not live", e.ID)
		}
		row := tbl.point(e.ID, buf)
		for j, x := range e.Point {
			if math.Float64bits(x) != math.Float64bits(row[j]) {
				return fmt.Errorf("ID %d's point differs from its table row in dimension %d", e.ID, j)
			}
		}
		if held != nil {
			if held[e.ID] {
				return fmt.Errorf("ID %d is held twice", e.ID)
			}
			held[e.ID] = true
		}
	}
	return nil
}

// entriesByID returns every entry of t, sorted by ID.
func entriesByID(t *xtree.Tree) []xtree.Entry {
	var out []xtree.Entry
	for _, leaf := range t.Leaves() {
		out = append(out, leaf.Entries()...)
	}
	slices.SortFunc(out, func(a, b xtree.Entry) int { return a.ID - b.ID })
	return out
}

// VerifyDeclustering checks the active bucket-based strategy against the
// paper's near-optimality criterion (Definition 4) and returns up to max
// violations, formatted for display. Round-robin and recursive
// assignments are point-based and return an error, as do dimensions too
// large to enumerate.
func (ix *Index) VerifyDeclustering(max int) ([]string, error) {
	assigner := ix.pub.Load().assigner
	ba, ok := assigner.(*core.BucketAssigner)
	if !ok {
		return nil, fmt.Errorf("parsearch: strategy %q is not bucket-based", assigner.Name())
	}
	if ix.opts.Dim >= 25 {
		return nil, fmt.Errorf("parsearch: dimension %d too large for exhaustive verification", ix.opts.Dim)
	}
	var out []string
	for _, v := range core.VerifyNearOptimal(ba.Strategy(), ix.opts.Dim, max) {
		out = append(out, v.String())
	}
	return out, nil
}

package parsearch

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"parsearch/internal/core"
	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// This file is the build stage: it derives a complete index state
// (bucketing, declustering assignment, per-disk trees, replicas,
// baseline) from a point table, and cuts it in atomically.

// splitValues returns the current per-dimension split values of the
// state's bucketer (both splitter implementations expose them).
func splitValues(st *state) []float64 {
	return st.bucketer.(interface{ Splits() []float64 }).Splits()
}

// assignCell places point i under the given state and returns its disk
// together with the key of the storage cell it lands in. The state's
// bucketer and assigner are immutable, so no lock is needed beyond
// pinning st.
func (ix *Index) assignCell(st *state, i int, p vec.Point) (diskNo int, key string) {
	if rec, ok := st.assigner.(*core.Recursive); ok {
		c := rec.AssignCell(p)
		return c.Disk, c.Key()
	}
	diskNo = st.assigner.Assign(i, p)
	// Round robin scatters a quadrant over every disk; the disk is part
	// of the cell identity so each disk keeps its own pages per quadrant.
	return diskNo, fmt.Sprintf("%d#%d", st.bucketer.Bucket(p), diskNo)
}

// addToCell records one point in its storage cell and returns the cell's
// index. The cell's region is derived from p only when the key is new.
// Caller holds meta (or exclusively owns st during a build).
func addToCell(st *state, key string, diskNo int, p vec.Point) int {
	idx, ok := st.cellIndex[key]
	if !ok {
		idx = len(st.cells)
		st.cellIndex[key] = idx
		var rect vec.Rect
		if rec, ok := st.assigner.(*core.Recursive); ok {
			rect = rec.AssignCell(p).Rect
		} else {
			rect = core.QuadrantRect(st.bucketer.Bucket(p), splitValues(st))
		}
		st.cells = append(st.cells, cellInfo{rect: rect, disk: diskNo})
	}
	st.cells[idx].count++
	return idx
}

func (ix *Index) treeConfig() xtree.Config {
	cfg := xtree.DefaultConfig(ix.opts.Dim)
	cfg.LeafCapacity = xtree.LeafCapacityForPage(ix.opts.Dim, ix.opts.PageSize)
	cfg.DirCapacity = xtree.DirCapacityForPage(ix.opts.Dim, ix.opts.PageSize)
	return cfg
}

// canon applies the rounding-at-ingest contract to a freshly cloned
// point: every coordinate is rounded to the nearest float32, so the
// tree's float64 values and the slabs' float32 copies are the same
// numbers and the batched kernels match the scalar ones bit for bit.
func canon(p vec.Point) {
	for j := range p {
		p[j] = float64(float32(p[j]))
	}
}

// makeAssigner builds the Assigner for the configured strategy over the
// given bucketer.
func (ix *Index) makeAssigner(b core.Bucketer) (core.Assigner, error) {
	d, n := ix.opts.Dim, ix.opts.Disks
	switch ix.opts.Kind {
	case NearOptimal:
		return core.NewBucketAssigner(b, core.NewNearOptimal(d, n)), nil
	case Hilbert:
		s, err := core.NewHilbert(d, 1, n)
		if err != nil {
			return nil, fmt.Errorf("parsearch: %w", err)
		}
		return core.NewBucketAssigner(b, s), nil
	case DiskModulo:
		return core.NewBucketAssigner(b, core.NewDiskModulo(n)), nil
	case FX:
		return core.NewBucketAssigner(b, core.NewFX(n)), nil
	case RoundRobin:
		return core.NewRoundRobin(n), nil
	case DirectOnly:
		return core.NewBucketAssigner(b, core.NewDirectOnly(d, n)), nil
	default:
		return nil, fmt.Errorf("parsearch: unknown strategy %q", ix.opts.Kind)
	}
}

// tableOf copies the given vectors into a point table, rounding them to
// float32; a nil vector is a tombstone.
func (ix *Index) tableOf(points [][]float64) (*pointTable, error) {
	for i, p := range points {
		if p != nil && len(p) != ix.opts.Dim {
			return nil, fmt.Errorf("parsearch: point %d has dimension %d, want %d", i, len(p), ix.opts.Dim)
		}
	}
	t := newTable(ix.opts.Dim, len(points))
	for _, p := range points {
		if p == nil {
			t.addDead(1)
		} else {
			t.add(p)
		}
	}
	return t, nil
}

// buildState constructs a fresh derived state from a point table, and
// counts its live points. It reads only immutable index fields, so it
// runs without any lock — Build and recovery call it off the lock and
// publish the result.
// A point with a NaN or infinite component as stored is refused, as by
// Insert, whether a caller, a snapshot or a log supplied it.
//
// The bulk loader sorts float64 points: the table's rows are a transient
// widened copy, garbage once the leaves' blocks are written.
func (ix *Index) buildState(tbl *pointTable) (st *state, live int, err error) {
	pts := tbl.rows()
	for id, p := range pts {
		if p == nil {
			continue
		}
		if j := nonFinite(p); j >= 0 {
			return nil, 0, fmt.Errorf("parsearch: point %d component %d is %v, not finite", id, j, p[j])
		}
		live++
	}
	st, cellOf, err := ix.decluster(tbl, live, pts)
	if err != nil {
		return nil, 0, err
	}
	ix.bulkLoad(st, pts, cellOf, live)
	st.asBuilt = true
	return st, live, nil
}

// decluster is stage one of a build, deterministic: it chooses the
// bucketing and the assigner over the live points of the table, and
// finds and counts every live point's storage cell. It returns the state
// without trees, and each point's index in st.cells (tombstones' slots
// unused). pts, when not nil, are the table's rows (a build's bulk-load
// input), which the recursive assigner reads; else it takes them from
// the table.
//
// Bucket-based strategies store data per bucket, so no page spans two
// buckets (the paper's storage layout); round robin has no spatial
// grouping — each disk indexes its arrival-order sample as a whole.
// Under a bucket strategy disk, key and region depend on the quadrant
// alone: bucketCells computes the quadrants in parallel and derives each
// cell once. The recursive and round-robin assigners are asked point by
// point, in ID order. st.cells is in first-seen (ID) order — the order
// Insert continues.
func (ix *Index) decluster(tbl *pointTable, live int, pts []vec.Point) (*state, []int, error) {
	st := &state{cellIndex: make(map[string]int)}
	// Choose the bucketing per the configured extensions. The quantile
	// splits are order statistics, the same in any order: each
	// dimension's column is read off the table, one job a dimension.
	if ix.opts.QuantileSplits && live > 0 {
		splits := make([]float64, ix.opts.Dim)
		jobs := make([]func(), len(splits))
		for j := range jobs {
			jobs[j] = func() {
				col := make([]float64, live)
				tbl.column(j, col)
				splits[j] = core.QuantileSplit(col, 0.5)
			}
		}
		runJobs(jobs)
		st.bucketer = core.NewSplitter(splits)
	} else {
		st.bucketer = core.NewMidpointSplitter(ix.opts.Dim)
	}
	if ix.opts.Recursive {
		// The recursive assigner breaks its ties in ID order.
		if pts == nil {
			pts = tbl.rows()
		}
		byID := make([]vec.Point, 0, live)
		for _, p := range pts {
			if p != nil {
				byID = append(byID, p)
			}
		}
		st.assigner = core.BuildRecursive(byID, st.bucketer, ix.opts.Disks,
			core.DefaultRecursiveConfig(ix.opts.Disks))
	} else {
		assigner, err := ix.makeAssigner(st.bucketer)
		if err != nil {
			return nil, nil, err
		}
		st.assigner = assigner
	}
	if _, perBucket := st.assigner.(*core.BucketAssigner); perBucket {
		return st, ix.bucketCells(st, tbl), nil
	}
	cellOf := make([]int, tbl.len())
	tbl.each(func(i int, p vec.Point) {
		d, key := ix.assignCell(st, i, p)
		cellOf[i] = addToCell(st, key, d, p)
	})
	return st, cellOf, nil
}

// bucketChunk is how many IDs of the point table one job of the bucket
// pass reads.
const bucketChunk = 1 << 14

// bucketCells finds the cells under a per-bucket assigner, in two
// passes. The bucket pass computes every live point's quadrant on
// runJobs' workers, one job a chunk of IDs, reading the table in order.
// Then one serial pass in ID order creates the cells in first-seen order
// — assignCell (the strategy call, the key) and the region run once a
// cell — counts them, and returns each point's cell.
func (ix *Index) bucketCells(st *state, tbl *pointTable) []int {
	buckets := make([]core.Bucket, tbl.len())
	var jobs []func()
	for lo := 0; lo < tbl.len(); lo += bucketChunk {
		hi := min(lo+bucketChunk, tbl.len())
		jobs = append(jobs, func() {
			buf := make(vec.Point, ix.opts.Dim)
			for id := lo; id < hi; id++ {
				if !tbl.dead[id] {
					buckets[id] = st.bucketer.Bucket(tbl.point(id, buf))
				}
			}
		})
	}
	runJobs(jobs)

	memo := make(map[core.Bucket]int)
	cellOf := make([]int, tbl.len())
	buf := make(vec.Point, ix.opts.Dim)
	for i, dead := range tbl.dead {
		if dead {
			continue
		}
		c, known := memo[buckets[i]]
		if known {
			st.cells[c].count++
		} else {
			p := tbl.point(i, buf)
			d, key := ix.assignCell(st, i, p)
			c = addToCell(st, key, d, p)
			memo[buckets[i]] = c
		}
		cellOf[i] = c
	}
	return cellOf
}

// bulkLoad is stage two of a build from points: it groups the live
// points by cell and bulk-loads every disk's trees. With a single disk
// there is nothing to decluster: the "parallel" index degenerates to the
// original sequential X-tree, so the plain layout applies (bucket
// grouping would only fragment pages), as it does for round robin.
func (ix *Index) bulkLoad(st *state, pts []vec.Point, cellOf []int, live int) {
	// Every cell's group is allocated at exactly its count and filled in
	// ID order: the order the bulk loader's sorts start from, and with it
	// how they break ties.
	groups := make([][]xtree.Entry, len(st.cells))
	for c, info := range st.cells {
		groups[c] = make([]xtree.Entry, 0, info.count)
	}
	for i, p := range pts {
		if p != nil {
			groups[cellOf[i]] = append(groups[cellOf[i]], xtree.Entry{Point: p, ID: i})
		}
	}
	// A disk loads its groups in the order of their cell keys, which
	// fixes the leaf order of its tree.
	keys := make([]string, 0, len(st.cellIndex))
	for key := range st.cellIndex {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	parts := make([][][]xtree.Entry, ix.opts.Disks)
	for _, key := range keys {
		c := st.cellIndex[key]
		parts[st.cells[c].disk] = append(parts[st.cells[c].disk], groups[c])
	}

	// Parallel: every disk owns its trees and nobody else touches them,
	// so each disk is one job, and the baseline one more.
	_, isRR := st.assigner.(*core.RoundRobin)
	plain := isRR || ix.opts.Disks == 1
	st.shards = make([]*xtree.Tree, ix.opts.Disks)
	if ix.opts.Replication > 0 {
		st.replicas = make([]*xtree.Tree, ix.opts.Disks)
	}
	jobs := make([]func(), 0, ix.opts.Disks+1)
	if ix.opts.Baseline {
		// The largest job, so the first to be handed out.
		jobs = append(jobs, func() {
			entries := make([]xtree.Entry, 0, live)
			for i, p := range pts {
				if p != nil {
					entries = append(entries, xtree.Entry{Point: p, ID: i})
				}
			}
			st.baseline = xtree.New(ix.treeConfig())
			st.baseline.BulkLoad(entries)
		})
	}
	for d := range st.shards {
		jobs = append(jobs, func() {
			st.shards[d] = ix.loadShard(parts[d], plain)
			if st.replicas != nil {
				// Chained replication: disk d+1 hosts a second tree over
				// disk d's data. It follows the primary in the same job
				// because it is, by definition, the tree loaded from the
				// groups as the primary's load reordered them.
				st.replicas[replicaOf(d, ix.opts.Disks)] = ix.loadShard(parts[d], plain)
			}
		})
	}
	runJobs(jobs)
}

// assembleState is stage two from a version-2 snapshot instead of a bulk
// load: it reads the recorded trees back as they were built, each leaf
// decoded straight into its block, fills the point table from the
// primaries' leaves, then runs stage one (decluster) over the table.
// Every primary is read on a runJobs worker, then every replica and the
// baseline, whose leaves take their coordinates from the table. It
// refuses, before anything is published: an ID out of range or held
// twice (by one tree or two primaries), a non-finite coordinate, a point
// on a disk other than the one stage one assigns it, a replica that
// does not hold exactly its primary's IDs, a baseline that does not hold
// exactly the live ones, and every structure CheckInvariants rejects
// (see xtree.ReadLayout).
func (ix *Index) assembleState(tl *treeLayout) (st *state, tbl *pointTable, live int, err error) {
	n, cfg := ix.opts.Disks, ix.treeConfig()
	shards, tbl, owner, err := ix.readPrimaries(tl)
	if err != nil {
		return nil, nil, 0, err
	}
	for _, t := range shards {
		live += t.Len()
	}

	// The copies resolve their IDs to the table's points. A replica
	// marks only IDs its primary holds, so the replicas' marks never meet.
	var replicas []*xtree.Tree
	var baseline *xtree.Tree
	errs := make([]error, len(tl.sections))
	var jobs []func()
	if ix.opts.Replication > 0 {
		replicas = make([]*xtree.Tree, n)
		inReplica := make([]bool, tl.ids)
		for r := range replicas {
			d := (r + n - 1) % n // replicaOf(d, n) == r
			jobs = append(jobs, func() {
				replicas[r], errs[n+r] = xtree.ReadLayout(cfg, tl.sections[n+r], 0, func(id int, p []float32) error {
					if id >= tl.ids || owner[id] != int32(d+1) || inReplica[id] {
						return fmt.Errorf("parsearch: the replica on disk %d holds ID %d, not once a point of disk %d", r, id, d)
					}
					inReplica[id] = true
					copy(p, tbl.row(id))
					return nil
				})
				if errs[n+r] == nil && replicas[r].Len() != shards[d].Len() {
					errs[n+r] = fmt.Errorf("parsearch: the replica on disk %d holds %d points, disk %d holds %d", r, replicas[r].Len(), d, shards[d].Len())
				}
			})
		}
	}
	if ix.opts.Baseline {
		last := len(tl.sections) - 1
		inBaseline := make([]bool, tl.ids)
		jobs = append(jobs, func() {
			baseline, errs[last] = xtree.ReadLayout(cfg, tl.sections[last], 0, func(id int, p []float32) error {
				if !tbl.has(id) || inBaseline[id] {
					return fmt.Errorf("parsearch: the baseline holds ID %d, not once a live point", id)
				}
				inBaseline[id] = true
				copy(p, tbl.row(id))
				return nil
			})
			if errs[last] == nil && baseline.Len() != live {
				errs[last] = fmt.Errorf("parsearch: the baseline holds %d points of %d", baseline.Len(), live)
			}
		})
	}
	runJobs(jobs)
	if err := errors.Join(errs...); err != nil {
		return nil, nil, 0, err
	}

	st, cellOf, err := ix.decluster(tbl, live, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	for id, dead := range tbl.dead {
		if dead {
			continue
		}
		if d, want := int(owner[id])-1, st.cells[cellOf[id]].disk; d != want {
			return nil, nil, 0, fmt.Errorf("parsearch: ID %d is on disk %d, the assigner puts it on disk %d", id, d, want)
		}
	}
	st.shards, st.replicas, st.baseline = shards, replicas, baseline
	st.asBuilt = true
	return st, tbl, live, nil
}

// readPrimaries reads the primaries' layouts on runJobs' workers into
// their trees, whose leaves' blocks hold the points. Then one serial walk
// of their leaves' IDs claims them in a table of tombstones: owner[id]
// becomes one more than the disk whose primary holds it, the ID turns
// live, and an ID met twice, in one tree or two, is refused. Last the
// workers fill the table, a job a primary copying its blocks' float32
// rows into their IDs' rows, which no other job writes. The IDs no
// primary holds stay tombstones. The workers share nothing while they
// read.
func (ix *Index) readPrimaries(tl *treeLayout) (shards []*xtree.Tree, tbl *pointTable, owner []int32, err error) {
	cfg := ix.treeConfig()
	shards = make([]*xtree.Tree, ix.opts.Disks)
	errs := make([]error, len(shards))
	jobs := make([]func(), len(shards))
	for d := range jobs {
		jobs[d] = func() {
			shards[d], errs[d] = xtree.ReadLayout(cfg, tl.sections[d], tl.coord, func(id int, _ []float32) error {
				if id >= tl.ids {
					return fmt.Errorf("parsearch: disk %d holds ID %d of %d", d, id, tl.ids)
				}
				return nil
			})
		}
	}
	runJobs(jobs)
	if err := errors.Join(errs...); err != nil {
		return nil, nil, nil, err
	}
	tbl = newTable(ix.opts.Dim, tl.ids)
	tbl.addDead(tl.ids)
	owner = make([]int32, tl.ids)
	for d, t := range shards {
		t.EachLeaf(func(leaf *xtree.Node) {
			for i := range leaf.Len() {
				id := leaf.ID(i)
				if owner[id] != 0 && err == nil {
					err = fmt.Errorf("parsearch: ID %d is held twice", id)
				}
				owner[id] = int32(d + 1)
				tbl.dead[id] = false
			}
		})
		if err != nil {
			return nil, nil, nil, err
		}
	}
	for d, t := range shards {
		jobs[d] = func() {
			t.EachLeaf(func(leaf *xtree.Node) {
				for i := range leaf.Len() {
					leaf.Block().RowAt(i, tbl.row(leaf.ID(i)))
				}
			})
		}
	}
	runJobs(jobs)
	return shards, tbl, owner, nil
}

// loadShard bulk-loads one disk's share of the data — grouped by
// storage cell so no page spans two cells, or flat for the plain layout
// — into a fresh tree.
func (ix *Index) loadShard(groups [][]xtree.Entry, plain bool) *xtree.Tree {
	t := xtree.New(ix.treeConfig())
	if plain {
		// A copy: the flat load must not reorder the groups, which the
		// replica's load starts from again.
		groups = [][]xtree.Entry{slices.Concat(groups...)}
	}
	t.BulkLoadGrouped(groups)
	return t
}

// runJobs runs the jobs on min(GOMAXPROCS, len(jobs)) goroutines and
// returns when all have finished. A job that panics stops the hand-out
// of further jobs, and its panic is raised again on the caller's
// goroutine, where Build's callers expect it.
func runJobs(jobs []func()) {
	var (
		wg      sync.WaitGroup
		next    atomic.Int64
		once    sync.Once
		failure any
	)
	for w := min(runtime.GOMAXPROCS(0), len(jobs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					next.Store(int64(len(jobs)))
					once.Do(func() { failure = fmt.Sprintf("%v\n%s", r, debug.Stack()) })
				}
			}()
			for i := next.Add(1) - 1; i < int64(len(jobs)); i = next.Add(1) - 1 {
				jobs[i]()
			}
		}()
	}
	wg.Wait()
	if failure != nil {
		panic(failure)
	}
}

// Build indexes the given vectors, replacing any previous content. Vector
// i receives ID i. A nil vector is a tombstone: its ID stays reserved but
// nothing is stored (snapshots of indexes with deletions use this). With
// Options.QuantileSplits the quadrant splits are placed at the
// per-dimension medians of the data; with Options.Recursive overloaded
// disks are recursively declustered (both extensions of §4.3).
//
// The new structure is computed off the lock — queries keep running
// against the old contents meanwhile — and published as an atomic
// cutover. A concurrent Insert or Delete serializes either before the
// cutover (its effect is replaced, as if it preceded Build) or after it.
// A vector with a NaN or infinite component is refused, as by Insert.
func (ix *Index) Build(points [][]float64) error {
	tbl, err := ix.tableOf(points)
	if err != nil {
		return err
	}
	return ix.build(tbl)
}

// build builds from a point table and cuts the result over.
func (ix *Index) build(tbl *pointTable) error {
	st, live, err := ix.buildState(tbl)
	if err != nil {
		return err
	}
	return ix.cutOver(st, tbl, live)
}

// cutOver makes a freshly built or assembled state the index's contents:
// on a durable index as a generation rebase, else by publishing it.
func (ix *Index) cutOver(st *state, tbl *pointTable, live int) error {
	if ix.opts.Durable {
		// A durable Build is a generation rebase: the new state must be
		// committed as a snapshot before the cutover (see durable.go).
		return ix.rebaseDurable(st, tbl, live)
	}
	ix.meta.Lock()
	defer ix.meta.Unlock()
	if ix.closed {
		return ErrClosed
	}
	ix.tbl = tbl
	ix.live = live
	ix.publish(st)
	return nil
}

package parsearch

import (
	"fmt"
	"sort"

	"parsearch/internal/core"
	"parsearch/internal/lsh"
	"parsearch/internal/vec"
	"parsearch/internal/xtree"
)

// This file is the build stage: it derives a complete index state
// (bucketing, declustering assignment, per-disk trees, replicas, LSH
// filters, baseline) from a point table, and cuts it in atomically.

// splitValues returns the current per-dimension split values of the
// state's bucketer (both splitter implementations expose them).
func splitValues(st *state) []float64 {
	return st.bucketer.(interface{ Splits() []float64 }).Splits()
}

// assignCell places point i under the given state and returns its disk
// together with the storage cell it lands in. The state's bucketer and
// assigner are immutable, so no lock is needed beyond pinning st.
func (ix *Index) assignCell(st *state, i int, p vec.Point) (diskNo int, key string, rect vec.Rect) {
	if rec, ok := st.assigner.(*core.Recursive); ok {
		c := rec.AssignCell(p)
		return c.Disk, c.Key(), c.Rect
	}
	diskNo = st.assigner.Assign(i, p)
	b := st.bucketer.Bucket(p)
	// Round robin scatters a quadrant over every disk; the disk is part
	// of the cell identity so each disk keeps its own pages per quadrant.
	key = fmt.Sprintf("%d#%d", b, diskNo)
	return diskNo, key, core.QuadrantRect(b, splitValues(st))
}

// addToCell records one point in its storage cell. Caller holds meta (or
// exclusively owns st during a build).
func addToCell(st *state, key string, diskNo int, rect vec.Rect) {
	if idx, ok := st.cellIndex[key]; ok {
		st.cells[idx].count++
		return
	}
	st.cellIndex[key] = len(st.cells)
	st.cells = append(st.cells, cellInfo{rect: rect, disk: diskNo, count: 1})
}

func (ix *Index) treeConfig() xtree.Config {
	cfg := xtree.DefaultConfig(ix.opts.Dim)
	cfg.LeafCapacity = xtree.LeafCapacityForPage(ix.opts.Dim, ix.opts.PageSize)
	cfg.DirCapacity = xtree.DirCapacityForPage(ix.opts.Dim, ix.opts.PageSize)
	cfg.Packed = ix.opts.Packed
	cfg.Quantize = ix.opts.Quantize
	return cfg
}

// canonPacked applies packed mode's rounding-at-ingest contract to a
// freshly cloned point: every coordinate is rounded to the nearest
// float32, so the tree's float64 values and the slabs' float32 copies
// are the same numbers and the batched kernels match the scalar ones
// bit for bit. A no-op on unpacked indexes.
func (ix *Index) canonPacked(p vec.Point) {
	if !ix.opts.Packed {
		return
	}
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

// buildState constructs a fresh derived state (and the cloned point
// table) from the given vectors. It reads only immutable index fields, so
// it runs without any lock — Build and Reorganize call it off the lock
// and cut the result in atomically.
func (ix *Index) buildState(points [][]float64) (st *state, pts []vec.Point, live int, err error) {
	for i, p := range points {
		if p != nil && len(p) != ix.opts.Dim {
			return nil, nil, 0, fmt.Errorf("parsearch: point %d has dimension %d, want %d", i, len(p), ix.opts.Dim)
		}
	}
	pts = make([]vec.Point, len(points))
	var livePoints []vec.Point
	for i, p := range points {
		if p == nil {
			continue
		}
		pts[i] = vec.Clone(p)
		ix.canonPacked(pts[i])
		livePoints = append(livePoints, pts[i])
		live++
	}

	st = &state{cellIndex: make(map[string]int)}
	// Choose the bucketing per the configured extensions.
	if ix.opts.QuantileSplits && live > 0 {
		st.bucketer = core.NewQuantileSplitter(livePoints, 0.5)
	} else {
		st.bucketer = core.NewMidpointSplitter(ix.opts.Dim)
	}
	if ix.opts.Recursive {
		st.assigner = core.BuildRecursive(livePoints, st.bucketer, ix.opts.Disks,
			core.DefaultRecursiveConfig(ix.opts.Disks))
	} else {
		assigner, err := ix.makeAssigner(st.bucketer)
		if err != nil {
			return nil, nil, 0, err
		}
		st.assigner = assigner
	}

	// Partition into per-disk trees and bucket cells. Bucket-based
	// strategies store data per bucket, so no page spans two buckets
	// (the paper's storage layout); round robin has no spatial
	// grouping — each disk indexes its arrival-order sample as a whole.
	// With a single disk there is nothing to decluster: the "parallel"
	// index degenerates to the original sequential X-tree, so the plain
	// layout applies (bucket grouping would only fragment pages).
	_, isRR := st.assigner.(*core.RoundRobin)
	plain := isRR || ix.opts.Disks == 1
	groups := make([]map[string][]xtree.Entry, ix.opts.Disks)
	for d := range groups {
		groups[d] = make(map[string][]xtree.Entry)
	}
	for i, p := range pts {
		if p == nil {
			continue
		}
		d, key, rect := ix.assignCell(st, i, p)
		addToCell(st, key, d, rect)
		groups[d][key] = append(groups[d][key], xtree.Entry{Point: p, ID: i})
	}
	cfg := ix.treeConfig()
	st.shards = make([]*shard, ix.opts.Disks)
	for d := range st.shards {
		st.shards[d] = loadShard(cfg, groups[d], plain)
	}
	if ix.opts.Replication > 0 {
		// Chained replication: disk r hosts a second, independently
		// packed tree over the data whose primary is disk r-1.
		st.replicas = make([]*shard, ix.opts.Disks)
		for d := range groups {
			st.replicas[replicaOf(d, ix.opts.Disks)] = loadShard(cfg, groups[d], plain)
		}
	}
	if ix.opts.LSH {
		for _, sh := range st.shards {
			sh.probe = lsh.Build(sh.tree, lshSeed)
		}
		for _, sh := range st.replicas {
			sh.probe = lsh.Build(sh.tree, lshSeed)
		}
	}
	if ix.opts.Baseline {
		entries := make([]xtree.Entry, 0, live)
		for i, p := range pts {
			if p != nil {
				entries = append(entries, xtree.Entry{Point: p, ID: i})
			}
		}
		st.baseline = &shard{tree: xtree.New(cfg)}
		st.baseline.tree.BulkLoad(entries)
	}
	return st, pts, live, nil
}

// loadShard bulk-loads one disk's share of the data — grouped by
// storage cell so no page spans two cells, or flat for the plain layout
// — into a fresh tree. Cell keys are sorted for a deterministic build.
func loadShard(cfg xtree.Config, groups map[string][]xtree.Entry, plain bool) *shard {
	keys := make([]string, 0, len(groups))
	for key := range groups {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	sh := &shard{tree: xtree.New(cfg)}
	if plain {
		var all []xtree.Entry
		for _, key := range keys {
			all = append(all, groups[key]...)
		}
		sh.tree.BulkLoad(all)
		return sh
	}
	parts := make([][]xtree.Entry, 0, len(keys))
	for _, key := range keys {
		parts = append(parts, groups[key])
	}
	sh.tree.BulkLoadGrouped(parts)
	return sh
}

// Build indexes the given vectors, replacing any previous content. Vector
// i receives ID i. A nil vector is a tombstone: its ID stays reserved but
// nothing is stored (snapshots of indexes with deletions use this). With
// Options.QuantileSplits the quadrant splits are placed at the
// per-dimension medians of the data; with Options.Recursive overloaded
// disks are recursively declustered (both extensions of §4.3).
//
// The new structure is computed off the lock — queries keep running
// against the old contents meanwhile — and swapped in as an atomic
// cutover. A concurrent Insert or Delete serializes either before the
// cutover (its effect is replaced, as if it preceded Build) or after it.
func (ix *Index) Build(points [][]float64) error {
	st, pts, live, err := ix.buildState(points)
	if err != nil {
		return err
	}
	if ix.opts.Durable {
		// A durable Build is a generation rebase: the new state must be
		// committed as a snapshot before the cutover (see durable.go).
		return ix.rebaseDurable(st, pts, live)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.meta.Lock()
	defer ix.meta.Unlock()
	if ix.closed {
		return ErrClosed
	}
	ix.st = st
	ix.points = pts
	ix.live = live
	ix.version++
	return nil
}

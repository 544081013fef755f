package parsearch

import (
	"context"
	"fmt"
	"sort"

	"parsearch/internal/core"
	"parsearch/internal/vec"
)

// Reorganization implements the dynamic side of the paper's §4.3
// extensions: with Options.QuantileSplits the index keeps per-dimension
// distribution statistics as vectors are inserted (an AdaptiveSplitter
// with streaming P² quantile estimators); when the data drifts so far
// that some split's below/above ratio exceeds the threshold,
// NeedsReorganization reports true and Reorganize rebalances the disks —
// "we reorganize our data distribution using the new 0.5-quantile for
// each dimension".
//
// The reorganization is incremental: instead of rebuilding the whole
// index, it repeatedly finds the most overloaded disk, takes that disk's
// heaviest terminal bucket cell, and declusters it one level deeper with
// the recursive scheme — split at the medians of the cell's actual
// contents (quantile re-estimation, per cell), children re-colored
// across the disks. Only the points of the split cells move; every other
// cell, tree page, and the point table itself stay untouched. Each step
// is planned off every lock, applied under meta and published as one
// version, so concurrent queries — which take no lock — see either the
// old or the new structure, never a torn one, and never wait for a
// step; since every structure answers queries exactly, results are
// identical either way. Bucket strategies that are not recursive yet
// are first wrapped via core.NewRecursiveOver, which changes no
// assignment at level 0.
// The arrival-order round-robin layout has no bucket structure to
// split and is left as it is: it puts point i on disk i mod n, so no
// step — not even a rebuild of the same IDs — can lower a disk.

// imbalanceThreshold is the below/above ratio that triggers
// reorganization (2 = one side holds twice the other's points).
const imbalanceThreshold = 2.0

// reorgOverloadFactor is the per-disk load threshold relative to the
// ideal N/n beyond which a reorganization step splits a bucket — the
// same factor BuildRecursive uses.
const reorgOverloadFactor = 2.0

// reorgMaxLevels bounds the recursion depth of incremental expansions,
// matching DefaultRecursiveConfig.
const reorgMaxLevels = 8

// reorgMaxSteps bounds the incremental steps of one Reorganize call.
const reorgMaxSteps = 64

// observer returns the index's adaptive splitter, creating it on first
// use. Only meaningful with QuantileSplits. Caller holds meta.
func (ix *Index) observer() *core.AdaptiveSplitter {
	if ix.adaptive == nil {
		ix.adaptive = core.NewAdaptiveSplitter(ix.opts.Dim, 0.5, imbalanceThreshold)
	}
	return ix.adaptive
}

// NeedsReorganization reports whether inserted data has drifted far
// enough from the current split values that a Reorganize would
// rebalance the disks. Always false unless Options.QuantileSplits is
// set.
func (ix *Index) NeedsReorganization() bool {
	ix.meta.Lock()
	defer ix.meta.Unlock()
	if !ix.opts.QuantileSplits || ix.adaptive == nil {
		return false
	}
	return ix.adaptive.NeedsRebalance()
}

// ReorgStats reports what a Reorganize call did.
type ReorgStats struct {
	// Steps counts the incremental cut-ins applied (including a
	// strategy-wrapping step, which moves no points).
	Steps int
	// BucketsSplit counts the terminal bucket cells declustered one
	// level deeper; PointsMoved the vectors that changed disks.
	BucketsSplit int
	PointsMoved  int
	// Checkpointed reports that a durable index sealed the new
	// structure with a checkpoint, so a crash right after Reorganize
	// replays (almost) no log records.
	Checkpointed bool
}

// Reorganize rebalances the index over its current (live) contents by
// incrementally splitting overloaded bucket cells (see the package
// comment above). IDs are preserved. It is the explicit form of the
// paper's reorganization step; call it when NeedsReorganization reports
// true (or on a maintenance schedule). Queries and point mutations keep
// running throughout; each step's cut-in is atomic.
func (ix *Index) Reorganize() error {
	_, err := ix.ReorganizeStats()
	return err
}

// ReorganizeStats is Reorganize reporting what it did.
func (ix *Index) ReorganizeStats() (ReorgStats, error) {
	var stats ReorgStats
	for stats.Steps < reorgMaxSteps {
		plan, err := ix.reorganizeStep()
		if err != nil {
			return stats, err
		}
		if plan == nil {
			break // balanced (or nothing left to split)
		}
		stats.Steps++
		stats.BucketsSplit += plan.buckets
		stats.PointsMoved += plan.moved
	}

	// Seal the drift statistics: adopt the current quantile estimates as
	// the new reference splits and reset the below/above counters.
	// Discarding the splitter instead (the old behavior) made the next
	// observer restart at midpoints, so an index serving skewed data
	// re-triggered reorganization forever.
	ix.meta.Lock()
	if ix.adaptive != nil {
		ix.adaptive.Rebalance()
	}
	closed := ix.closed
	ix.meta.Unlock()

	sp := ix.newSpan(context.Background(), "reorganize")
	sp.emit(TraceEvent{Stage: StageReorg, Disk: -1, Item: -1,
		Results: stats.BucketsSplit, Pages: stats.PointsMoved})

	// A durable index seals the reorganized structure with a checkpoint:
	// recovery then starts from a snapshot of the new structure instead
	// of replaying the whole log onto a from-scratch rebuild.
	if ix.opts.Durable && !closed && stats.Steps > 0 {
		if err := ix.Checkpoint(); err != nil {
			return stats, fmt.Errorf("parsearch: sealing reorganization: %w", err)
		}
		stats.Checkpointed = true
	}
	return stats, nil
}

// reorgMove relocates one point into its post-split cell (and, when the
// re-coloring says so, onto another disk).
type reorgMove struct {
	id      int
	p       vec.Point
	oldDisk int
	newDisk int
	newKey  string
}

// reorgPlan is one step's worth of change, computed off the lock against
// a pinned version and a cut of the point table, and applied under meta (after
// a check that nothing was published since).
type reorgPlan struct {
	// wrap: replace a bucket-strategy assigner with its recursive
	// wrapper (no point moves; level-0 assignments are identical).
	wrap *core.Recursive
	// next is the expanded assigner clone to cut in, oldKeys the cells
	// it empties, moves the per-point relocations.
	next    *core.Recursive
	oldKeys []string
	moves   []reorgMove
	buckets int
	moved   int
}

// reorganizeStep performs one incremental step: plan optimistically off
// the lock against the published version, then cut in under meta
// (re-planning there if a write batch, step or build published since).
// It returns nil when the disks are balanced or nothing splittable
// remains.
func (ix *Index) reorganizeStep() (*reorgPlan, error) {
	ix.meta.Lock()
	if ix.closed {
		ix.meta.Unlock()
		return nil, ErrClosed
	}
	pinned := ix.pub.Load()
	tbl := ix.tbl.cut()
	ix.meta.Unlock()

	plan := ix.reorgPlanFor(pinned.assigner, tbl)
	if plan == nil {
		return nil, nil
	}

	ix.meta.Lock()
	defer ix.meta.Unlock()
	if ix.closed {
		return nil, ErrClosed
	}
	if ix.pub.Load() != pinned {
		// The point table (or the whole state) changed while the
		// optimistic planner ran: every change publishes. Re-plan from
		// the current contents under meta: slower (it blocks writers,
		// not queries, for the duration), but atomic and lossless.
		plan = ix.reorgPlanFor(ix.st.assigner, ix.tbl)
		if plan == nil {
			return nil, nil
		}
	}
	if err := ix.reorgApply(plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// reorgPlanFor computes one step's plan against a consistent cut of the
// point table: find the most overloaded disk, pick its heaviest terminal
// bucket level, and split every terminal cell of that (level, disk) at
// the per-dimension medians of its members. Returns nil when balanced
// (within one leaf page of the overload threshold) or stuck (overloaded
// but nothing expandable below the depth bound, or round robin's
// arrival-order layout, which has no bucket to split).
func (ix *Index) reorgPlanFor(assigner core.Assigner, tbl *pointTable) *reorgPlan {
	n := ix.opts.Disks
	if n == 1 {
		return nil // nothing to decluster
	}
	live := tbl.live()
	if live == 0 {
		return nil
	}
	ideal := float64(live) / float64(n)
	// One leaf page of slack: a disk within a page of the threshold
	// cannot be meaningfully improved by moving points.
	slack := float64(ix.treeConfig().LeafCapacity)
	balanced := func(worst int) bool {
		return float64(worst) <= reorgOverloadFactor*ideal+slack
	}
	maxLoad := func(loads []int) int {
		m := 0
		for _, l := range loads {
			if l > m {
				m = l
			}
		}
		return m
	}

	rec, isRec := assigner.(*core.Recursive)
	if !isRec {
		ba, ok := assigner.(*core.BucketAssigner)
		if !ok {
			return nil // round robin: nothing to split
		}
		// Plain per-point load scan for a bucket layout not yet wrapped.
		loads := make([]int, n)
		tbl.each(func(i int, p vec.Point) { loads[ba.Assign(i, p)]++ })
		if balanced(maxLoad(loads)) {
			return nil
		}
		return &reorgPlan{wrap: core.NewRecursiveOver(ba.Bucketer(), ba.Strategy())}
	}

	// Pass 1: per-disk loads under the recursive assignment.
	diskLoads := make([]int, n)
	tbl.each(func(_ int, p vec.Point) { diskLoads[rec.AssignCell(p).Disk]++ })
	worst, worstLoad := 0, 0
	for d, l := range diskLoads {
		if l > worstLoad {
			worst, worstLoad = d, l
		}
	}
	if balanced(worstLoad) {
		return nil
	}

	// Pass 2: the worst disk's terminal cells, grouped by level, each
	// with its members' IDs and coordinates (member i's at [i·dim,
	// (i+1)·dim)), which the plan's moves keep.
	dim := ix.opts.Dim
	type cellMembers struct {
		rect   vec.Rect
		ids    []int
		coords []float64
	}
	cells := make(map[string]*cellMembers)
	levelCount := make(map[int]int)
	levelOf := make(map[string]int)
	tbl.each(func(i int, p vec.Point) {
		c := rec.AssignCell(p)
		if c.Disk != worst {
			return
		}
		key := c.Key()
		cm := cells[key]
		if cm == nil {
			cm = &cellMembers{rect: c.Rect}
			cells[key] = cm
			levelOf[key] = c.Level
		}
		cm.ids = append(cm.ids, i)
		cm.coords = append(cm.coords, p...)
		levelCount[c.Level]++
	})
	// The heaviest expandable terminal level of the worst disk, as in
	// BuildRecursive.
	bestLevel, bestCount := -1, 0
	for l, cnt := range levelCount {
		if l < reorgMaxLevels && cnt > bestCount {
			bestLevel, bestCount = l, cnt
		}
	}
	if bestLevel < 0 {
		return nil // overloaded but at the depth bound: stuck
	}

	// Expand (bestLevel, worst) on a clone and register each affected
	// cell's quantile sub-splits: the per-dimension medians of the
	// cell's actual members, so the split halves the real load instead
	// of the geometry.
	clone := rec.Clone()
	clone.Expand(bestLevel, worst)
	plan := &reorgPlan{next: clone}
	keys := make([]string, 0, len(cells))
	for key := range cells {
		if levelOf[key] == bestLevel {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys) // deterministic plan order
	coords := make([]float64, 0, 64)
	for _, key := range keys {
		cm := cells[key]
		splits := make([]float64, dim)
		for j := 0; j < dim; j++ {
			coords = coords[:0]
			for m := range cm.ids {
				coords = append(coords, cm.coords[m*dim+j])
			}
			sort.Float64s(coords)
			med := coords[(len(coords)-1)/2]
			if med > cm.rect.Min[j] && med < cm.rect.Max[j] {
				splits[j] = med
			} else {
				// Degenerate dimension: keep the midpoint.
				splits[j] = (cm.rect.Min[j] + cm.rect.Max[j]) / 2
			}
		}
		clone.SetSubSplits(key, splits)
		plan.oldKeys = append(plan.oldKeys, key)
		plan.buckets++
		for m, id := range cm.ids {
			p := cm.coords[m*dim : (m+1)*dim : (m+1)*dim]
			c2 := clone.AssignCell(p)
			plan.moves = append(plan.moves, reorgMove{
				id: id, p: p,
				oldDisk: worst, newDisk: c2.Disk,
				newKey: c2.Key(),
			})
			if c2.Disk != worst {
				plan.moved++
			}
		}
	}
	return plan
}

// reorgApply cuts one plan into the writers' state and publishes it (see
// Index.publish). Caller holds meta, and has verified the plan was
// computed against the current state and point table.
func (ix *Index) reorgApply(plan *reorgPlan) error {
	st := ix.st
	defer ix.publish(st)
	if plan.wrap != nil {
		// Wrapping changes no disk assignment (level 0 is colored by the
		// same strategy), so the trees stay as they are; only the cell
		// table switches to recursive path keys.
		st.assigner = plan.wrap
		st.cells = nil
		st.cellIndex = make(map[string]int)
		ix.tbl.each(func(i int, p vec.Point) {
			d, key := ix.assignCell(st, i, p)
			addToCell(st, key, d, p)
		})
		return nil
	}

	// Swap the assigner first so assignCell (and any error path below)
	// agrees with the new cell table.
	st.assigner = plan.next
	for _, key := range plan.oldKeys {
		if idx, ok := st.cellIndex[key]; ok {
			st.cells[idx].count = 0
		}
	}
	for _, mv := range plan.moves {
		addToCell(st, mv.newKey, mv.newDisk, mv.p)
		if mv.newDisk == mv.oldDisk {
			continue
		}
		if err := st.take(mv.oldDisk, mv.p, mv.id); err != nil {
			return fmt.Errorf("parsearch: reorganizing: %w", err)
		}
		st.place(mv.newDisk, mv.p, mv.id)
		// The baseline tree is disk-agnostic: nothing to move.
	}
	ix.reg.ReorgBuckets.Add(int64(plan.buckets))
	return nil
}

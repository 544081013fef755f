package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"parsearch"
	"parsearch/internal/disk"
	"parsearch/internal/fsx"
	"parsearch/internal/knn"
	"parsearch/internal/slab"
	"parsearch/internal/vec"
	"parsearch/internal/wal"
	"parsearch/internal/wire"
	"parsearch/internal/xtree"
)

// The layer probes time direct calls into single layers, one goroutine, on
// inputs sampled from the workload: its points, its queries, its boxes.

// probeBudget is how long each timed probe repeats its call.
const probeBudget = 100 * time.Millisecond

// sink keeps the compiler from dropping a probed call's result.
var sink float64

// perCall repeats f for the budget and returns the nanoseconds one call
// took, counting calls in rounds so the clock is read rarely.
func perCall(budget time.Duration, f func()) float64 {
	calls, round := 0, 1
	start := time.Now()
	for {
		for i := 0; i < round; i++ {
			f()
		}
		calls += round
		if el := time.Since(start); el >= budget {
			return float64(el) / float64(calls)
		}
		if round < 1<<20 {
			round *= 2
		}
	}
}

// allocsPer runs f n times and returns the allocations and bytes one call
// made. Only the calling goroutine may be allocating meanwhile.
func allocsPer(n int, f func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// kernelProbes times the layers below the engine on the workload's inputs.
func kernelProbes(ds *dataset, c costs, budget time.Duration, tmp string) (layerSet, error) {
	out := layerSet{}
	dim := ds.spec.dim
	queries := ds.queries[:64]

	// slab: leaf pages as the tree would pack them, 4-KByte pages.
	cfg := xtree.DefaultConfig(dim)
	cfg.Packed = true
	var pages [][]vec.Point
	for at := 0; at+cfg.LeafCapacity <= len(ds.points) && len(pages) < 256; at += cfg.LeafCapacity {
		pages = append(pages, ds.points[at:at+cfg.LeafCapacity])
	}
	perPage := float64(cfg.LeafCapacity)
	slabs := make([]*slab.Slab, len(pages))
	i := 0
	out["slab.build_ns_per_point"] = perCall(budget, func() {
		slabs[i%len(pages)] = slab.Build(dim, pages[i%len(pages)], false)
		i++
	}) / perPage
	for j := range pages {
		slabs[j] = slab.Build(dim, pages[j], false)
	}
	dists := make([]float64, cfg.LeafCapacity)
	out["slab.dists_ns_per_point"] = perCall(budget, func() {
		slabs[i%len(slabs)].DistsToPage(queries[i%len(queries)], vec.L2, dists)
		sink += dists[0]
		i++
	}) / perPage
	inside := make([]bool, cfg.LeafCapacity)
	out["slab.inrect_ns_per_point"] = perCall(budget, func() {
		b := ds.box(i)
		slabs[i%len(slabs)].InRect(b[0], b[1], inside)
		i++
	}) / perPage
	// Directory pages: the MBRs of DirCapacity leaf pages each.
	var rectSlabs []*slab.RectSlab
	for at := 0; at < len(pages); at += cfg.DirCapacity {
		var rects []vec.Rect
		for _, pg := range pages[at:min(at+cfg.DirCapacity, len(pages))] {
			rects = append(rects, vec.MBR(pg))
		}
		rectSlabs = append(rectSlabs, slab.BuildRects(dim, rects))
	}
	minDists := make([]float64, cfg.DirCapacity)
	i = 0
	rectsSeen := 0
	ns := perCall(budget, func() {
		rs := rectSlabs[i%len(rectSlabs)]
		rs.MinDistsToPage(queries[i%len(queries)], vec.L2, minDists)
		sink += minDists[0]
		rectsSeen += rs.Len()
		i++
	})
	out["slab.mindists_ns_per_rect"] = ns * float64(i) / float64(rectsSeen)

	// xtree and knn: one tree over a sample of the points.
	n := min(len(ds.points), 50_000)
	entries := make([]xtree.Entry, n)
	for j := range entries {
		entries[j] = xtree.Entry{Point: ds.points[j], ID: j}
	}
	tree := xtree.New(cfg)
	start := time.Now()
	tree.BulkLoad(entries)
	out["xtree.bulkload_ns_per_point"] = float64(time.Since(start)) / float64(n)
	an := tree.Analyze()
	out["xtree.leaf_fill"] = an.LeafFill
	out["xtree.supernodes"] = float64(an.Supernodes)
	i = 0
	out["xtree.range_us"] = perCall(budget, func() {
		b := ds.box(i)
		found, _ := tree.RangeSearch(vec.NewRect(b[0], b[1]))
		sink += float64(len(found))
		i++
	}) / 1e3
	i = 0
	out["knn.hsshared_us"] = perCall(budget, func() {
		res, _, _ := knn.HSShared(tree, ds.query(i), knnK, vec.L2, knn.NewBound(), nil)
		sink += float64(len(res))
		i++
	}) / 1e3
	// Pages and allocations over a fixed set of queries, so they repeat.
	var acc knn.Accounting
	const searches = 200
	i = 0
	out["knn.hsshared_allocs"], _ = allocsPer(searches, func() {
		_, a, _ := knn.HSShared(tree, ds.query(i), knnK, vec.L2, knn.NewBound(), nil)
		acc.Add(a)
		i++
	})
	out["knn.pages_per_search"] = float64(acc.PageAccesses) / searches
	// Inserts last: they change the tree the searches above measured. The
	// inserted points are the workload's own insert inputs where it has
	// any, else further data points.
	fresh := ds.inserts
	if len(fresh) == 0 {
		fresh = ds.points[len(ds.points)-min(len(ds.points), 2000):]
	}
	fresh = fresh[:min(len(fresh), 2000)]
	start = time.Now()
	for j, p := range fresh {
		tree.Insert(p, n+j)
	}
	out["xtree.insert_us"] = float64(time.Since(start)) / float64(len(fresh)) / 1e3

	// disk: the read batches the sampled queries caused.
	arr := disk.NewArray(disks, disk.DefaultParams())
	var batches [][]disk.PageRef
	for _, perDisk := range c.perDisk {
		var refs []disk.PageRef
		for d, pagesOn := range perDisk {
			for p := 0; p < pagesOn; p++ {
				refs = append(refs, disk.PageRef{Disk: d, Blocks: 1})
			}
		}
		batches = append(batches, refs)
	}
	i = 0
	var probeErr error
	out["disk.readbatch_us"] = perCall(budget, func() {
		res, err := arr.ReadBatch(batches[i%len(batches)])
		if err != nil {
			probeErr = err
		}
		sink += float64(res.Total)
		i++
	}) / 1e3
	if probeErr != nil {
		return nil, fmt.Errorf("disk probe: %w", probeErr)
	}

	if err := walProbes(ds, out, tmp); err != nil {
		return nil, err
	}
	wireProbes(ds, out, budget)
	return out, nil
}

// walProbes times a synced append on a real file and a replay from memory.
func walProbes(ds *dataset, out layerSet, tmp string) error {
	dir, err := os.MkdirTemp(tmp, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, err := fsx.NewOS(dir)
	if err != nil {
		return err
	}
	f, err := fs.Create("probe.wal")
	if err != nil {
		return err
	}
	w := wal.NewWriter(f, 0, wal.SyncAlways)
	const appends = 200
	start := time.Now()
	for i := 0; i < appends; i++ {
		if err := w.Append(wal.EncodeInsert(uint64(i), ds.points[i%len(ds.points)])); err != nil {
			w.Close()
			return fmt.Errorf("wal probe: %w", err)
		}
	}
	out["wal.append_us"] = float64(time.Since(start)) / appends / 1e3
	if err := w.Close(); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}

	const records = 20_000
	var log []byte
	for i := 0; i < records; i++ {
		log = append(log, wal.EncodeInsert(uint64(i), ds.points[i%len(ds.points)])...)
	}
	start = time.Now()
	st, err := wal.Replay(log, func(wal.Record) error { return nil })
	if err != nil || st.Records != records {
		return fmt.Errorf("wal probe: replayed %d of %d records: %v", st.Records, records, err)
	}
	out["wal.replay_ns_per_record"] = float64(time.Since(start)) / records
	return nil
}

// wireProbes times the codec on one k-NN exchange of the workload's
// dimension: request decode, response encode, response decode.
func wireProbes(ds *dataset, out layerSet, budget time.Duration) {
	q := ds.query(0)
	reqBody, _ := json.Marshal(wire.KNNRequest{Query: q, K: knnK})
	resp := wire.QueryResponse{}
	for i := 0; i < knnK; i++ {
		resp.Neighbors = append(resp.Neighbors, wire.Neighbor{ID: i, Point: ds.points[i], Dist: float64(i) / 7})
	}
	resp.Stats, _ = json.Marshal(parsearch.QueryStats{PagesPerDisk: make([]int, disks)})
	respBody, _ := json.Marshal(resp)

	decodeReq := func() {
		r, err := wire.DecodeKNN(reqBody, ds.spec.dim)
		if err != nil {
			panic(err) // the request was encoded three lines up
		}
		sink += float64(r.K)
	}
	encodeResp := func() {
		b, _ := json.Marshal(resp)
		sink += float64(len(b))
	}
	decodeResp := func() {
		var r wire.QueryResponse
		_ = json.Unmarshal(respBody, &r)
		sink += float64(len(r.Neighbors))
	}
	out["wire.decode_knn_us"] = perCall(budget, decodeReq) / 1e3
	out["wire.encode_resp_us"] = perCall(budget, encodeResp) / 1e3
	out["wire.decode_resp_us"] = perCall(budget, decodeResp) / 1e3
	out["wire.allocs_per_roundtrip"], _ = allocsPer(200, func() {
		b, _ := json.Marshal(wire.KNNRequest{Query: q, K: knnK})
		sink += float64(len(b))
		decodeReq()
		encodeResp()
		decodeResp()
	})
}

// probeRequests is the fixed operation list of a stack probe: the
// workload's own inputs, every query class the deployment answers.
func probeRequests(ds *dataset, n int) []request {
	var reqs []request
	for i := 0; i < n; i++ {
		kind := opKNN
		switch {
		case i%10 == 8:
			kind = opRange
		case i%10 == 9:
			kind = opBatch
		}
		reqs = append(reqs, ds.request(op{kind: kind, idx: i}))
	}
	return reqs
}

// runTraced sends the requests one after the other through the rig's
// target, each under an op span.
func runTraced(r *rig, reqs []request, tr *tracer) error {
	for _, req := range reqs {
		if _, err := tr.do(r.tgt, req); err != nil {
			return fmt.Errorf("%v: %w", req.kind, err)
		}
	}
	return nil
}

// stackProbes measure the layers a workload's own deployment does not
// pass through, so every layer has a number on every workload: a server
// front and a cluster over the workload's index, and a small durable index
// over a sample of its points, each driven by one client with a short
// fixed operation list. Their metrics only fill what the workload's own
// traced pass could not supply. tr is the tracer the index was opened with
// (its coalesced batches report there), emptied of the pass's spans.
func stackProbes(ds *dataset, ix *parsearch.Index, tr *tracer, smoke bool, tmp string) (layerSet, error) {
	out := layerSet{}
	n := 100
	if smoke {
		n = 30
	}
	reqs := probeRequests(ds, n)
	for _, dep := range []deployment{deployServer, deployCluster} {
		if dep == ds.spec.deploy {
			continue
		}
		r := &rig{ix: ix}
		err := r.deploy(ds, dep, tr)
		if err == nil {
			before := ix.Metrics()
			err = runTraced(r, reqs, tr)
			out.fill(counterMetrics(r, before, ix.Metrics(), tr))
		}
		r.close()
		if err != nil {
			return nil, fmt.Errorf("stack probe: %w", err)
		}
		out.fill(spanMetrics(tr.take()))
	}
	if ds.spec.deploy != deployDurable {
		m, err := durableProbe(ds, n, tmp)
		if err != nil {
			return nil, fmt.Errorf("durable probe: %w", err)
		}
		out.fill(m)
	}
	return out, nil
}

// durableProbe builds a small durable index over a sample of the
// workload's points and runs inserts, a checkpoint, a reorganize and a
// reopen of the copied directory through it.
func durableProbe(ds *dataset, inserts int, tmp string) (layerSet, error) {
	small := *ds
	small.spec.quantile = true
	small.points = ds.points[:min(len(ds.points), 20_000)]
	tr := newTracer()
	r, _, err := setUp(&small, deployDurable, tr, tmp)
	if err != nil {
		return nil, err
	}
	defer r.close()
	rnd := rand.New(rand.NewSource(1))
	var reqs []request
	for i := 0; i < inserts; i++ {
		p := append([]float64(nil), small.points[rnd.Intn(len(small.points))]...)
		toCorner(p)
		reqs = append(reqs, request{kind: opInsert, q: p})
	}
	reqs = append(reqs, request{kind: opCheckpoint}, request{kind: opReorg})
	before := r.ix.Metrics()
	ph := &phase{}
	for _, req := range reqs {
		a, err := tr.do(r.tgt, req)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", req.kind, err)
		}
		switch req.kind {
		case opInsert:
			ph.inserted = append(ph.inserted, acked{id: a.id, point: req.q})
		case opReorg:
			ph.reorg = a.reorg
		}
	}
	out := spanMetrics(tr.take())
	out.fill(counterMetrics(r, before, r.ix.Metrics(), tr))
	m, err := durableMetrics(r, &small, ph, tmp)
	if err != nil {
		return nil, err
	}
	out.fill(m)
	return out, nil
}

// durableMetrics reads the durable layer's numbers off a rig after a pass:
// what Reorganize split, the directory's size against the live user bytes,
// and the log records a reopen of the copied directory replays.
func durableMetrics(r *rig, ds *dataset, ph *phase, tmp string) (layerSet, error) {
	out := layerSet{"engine.reorg_buckets_split": float64(ph.reorg.BucketsSplit)}
	size, err := dirBytes(r.dir)
	if err != nil {
		return nil, err
	}
	live := float64(len(ds.points)+len(ph.inserted)) * float64(ds.spec.dim) * 8
	out["durable.disk_amp"] = float64(size) / live
	reopened, _, err := r.reopen(ds, 1, tmp)
	if err != nil {
		return nil, err
	}
	out["durable.recovered_records"] = float64(reopened.Recovery().Records)
	return out, nil
}

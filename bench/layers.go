package main

import (
	"sort"
	"strconv"

	"parsearch"
	"parsearch/internal/metrics"
)

// layerSet holds per-layer metric values by name. A metric with nothing to
// measure on a pass is absent, so a later source can supply it.
type layerSet map[string]float64

// fill adds the metrics of other that s lacks.
func (s layerSet) fill(other layerSet) {
	for k, v := range other {
		if _, ok := s[k]; !ok {
			s[k] = v
		}
	}
}

// spanIndex groups spans by name and by parent.
type spanIndex struct {
	spans  []span
	byName map[string][]int
	kids   map[uint32][]int
	// adopted are extra covering intervals of a span that are not its
	// children: a coalesced batch serves several server.handle spans.
	adopted map[uint32][]int
}

func indexSpans(spans []span) *spanIndex {
	x := &spanIndex{spans: spans, byName: map[string][]int{}, kids: map[uint32][]int{}, adopted: map[uint32][]int{}}
	for i, s := range spans {
		x.byName[s.Name] = append(x.byName[s.Name], i)
		if s.Parent != 0 {
			x.kids[s.Parent] = append(x.kids[s.Parent], i)
		}
	}
	return x
}

// self is a span's duration minus the part of it its children cover.
func (x *spanIndex) self(i int) int64 {
	s := x.spans[i]
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, list := range [][]int{x.kids[s.ID], x.adopted[s.ID]} {
		for _, k := range list {
			a, b := x.spans[k].Start, x.spans[k].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, edge := int64(0), s.Start
	for _, v := range ivs {
		if v.b <= edge {
			continue
		}
		if v.a < edge {
			v.a = edge
		}
		covered += v.b - v.a
		edge = v.b
	}
	return s.dur() - covered
}

// meanOf returns the mean of f over the spans of one name, in the unit the
// divisor gives (1e3 for µs, 1e9 for s), and whether there were any.
func (x *spanIndex) meanOf(name string, div float64, f func(i int) int64) (float64, bool) {
	ids := x.byName[name]
	if len(ids) == 0 {
		return 0, false
	}
	var sum int64
	for _, i := range ids {
		sum += f(i)
	}
	return float64(sum) / float64(len(ids)) / div, true
}

func (x *spanIndex) dur(i int) int64 { return x.spans[i].dur() }

// kidsNamed returns a span's children of one name, by start.
func (x *spanIndex) kidsNamed(id uint32, name string) []int {
	var out []int
	for _, k := range x.kids[id] {
		if x.spans[k].Name == name {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return x.spans[out[i]].Start < x.spans[out[j]].Start })
	return out
}

// adoptCoalesced ties each coalesced /v1/knn request to the batch that
// served it. The coalescer runs its batch outside any request's context, so
// the batch's engine span has no parent; a request returns as soon as its
// batch does, so its batch is the parentless one that ends last inside the
// request's span. It returns the mean wait from request arrival to batch
// start, in µs.
func (x *spanIndex) adoptCoalesced() (waitUS float64, ok bool) {
	var orphans []int
	for _, i := range x.byName["engine.batch"] {
		if x.spans[i].Parent == 0 {
			orphans = append(orphans, i)
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return x.spans[orphans[i]].End < x.spans[orphans[j]].End })
	var wait int64
	n := 0
	for _, h := range x.byName["server.handle"] {
		hs := x.spans[h]
		if hs.Attr != "/v1/knn" || len(x.kids[hs.ID]) > 0 {
			continue
		}
		j := sort.Search(len(orphans), func(j int) bool { return x.spans[orphans[j]].End > hs.End }) - 1
		if j < 0 || x.spans[orphans[j]].Start < hs.Start {
			continue
		}
		x.adopted[hs.ID] = append(x.adopted[hs.ID], orphans[j])
		wait += x.spans[orphans[j]].Start - hs.Start
		n++
	}
	if n == 0 {
		return 0, false
	}
	return float64(wait) / float64(n) / 1e3, true
}

// spanMetrics derives the per-layer metrics the spans of a pass support.
func spanMetrics(spans []span) layerSet {
	x := indexSpans(spans)
	out := layerSet{}
	set := func(name string, v float64, ok bool) {
		if ok {
			out[name] = v
		}
	}
	wait, ok := x.adoptCoalesced()
	set("server.coalesce_wait_us", wait, ok)

	for _, l := range []struct{ span, dur, self string }{
		{"client.rpc", "client.rpc_us", "client.self_us"},
		{"server.handle", "server.handle_us", "server.self_us"},
		{"coord.handle", "coord.handle_us", "coord.self_us"},
	} {
		v, ok := x.meanOf(l.span, 1e3, x.dur)
		set(l.dur, v, ok)
		v, ok = x.meanOf(l.span, 1e3, x.self)
		set(l.self, v, ok)
	}
	v, ok := x.meanOf("coord.rpc", 1e3, x.dur)
	set("coord.rpc_us", v, ok)
	// The gap of a shard RPC is what the round trip costs beyond the
	// shard's own handling: the HTTP stack and the loopback, both ways.
	v, ok = x.meanOf("coord.rpc", 1e3, func(i int) int64 {
		gap := x.dur(i)
		for _, k := range x.kidsNamed(x.spans[i].ID, "server.handle") {
			gap -= x.dur(k)
		}
		return gap
	})
	set("coord.rpc_gap_us", v, ok)
	if n := len(x.byName["coord.handle"]); n > 0 {
		out["coord.rpcs_per_query"] = float64(len(x.byName["coord.rpc"])) / float64(n)
		// Phase 1 of a k-NN query is the home group's RPC, which must
		// return before the rest are sent.
		var phase1, total int64
		for _, h := range x.byName["coord.handle"] {
			if x.spans[h].Attr != "/v1/knn" {
				continue
			}
			total += x.dur(h)
			rpcs := x.kidsNamed(x.spans[h].ID, "coord.rpc")
			if len(rpcs) >= 2 && x.spans[rpcs[0]].End <= x.spans[rpcs[1]].Start {
				phase1 += x.dur(rpcs[0])
			}
		}
		if total > 0 {
			out["coord.phase1_share"] = float64(phase1) / float64(total)
		}
	}

	v, ok = x.meanOf("engine.knn", 1e3, x.dur)
	set("engine.knn_us", v, ok)
	v, ok = x.meanOf("engine.range", 1e3, x.dur)
	set("engine.range_us", v, ok)
	if ids := x.byName["engine.batch"]; len(ids) > 0 {
		var sum int64
		items := 0
		for _, i := range ids {
			n, _ := strconv.Atoi(x.spans[i].Attr)
			sum += x.dur(i)
			items += n
		}
		if items > 0 {
			out["engine.batch_item_us"] = float64(sum) / float64(items) / 1e3
		}
	}
	if ids := x.byName["engine.knn"]; len(ids) > 0 {
		stage := map[string]int64{}
		var total int64
		var skew float64
		skewed := 0
		for _, i := range ids {
			total += x.dur(i)
			for _, k := range x.kids[x.spans[i].ID] {
				stage[x.spans[k].Name] += x.dur(k)
				if x.spans[k].Name != "engine.search" {
					continue
				}
				var sum, max int64
				disks := x.kidsNamed(x.spans[k].ID, "engine.search.disk")
				for _, d := range disks {
					sum += x.dur(d)
					if x.dur(d) > max {
						max = x.dur(d)
					}
				}
				if sum > 0 {
					skew += float64(max) * float64(len(disks)) / float64(sum)
					skewed++
				}
			}
		}
		for _, st := range []string{"plan", "search", "merge", "io", "record"} {
			out["engine."+st+"_share"] = float64(stage["engine."+st]) / float64(total)
		}
		if skewed > 0 {
			out["engine.search_skew"] = skew / float64(skewed)
		}
	}
	v, ok = x.meanOf("engine.insert", 1e3, x.dur)
	set("engine.insert_us", v, ok)
	v, ok = x.meanOf("engine.checkpoint", 1e9, x.dur)
	set("engine.checkpoint_s", v, ok)
	v, ok = x.meanOf("engine.reorganize", 1e9, x.dur)
	set("engine.reorg_s", v, ok)

	// What no layer's span covers of an operation is the residual.
	var opTime, opSelf int64
	for name, ids := range x.byName {
		if len(name) < 3 || name[:3] != "op." {
			continue
		}
		for _, i := range ids {
			opTime += x.dur(i)
			opSelf += x.self(i)
		}
	}
	if opTime > 0 {
		out["residual_share"] = float64(opSelf) / float64(opTime)
	}
	return out
}

// counterMetrics derives the per-layer metrics the public counters support:
// the change of Index.Metrics over a pass, server.Stats of every front and
// Coordinator.Metrics.
func counterMetrics(r *rig, before, after metrics.Snapshot, tr *tracer) layerSet {
	out := layerSet{"engine.balance": after.Balance}
	if appends := after.WALAppends - before.WALAppends; appends > 0 {
		out["wal.fsyncs_per_insert"] = float64(after.WALSyncs-before.WALSyncs) / float64(appends)
		out["wal.bytes_per_insert"] = float64(after.WALBytes-before.WALBytes) / float64(appends)
	}
	if len(r.fronts) > 0 {
		var queries, batches, rejected int64
		for _, f := range r.fronts {
			st := f.Stats()
			queries += st.CoalescedQueries
			batches += st.CoalescedBatches
			rejected += st.RejectedQueueFull + st.RejectedDraining + st.DeadlineExpired
		}
		out["server.rejected"] = float64(rejected)
		if batches > 0 {
			out["server.coalesce_batch_size"] = float64(queries) / float64(batches)
		}
	}
	if r.co != nil {
		m := r.co.Metrics()
		out["coord.shard_retries"] = float64(m.ShardRetries)
		// The shards count what the shipped bound pruned; they share the
		// rig's index, so its registry holds the cluster's total.
		if m.QueriesKNN > 0 {
			saved := after.PagesSavedByRemoteBound - before.PagesSavedByRemoteBound
			out["coord.remote_saved_pages_per_query"] = float64(saved) / float64(m.QueriesKNN)
		}
	}
	if n := tr.roundTrips.Load(); n > 0 {
		out["wire.req_bytes"] = float64(tr.reqBytes.Load()) / float64(n)
		out["wire.resp_bytes"] = float64(tr.respBytes.Load()) / float64(n)
	}
	return out
}

// costs are the deterministic page counts of a fixed set of k-NN queries,
// read from QueryStats in process.
type costs struct {
	pages, maxPages, searchPages, savedPages, simParallelMS float64
	approxSkipped                                           float64
	perDisk                                                 [][]int // PagesPerDisk of each query
}

// engineCosts asks the index each query exactly and with ε and averages
// what QueryStats reports.
func engineCosts(ix *parsearch.Index, queries [][]float64) (costs, error) {
	var c costs
	for _, q := range queries {
		_, st, err := ix.KNN(q, knnK)
		if err != nil {
			return c, err
		}
		c.pages += float64(st.TotalPages)
		c.maxPages += float64(st.MaxPages)
		c.searchPages += float64(st.SearchPages)
		c.savedPages += float64(st.PagesSavedByBound)
		c.simParallelMS += st.ParallelTime * 1e3
		c.perDisk = append(c.perDisk, st.PagesPerDisk)
		_, st, err = ix.KNNApprox(q, knnK, parsearch.Approx{Epsilon: epsilon})
		if err != nil {
			return c, err
		}
		c.approxSkipped += float64(st.PagesSkippedApprox)
	}
	n := float64(len(queries))
	c.pages /= n
	c.maxPages /= n
	c.searchPages /= n
	c.savedPages /= n
	c.simParallelMS /= n
	c.approxSkipped /= n
	return c, nil
}

func (c costs) layers() layerSet {
	out := layerSet{
		"engine.pages_per_knn":        c.pages,
		"engine.max_pages_per_knn":    c.maxPages,
		"engine.search_pages_per_knn": c.searchPages,
		"engine.saved_pages_per_knn":  c.savedPages,
		"engine.approx_pages_skipped": c.approxSkipped,
		"disk.sim_parallel_ms":        c.simParallelMS,
		"engine.bound_prune_ratio":    0,
	}
	if c.searchPages+c.savedPages > 0 {
		out["engine.bound_prune_ratio"] = c.savedPages / (c.searchPages + c.savedPages)
	}
	return out
}

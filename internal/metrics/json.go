package metrics

// The JSON codec of the registry: the text sibling of the binary
// MarshalBinary/UnmarshalBinary pair, so HTTP surfaces (/statusz, the
// bench harness) can emit and restore metrics without the binary
// format. Marshaling renders the same Snapshot the registry exposes;
// unmarshaling validates the snapshot with the same plausibility rules
// as the binary decoder before installing anything.

import (
	"encoding/json"
	"fmt"
)

// MarshalJSON encodes the registry's current values as its Snapshot.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}

// UnmarshalJSON decodes a Snapshot (as produced by MarshalJSON or by
// marshaling Snapshot directly) into the registry, replacing its
// values. Like UnmarshalBinary it validates structure (disk counts and
// bucket counts must match) and plausibility (no negative counters,
// histogram buckets must sum to the count) before installing, so a
// corrupted document is rejected rather than half-applied. Derived
// fields (Balance, histogram means) are ignored on input.
func (r *Registry) UnmarshalJSON(data []byte) error {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("metrics: decoding JSON: %w", err)
	}
	return r.Install(s)
}

// Install validates a snapshot against the registry's shape and
// replaces the registry's values with it. It is the common install
// path of the JSON codec and of programmatic restores.
func (r *Registry) Install(s Snapshot) error {
	scalars := []struct {
		name string
		v    int64
		dst  *Counter
	}{
		{"queries_knn", s.QueriesKNN, &r.QueriesKNN},
		{"queries_range", s.QueriesRange, &r.QueriesRange},
		{"queries_batch", s.QueriesBatch, &r.QueriesBatch},
		{"batch_queries", s.BatchQueries, &r.BatchQueries},
		{"query_errors", s.QueryErrors, &r.QueryErrors},
		{"degraded_queries", s.DegradedQueries, &r.DegradedQueries},
		{"pages_read", s.PagesRead, &r.PagesRead},
		{"cells_visited", s.CellsVisited, &r.CellsVisited},
		{"node_visits", s.NodeVisits, &r.NodeVisits},
		{"retries", s.Retries, &r.Retries},
		{"rerouted", s.Rerouted, &r.Rerouted},
		{"unreachable", s.Unreachable, &r.Unreachable},
		{"search_pages", s.SearchPages, &r.SearchPages},
		{"pages_saved_by_bound", s.PagesSavedByBound, &r.PagesSavedByBound},
		{"approx_queries", s.ApproxQueries, &r.ApproxQueries},
		{"pages_skipped_approx", s.PagesSkippedApprox, &r.PagesSkippedApprox},
	}
	for _, c := range scalars {
		if err := nonNegative(c.name, c.v); err != nil {
			return err
		}
	}
	perDisk := []struct {
		name string
		vals []int64
		dst  *PerDisk
	}{
		{"pages_per_disk", s.PagesPerDisk, r.PagesPerDisk},
		{"service_time_per_disk_ns", s.ServiceTimePerDiskNs, r.ServiceTimePerDisk},
	}
	for _, p := range perDisk {
		if len(p.vals) != r.Disks() {
			return fmt.Errorf("metrics: %s has %d entries, registry has %d disks",
				p.name, len(p.vals), r.Disks())
		}
		for _, v := range p.vals {
			if err := nonNegative(p.name, v); err != nil {
				return err
			}
		}
	}
	hists := []struct {
		name string
		s    HistogramSnapshot
		dst  *Histogram
	}{
		{"query_pages", s.QueryPages, &r.QueryPages},
		{"query_time_ns", s.QueryTimeNs, &r.QueryTimeNs},
		{"query_wall_ns", s.QueryWallNs, &r.QueryWallNs},
	}
	for _, h := range hists {
		if h.s.Buckets == nil && h.s.Count == 0 && h.s.Sum == 0 {
			// Histogram absent from an older document: installs as zeros.
			continue
		}
		if len(h.s.Buckets) != HistBuckets {
			return fmt.Errorf("metrics: %s has %d buckets, want %d",
				h.name, len(h.s.Buckets), HistBuckets)
		}
		if err := nonNegative(h.name+" sum", h.s.Sum); err != nil {
			return err
		}
		var total int64
		for _, b := range h.s.Buckets {
			if err := nonNegative(h.name+" bucket", b); err != nil {
				return err
			}
			total += b
		}
		if total != h.s.Count {
			return fmt.Errorf("metrics: %s buckets sum to %d, count says %d",
				h.name, total, h.s.Count)
		}
	}

	// Everything validated — install.
	for _, c := range scalars {
		c.dst.v.Store(c.v)
	}
	for _, p := range perDisk {
		for i, v := range p.vals {
			p.dst.vals[i].Store(v)
		}
	}
	for _, h := range hists {
		h.dst.count.Store(h.s.Count)
		h.dst.sum.Store(h.s.Sum)
		for i := range h.dst.buckets {
			var v int64
			if i < len(h.s.Buckets) {
				v = h.s.Buckets[i]
			}
			h.dst.buckets[i].Store(v)
		}
	}
	return nil
}

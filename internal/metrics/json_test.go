package metrics

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// populate fills a registry with a deterministic non-trivial shape.
func populate(r *Registry) {
	r.QueriesKNN.Add(7)
	r.QueriesRange.Add(3)
	r.QueriesBatch.Inc()
	r.BatchQueries.Add(12)
	r.QueryErrors.Add(2)
	r.DegradedQueries.Inc()
	r.PagesRead.Add(4096)
	r.CellsVisited.Add(511)
	r.NodeVisits.Add(9000)
	r.Retries.Add(4)
	r.Rerouted.Add(17)
	r.Unreachable.Add(1)
	r.SearchPages.Add(321)
	r.PagesSavedByBound.Add(45)
	for d := 0; d < r.Disks(); d++ {
		r.PagesPerDisk.Add(d, int64(10+d))
		r.ServiceTimePerDisk.Add(d, int64(1e6*(d+1)))
	}
	for _, v := range []int64{0, 1, 2, 3, 100, 1 << 20} {
		r.QueryPages.Observe(v)
		r.QueryTimeNs.Observe(v * 1000)
	}
}

func TestRegistryJSONRoundTrip(t *testing.T) {
	r := NewRegistry(4)
	populate(r)

	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewRegistry(4)
	if err := json.Unmarshal(blob, fresh); err != nil {
		t.Fatal(err)
	}
	if got, want := fresh.Snapshot(), r.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip snapshot mismatch:\n got %+v\nwant %+v", got, want)
	}

	// The JSON form matches the Snapshot's own encoding, so consumers
	// can decode either interchangeably.
	snapBlob, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(snapBlob) {
		t.Errorf("Registry JSON differs from Snapshot JSON")
	}

	// A document written while the LSH and SQ8 pre-filters, the shared
	// fan-out bound and the two-round cluster k-NN existed still carries
	// the first's histogram and the others' counters; today's snapshot
	// has none of the keys, and the old document installs with all of
	// them ignored.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["lsh_probe_pages"]; ok {
		t.Error("snapshot JSON still has lsh_probe_pages")
	}
	if _, ok := doc["dist_comps_saved"]; ok {
		t.Error("snapshot JSON still has dist_comps_saved")
	}
	if _, ok := doc["bound_tightenings"]; ok {
		t.Error("snapshot JSON still has bound_tightenings")
	}
	if _, ok := doc["remote_bound_tightenings"]; ok {
		t.Error("snapshot JSON still has remote_bound_tightenings")
	}
	doc["lsh_probe_pages"] = doc["query_pages"]
	doc["dist_comps_saved"] = json.RawMessage("123")
	doc["bound_tightenings"] = json.RawMessage("6")
	doc["remote_bound_tightenings"] = json.RawMessage("4")
	oldBlob, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	fromOld := NewRegistry(4)
	if err := json.Unmarshal(oldBlob, fromOld); err != nil {
		t.Fatalf("document with the retired keys: %v", err)
	}
	if !reflect.DeepEqual(fromOld.Snapshot(), r.Snapshot()) {
		t.Error("document with the retired keys installed differently")
	}

	// The binary codec sees the same values, anchoring the two formats
	// to each other.
	bin, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	viaBinary := NewRegistry(4)
	if err := viaBinary.UnmarshalBinary(bin); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaBinary.Snapshot(), fresh.Snapshot()) {
		t.Errorf("binary and JSON round-trips disagree")
	}
}

func TestRegistryJSONRejectsCorruption(t *testing.T) {
	r := NewRegistry(4)
	populate(r)
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(s *Snapshot)
	}{
		{"negative counter", func(s *Snapshot) { s.PagesRead = -1 }},
		{"wrong disk count", func(s *Snapshot) { s.PagesPerDisk = s.PagesPerDisk[:2] }},
		{"negative per-disk", func(s *Snapshot) { s.ServiceTimePerDiskNs[1] = -5 }},
		{"bucket count mismatch", func(s *Snapshot) { s.QueryPages.Buckets = s.QueryPages.Buckets[:3] }},
		{"bucket sum mismatch", func(s *Snapshot) { s.QueryPages.Count += 3 }},
		{"negative bucket", func(s *Snapshot) {
			s.QueryTimeNs.Buckets[0] = -1
			s.QueryTimeNs.Count -= 2 // keep the sum consistent-looking
		}},
	}
	for _, tc := range cases {
		var s Snapshot
		if err := json.Unmarshal(blob, &s); err != nil {
			t.Fatal(err)
		}
		tc.mutate(&s)
		bad, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		dst := NewRegistry(4)
		if err := json.Unmarshal(bad, dst); err == nil {
			t.Errorf("%s: corrupted snapshot accepted", tc.name)
		}
		// Nothing may have been installed by the failed decode.
		if got := dst.Snapshot(); got.PagesRead != 0 || got.QueriesKNN != 0 {
			t.Errorf("%s: failed decode left values behind: %+v", tc.name, got)
		}
	}

	dst := NewRegistry(4)
	if err := json.Unmarshal([]byte(`{"pages_read": "no"}`), dst); err == nil ||
		!strings.Contains(err.Error(), "metrics:") {
		t.Errorf("malformed JSON: err = %v, want a metrics decode error", err)
	}
}

package wire

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestDecodeKNN(t *testing.T) {
	req, err := DecodeKNN([]byte(`{"query":[0.1,0.2,0.3],"k":5}`), 3)
	if err != nil {
		t.Fatal(err)
	}
	if req.K != 5 || len(req.Query) != 3 {
		t.Fatalf("decoded %+v", req)
	}

	bad := []string{
		`{"query":[0.1,0.2],"k":5}`,     // wrong dim
		`{"query":[0.1,0.2,0.3],"k":0}`, // k < 1
		`{"query":[0.1,0.2,0.3]}`,       // k missing
		`{"query":[1e999,0,0],"k":1}`,   // overflows float64
		`{`,                             // malformed
		`[]`,                            // wrong shape
	}
	for _, body := range bad {
		if _, err := DecodeKNN([]byte(body), 3); err == nil {
			t.Errorf("DecodeKNN(%q) accepted", body)
		}
	}
}

func TestDecodeApproxKnobs(t *testing.T) {
	// A knob present and in range decodes to a set pointer; an absent
	// knob stays nil so the server can distinguish "omitted" (index
	// default) from an explicit zero.
	req, err := DecodeKNN([]byte(`{"query":[0.1,0.2,0.3],"k":5,"epsilon":0.5}`), 3)
	if err != nil {
		t.Fatal(err)
	}
	if req.Epsilon == nil || *req.Epsilon != 0.5 {
		t.Fatalf("epsilon decoded as %v", req.Epsilon)
	}
	plain, err := DecodeKNN([]byte(`{"query":[0.1,0.2,0.3],"k":5}`), 3)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Epsilon != nil {
		t.Fatalf("absent knob decoded non-nil: %+v", plain)
	}
	// An explicit zero is valid (exact search) and distinct from nil.
	zero, err := DecodeKNN([]byte(`{"query":[0.1,0.2,0.3],"k":5,"epsilon":0}`), 3)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Epsilon == nil || *zero.Epsilon != 0 {
		t.Fatalf("explicit exact knob decoded as %+v", zero)
	}

	bad := []string{
		`{"query":[0.1,0.2,0.3],"k":5,"epsilon":-0.1}`,  // negative ε
		`{"query":[0.1,0.2,0.3],"k":5,"epsilon":1e7}`,   // past the 1e6 cap
		`{"query":[0.1,0.2,0.3],"k":5,"epsilon":1e999}`, // overflows to +Inf
		`{"query":[0.1,0.2,0.3],"k":5,"epsilon":"NaN"}`, // non-numeric
	}
	for _, body := range bad {
		if _, err := DecodeKNN([]byte(body), 3); err == nil {
			t.Errorf("DecodeKNN(%q) accepted", body)
		}
		batch := strings.Replace(body, `"query":[0.1,0.2,0.3]`, `"queries":[[0.1,0.2,0.3]]`, 1)
		if _, err := DecodeBatch([]byte(batch), 3, 0); err == nil {
			t.Errorf("DecodeBatch(%q) accepted", batch)
		}
	}
}

func TestDecodeClusterFields(t *testing.T) {
	// Coordinator-issued requests carry the cross-network bound and the
	// shard restriction; both decode to set pointers, and absent fields
	// stay nil so a shard daemon can distinguish "plain client" from
	// "coordinator fan-out".
	req, err := DecodeKNN([]byte(`{"query":[0.1,0.2,0.3],"k":5,"bound":1.5,"shard":{"of":3,"groups":[0,2]}}`), 3)
	if err != nil {
		t.Fatal(err)
	}
	if req.Bound == nil || *req.Bound != 1.5 {
		t.Fatalf("bound decoded as %v", req.Bound)
	}
	if req.Shard == nil || req.Shard.Of != 3 || len(req.Shard.Groups) != 2 {
		t.Fatalf("shard decoded as %+v", req.Shard)
	}
	plain, err := DecodeKNN([]byte(`{"query":[0.1,0.2,0.3],"k":5}`), 3)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Bound != nil || plain.Shard != nil {
		t.Fatalf("absent cluster fields decoded non-nil: %+v", plain)
	}
	// A bound of zero is legitimate (k duplicates of the query point
	// already in hand) and distinct from nil.
	zero, err := DecodeKNN([]byte(`{"query":[0.1,0.2,0.3],"k":5,"bound":0}`), 3)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Bound == nil || *zero.Bound != 0 {
		t.Fatalf("explicit zero bound decoded as %v", zero.Bound)
	}

	bad := []string{
		`{"query":[0.1,0.2,0.3],"k":5,"bound":-1}`,                        // negative distance
		`{"query":[0.1,0.2,0.3],"k":5,"bound":1e999}`,                     // overflows to +Inf
		`{"query":[0.1,0.2,0.3],"k":5,"bound":"NaN"}`,                     // non-numeric
		`{"query":[0.1,0.2,0.3],"k":5,"shard":{"of":0,"groups":[0]}}`,     // no groups exist
		`{"query":[0.1,0.2,0.3],"k":5,"shard":{"of":-2,"groups":[0]}}`,    // negative group count
		`{"query":[0.1,0.2,0.3],"k":5,"shard":{"of":5000,"groups":[0]}}`,  // past the of cap
		`{"query":[0.1,0.2,0.3],"k":5,"shard":{"of":3,"groups":[]}}`,      // selects nothing
		`{"query":[0.1,0.2,0.3],"k":5,"shard":{"of":3}}`,                  // groups missing
		`{"query":[0.1,0.2,0.3],"k":5,"shard":{"of":3,"groups":[3]}}`,     // group out of range
		`{"query":[0.1,0.2,0.3],"k":5,"shard":{"of":3,"groups":[-1]}}`,    // negative group
		`{"query":[0.1,0.2,0.3],"k":5,"shard":{"of":3,"groups":[1,1]}}`,   // duplicate group
		`{"query":[0.1,0.2,0.3],"k":5,"shard":{"of":2,"groups":[0,1,0]}}`, // more groups than of
	}
	for _, body := range bad {
		if _, err := DecodeKNN([]byte(body), 3); err == nil {
			t.Errorf("DecodeKNN(%q) accepted", body)
		}
		batch := strings.Replace(body, `"query":[0.1,0.2,0.3]`, `"queries":[[0.1,0.2,0.3]]`, 1)
		if _, err := DecodeBatch([]byte(batch), 3, 0); err == nil {
			t.Errorf("DecodeBatch(%q) accepted", batch)
		}
	}

	// Range and partial-match carry the shard restriction too.
	rr, err := DecodeRange([]byte(`{"min":[0,0,0],"max":[1,1,1],"shard":{"of":2,"groups":[1]}}`), 3)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Shard == nil || rr.Shard.Of != 2 {
		t.Fatalf("range shard decoded as %+v", rr.Shard)
	}
	if _, err := DecodeRange([]byte(`{"min":[0,0,0],"max":[1,1,1],"shard":{"of":2,"groups":[2]}}`), 3); err == nil {
		t.Error("range with out-of-range shard group accepted")
	}
	pm, err := DecodePartialMatch([]byte(`{"spec":[0.5,null,0.25],"eps":0.1,"shard":{"of":4,"groups":[0,3]}}`), 3)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Shard == nil || len(pm.Shard.Groups) != 2 {
		t.Fatalf("partial-match shard decoded as %+v", pm.Shard)
	}
	if _, err := DecodePartialMatch([]byte(`{"spec":[0.5,null,0.25],"eps":0.1,"shard":{"of":4,"groups":[]}}`), 3); err == nil {
		t.Error("partial-match with empty shard groups accepted")
	}
}

func TestDecodeForwardCompat(t *testing.T) {
	// The cluster fields ride on the forward-compatibility contract of
	// the codec: encoding/json discards unknown object keys, so a server
	// predating "bound"/"shard" serves a coordinator-issued request as a
	// plain unrestricted query instead of rejecting it. Simulate that
	// old decoder with a pre-cluster request shape.
	type legacyKNN struct {
		Query []float64 `json:"query"`
		K     int       `json:"k"`
	}
	body := []byte(`{"query":[0.1,0.2,0.3],"k":5,"bound":1.5,"shard":{"of":3,"groups":[0,2]}}`)
	var old legacyKNN
	if err := json.Unmarshal(body, &old); err != nil {
		t.Fatalf("old-shape decode rejected new fields: %v", err)
	}
	if old.K != 5 || len(old.Query) != 3 {
		t.Fatalf("old-shape decode corrupted known fields: %+v", old)
	}

	// And the reverse direction: today's decoder must tolerate keys it
	// has never heard of, so the next protocol extension can ship
	// without a lockstep upgrade.
	future := []byte(`{"query":[0.1,0.2,0.3],"k":5,"future_knob":{"depth":7},"hints":["a","b"]}`)
	req, err := DecodeKNN(future, 3)
	if err != nil {
		t.Fatalf("decoder rejected unknown fields: %v", err)
	}
	if req.K != 5 || req.Bound != nil || req.Shard != nil {
		t.Fatalf("unknown fields bled into request: %+v", req)
	}
	// recall_target was a knob once (the deleted LSH pre-filter's probe
	// cap, range-checked to [0, 1]); it is an unknown field now. Whatever
	// an old client puts there — in range, out of range, another JSON
	// type, null — decodes and is ignored, and the epsilon beside it is
	// still honoured and still range-checked.
	for _, rt := range []string{`0.9`, `7`, `"x"`, `null`} {
		knn := `{"query":[0.1,0.2,0.3],"k":5,"epsilon":0.25,"recall_target":` + rt + `}`
		req, err := DecodeKNN([]byte(knn), 3)
		if err != nil {
			t.Fatalf("DecodeKNN(%s): %v", knn, err)
		}
		if req.K != 5 || len(req.Query) != 3 || req.Bound != nil || req.Shard != nil ||
			req.Epsilon == nil || *req.Epsilon != 0.25 {
			t.Errorf("DecodeKNN(%s) = %+v, want only query, k and epsilon 0.25", knn, req)
		}
		batch := `{"queries":[[0.1,0.2,0.3]],"k":5,"epsilon":0.25,"recall_target":` + rt + `}`
		if breq, err := DecodeBatch([]byte(batch), 3, 0); err != nil || breq.Epsilon == nil || *breq.Epsilon != 0.25 {
			t.Errorf("DecodeBatch(%s) = %+v, %v, want epsilon 0.25", batch, breq, err)
		}
		refused := `{"query":[0.1,0.2,0.3],"k":5,"epsilon":-1,"recall_target":` + rt + `}`
		if _, err := DecodeKNN([]byte(refused), 3); err == nil {
			t.Errorf("DecodeKNN(%s) accepted a negative epsilon", refused)
		}
	}
	for op, body := range map[string]string{
		OpRange:        `{"min":[0,0,0],"max":[1,1,1],"future_knob":1}`,
		OpPartialMatch: `{"spec":[0.5,null,null],"eps":0.1,"future_knob":1}`,
		OpBatch:        `{"queries":[[0,1,0]],"k":1,"future_knob":1}`,
	} {
		if _, err := DecodeQueryRequest(op, []byte(body), 3); err != nil {
			t.Errorf("%s: decoder rejected unknown field: %v", op, err)
		}
	}
}

func TestDecodeRange(t *testing.T) {
	if _, err := DecodeRange([]byte(`{"min":[0,0],"max":[1,1]}`), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRange([]byte(`{"min":[1,0],"max":[0,1]}`), 2); err == nil ||
		!strings.Contains(err.Error(), "min > max") {
		t.Errorf("inverted bounds: err = %v", err)
	}
	if _, err := DecodeRange([]byte(`{"min":[0],"max":[1,1]}`), 2); err == nil {
		t.Error("short min accepted")
	}
}

func TestDecodePartialMatch(t *testing.T) {
	req, err := DecodePartialMatch([]byte(`{"spec":[0.5,null,0.25],"eps":0.1}`), 3)
	if err != nil {
		t.Fatal(err)
	}
	if req.Spec[1] != nil || req.Spec[0] == nil || *req.Spec[0] != 0.5 {
		t.Fatalf("decoded spec %v", req.Spec)
	}

	bad := []string{
		`{"spec":[null,null,null],"eps":0.1}`, // no specified dimension
		`{"spec":[0.5,null],"eps":0.1}`,       // wrong dim
		`{"spec":[0.5,null,0.2],"eps":-1}`,    // negative eps
	}
	for _, body := range bad {
		if _, err := DecodePartialMatch([]byte(body), 3); err == nil {
			t.Errorf("DecodePartialMatch(%q) accepted", body)
		}
	}
}

func TestDecodeBatch(t *testing.T) {
	req, err := DecodeBatch([]byte(`{"queries":[[0,1],[1,0]],"k":2}`), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Queries) != 2 {
		t.Fatalf("decoded %+v", req)
	}
	if _, err := DecodeBatch([]byte(`{"queries":[[0,1],[1,0],[0,0]],"k":2}`), 2, 2); err == nil {
		t.Error("over-limit batch accepted")
	}
	if _, err := DecodeBatch([]byte(`{"queries":[],"k":2}`), 2, 0); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := DecodeBatch([]byte(`{"queries":[[0,1],[1]],"k":2}`), 2, 0); err == nil {
		t.Error("ragged batch accepted")
	}
}

func TestDecodeQueryRequestDispatch(t *testing.T) {
	if _, err := DecodeQueryRequest(OpKNN, []byte(`{"query":[0.1,0.2],"k":1}`), 2); err != nil {
		t.Errorf("knn dispatch: %v", err)
	}
	if _, err := DecodeQueryRequest("nope", []byte(`{}`), 2); err == nil {
		t.Error("unknown op accepted")
	}
}

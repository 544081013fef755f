package wire

import (
	"math"
	"testing"
)

// FuzzDecodeQueryRequest drives the serving layer's request decoder
// with arbitrary operation names and bodies. The decoder must never
// panic, and every accepted request must satisfy the invariants the
// engine relies on: exact dimensionality, finite components, positive
// k, ordered range bounds, at least one specified partial-match
// dimension. A NaN/Inf smuggled past validation would poison the
// priority queues of the k-NN search; a dimension mismatch would index
// out of bounds.
func FuzzDecodeQueryRequest(f *testing.F) {
	seeds := []struct {
		op   string
		body string
	}{
		{OpKNN, `{"query":[0.1,0.2,0.3],"k":5}`},
		{OpKNN, `{"query":[0.1,0.2],"k":5}`},
		{OpKNN, `{"query":[1e999,0,0],"k":1}`},
		{OpKNN, `{"query":["NaN",0,0],"k":1}`},
		{OpKNN, `{"query":[0.1,0.2,0.3],"k":5,"epsilon":0.5,"recall_target":0.9}`},
		{OpKNN, `{"query":[0.1,0.2,0.3],"k":5,"epsilon":-1}`},
		{OpKNN, `{"query":[0.1,0.2,0.3],"k":5,"epsilon":1e999}`},
		{OpKNN, `{"query":[0.1,0.2,0.3],"k":5,"recall_target":2}`},
		{OpBatch, `{"queries":[[0,1,0]],"k":1,"epsilon":0.1,"recall_target":0.5}`},
		{OpBatch, `{"queries":[[0,1,0]],"k":1,"recall_target":-0.5}`},
		{OpRange, `{"min":[0,0,0],"max":[1,1,1]}`},
		{OpRange, `{"min":[1,0,0],"max":[0,1,1]}`},
		{OpPartialMatch, `{"spec":[0.5,null,0.25],"eps":0.1}`},
		{OpPartialMatch, `{"spec":[null,null,null],"eps":0.1}`},
		{OpBatch, `{"queries":[[0,1,0],[1,0,1]],"k":2}`},
		{OpBatch, `{"queries":[[0,1,0],[1,0]],"k":2}`},
		{OpKNN, `{"query":[0.1,0.2,0.3],"k":5,"bound":1.5,"shard":{"of":3,"groups":[0,2]}}`},
		{OpKNN, `{"query":[0.1,0.2,0.3],"k":5,"bound":-1}`},
		{OpKNN, `{"query":[0.1,0.2,0.3],"k":5,"bound":1e999}`},
		{OpKNN, `{"query":[0.1,0.2,0.3],"k":5,"shard":{"of":0,"groups":[0]}}`},
		{OpKNN, `{"query":[0.1,0.2,0.3],"k":5,"shard":{"of":3,"groups":[]}}`},
		{OpKNN, `{"query":[0.1,0.2,0.3],"k":5,"shard":{"of":3,"groups":[3]}}`},
		{OpKNN, `{"query":[0.1,0.2,0.3],"k":5,"shard":{"of":3,"groups":[1,1]}}`},
		{OpRange, `{"min":[0,0,0],"max":[1,1,1],"shard":{"of":2,"groups":[1]}}`},
		{OpPartialMatch, `{"spec":[0.5,null,0.25],"eps":0.1,"shard":{"of":4,"groups":[0,1,2,3]}}`},
		{OpBatch, `{"queries":[[0,1,0]],"k":1,"bound":0,"shard":{"of":2,"groups":[0]}}`},
		{"nope", `{}`},
		{OpKNN, `{`},
		{OpKNN, `[]`},
		{OpKNN, `null`},
	}
	for _, s := range seeds {
		f.Add(s.op, []byte(s.body))
	}
	const dim = 3
	f.Fuzz(func(t *testing.T, op string, body []byte) {
		v, err := DecodeQueryRequest(op, body, dim)
		if err != nil {
			return
		}
		checkFinite := func(name string, vec []float64) {
			if len(vec) != dim {
				t.Fatalf("%s: accepted dimension %d, want %d (body %q)", name, len(vec), dim, body)
			}
			for _, x := range vec {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("%s: accepted non-finite component (body %q)", name, body)
				}
			}
		}
		checkApproxKnob := func(epsilon *float64) {
			// An accepted knob must be usable verbatim by the engine: a
			// NaN or out-of-range value smuggled past validation would
			// corrupt the termination shrink factor.
			if epsilon != nil {
				if e := *epsilon; math.IsNaN(e) || e < 0 || e > 1e6 {
					t.Fatalf("accepted epsilon %v (body %q)", e, body)
				}
			}
		}
		checkCluster := func(bound *float64, shard *ShardSpec) {
			// Accepted cluster knobs must satisfy what the engine's
			// ShardSpec.validate and Approx bound check require, so a
			// shard daemon never rejects a request the wire layer let
			// through for structural reasons.
			if bound != nil {
				if b := *bound; math.IsNaN(b) || math.IsInf(b, 0) || b < 0 {
					t.Fatalf("accepted bound %v (body %q)", b, body)
				}
			}
			if shard != nil {
				if shard.Of < 1 || len(shard.Groups) == 0 {
					t.Fatalf("accepted shard spec %+v (body %q)", *shard, body)
				}
				seen := make(map[int]bool)
				for _, g := range shard.Groups {
					if g < 0 || g >= shard.Of || seen[g] {
						t.Fatalf("accepted shard group %d of %+v (body %q)", g, *shard, body)
					}
					seen[g] = true
				}
			}
		}
		switch req := v.(type) {
		case KNNRequest:
			checkFinite("knn query", req.Query)
			if req.K < 1 {
				t.Fatalf("accepted k = %d (body %q)", req.K, body)
			}
			checkApproxKnob(req.Epsilon)
			checkCluster(req.Bound, req.Shard)
		case RangeRequest:
			checkFinite("range min", req.Min)
			checkFinite("range max", req.Max)
			for i := range req.Min {
				if req.Min[i] > req.Max[i] {
					t.Fatalf("accepted inverted bounds (body %q)", body)
				}
			}
			checkCluster(nil, req.Shard)
		case PartialMatchRequest:
			if len(req.Spec) != dim {
				t.Fatalf("accepted spec dimension %d (body %q)", len(req.Spec), body)
			}
			specified := 0
			for _, p := range req.Spec {
				if p == nil {
					continue
				}
				specified++
				if math.IsNaN(*p) || math.IsInf(*p, 0) {
					t.Fatalf("accepted non-finite spec component (body %q)", body)
				}
			}
			if specified == 0 {
				t.Fatalf("accepted all-wildcard spec (body %q)", body)
			}
			if math.IsNaN(req.Eps) || req.Eps < 0 {
				t.Fatalf("accepted eps %v (body %q)", req.Eps, body)
			}
			checkCluster(nil, req.Shard)
		case BatchRequest:
			if len(req.Queries) == 0 || req.K < 1 {
				t.Fatalf("accepted empty batch or k = %d (body %q)", req.K, body)
			}
			for _, q := range req.Queries {
				checkFinite("batch query", q)
			}
			checkApproxKnob(req.Epsilon)
			checkCluster(req.Bound, req.Shard)
		default:
			t.Fatalf("decoder returned unknown type %T", v)
		}
	})
}

package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// appender is what both response bodies implement.
type appender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// checkAppend asserts AppendJSON agrees with json.Marshal on v: the same
// bytes, or both refuse. It appends behind a prefix, as the server's
// pooled buffer does.
func checkAppend(t *testing.T, name string, v appender) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	got, err := v.AppendJSON([]byte("prefix"))
	if (err != nil) != (wantErr != nil) {
		t.Errorf("%s: AppendJSON err = %v, json.Marshal err = %v", name, err, wantErr)
		return
	}
	if err == nil && string(got) != "prefix"+string(want) {
		t.Errorf("%s: encodings differ\nAppendJSON:   %s\njson.Marshal: %s", name, got[len("prefix"):], want)
	}
}

// edgeFloats are the values on both sides of every branch of
// encoding/json's float formatting, plus the ones JSON cannot carry.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.25, 0.1, 1.0 / 3, 123456789.125,
	1e-6, 9.999999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 1.234e-100, 1e-300,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, // denormal, smallest normal
	1e20, 9.99999e20, 1e21, -1e21, 1.5e21, 1e100, math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// TestAppendJSONMatchesMarshal is the byte-identity table of the response
// codec: one wire format, so whatever encoding/json emits for a response
// value AppendJSON emits too, and what it refuses AppendJSON refuses.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	stats := []json.RawMessage{nil, {}, json.RawMessage(`{}`), json.RawMessage(`{"TotalPages":7,"Degraded":false,"PagesPerDisk":[1,2]}`)}
	for si, st := range stats {
		name := "stats#" + strconv.Itoa(si)
		checkAppend(t, name+"/nil neighbors", QueryResponse{Stats: st})
		checkAppend(t, name+"/empty neighbors", QueryResponse{Neighbors: []Neighbor{}, Stats: st})
		checkAppend(t, name+"/nil and empty points", QueryResponse{Stats: st, Neighbors: []Neighbor{
			{ID: 0}, {ID: -3, Point: []float64{}, Dist: 2}, {ID: math.MaxInt64, Point: []float64{1}, Dist: 0.5}, {ID: math.MinInt64},
		}})
		checkAppend(t, name+"/nil batch", BatchResponse{Stats: st})
		checkAppend(t, name+"/empty batch", BatchResponse{Results: [][]Neighbor{}, Stats: st})
		checkAppend(t, name+"/batch with nil and empty items", BatchResponse{Stats: st, Results: [][]Neighbor{
			nil, {}, {{ID: 1, Point: []float64{0.5, 0.25}, Dist: 0.125}}, nil,
		}})
	}
	for _, f := range edgeFloats {
		name := strconv.FormatFloat(f, 'g', -1, 64)
		asDist := []Neighbor{{ID: 1, Point: []float64{0.5}, Dist: f}}
		asCoord := []Neighbor{{ID: 2, Point: []float64{0.5, f, f}, Dist: 1}}
		checkAppend(t, "dist "+name, QueryResponse{Neighbors: asDist})
		checkAppend(t, "coordinate "+name, QueryResponse{Neighbors: asCoord})
		checkAppend(t, "batch dist "+name, BatchResponse{Results: [][]Neighbor{asDist, asDist}})
		checkAppend(t, "batch coordinate "+name, BatchResponse{Results: [][]Neighbor{nil, asCoord}})
	}
	// A non-finite distance travels as null; a non-finite coordinate has
	// no encoding, here as in encoding/json.
	if _, err := (QueryResponse{Neighbors: []Neighbor{{Dist: math.NaN()}}}).AppendJSON(nil); err != nil {
		t.Errorf("NaN distance refused: %v", err)
	}
	if _, err := (QueryResponse{Neighbors: []Neighbor{{Point: []float64{math.Inf(1)}}}}).AppendJSON(nil); err == nil {
		t.Error("infinite coordinate accepted")
	}
}

// randFloat draws from every float64 bit pattern half of the time (all
// exponents, denormals, NaN, ±Inf) and from the unit cube the data lives
// in the other half.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return rng.Float64()
	case 1:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	default:
		return math.Float64frombits(rng.Uint64())
	}
}

// randNeighbors draws a result set; finite keeps what json.Marshal
// refuses out of the coordinates.
func randNeighbors(rng *rand.Rand, finite bool) []Neighbor {
	if rng.Intn(8) == 0 {
		return nil
	}
	ns := make([]Neighbor, rng.Intn(5))
	for i := range ns {
		ns[i] = Neighbor{ID: int(rng.Uint64()), Dist: randFloat(rng)}
		if rng.Intn(8) > 0 {
			ns[i].Point = make([]float64, rng.Intn(6))
		}
		for j := range ns[i].Point {
			f := randFloat(rng)
			for finite && (math.IsNaN(f) || math.IsInf(f, 0)) {
				f = randFloat(rng)
			}
			ns[i].Point[j] = f
		}
	}
	return ns
}

func randStats(rng *rand.Rand) json.RawMessage {
	if rng.Intn(3) == 0 {
		return nil
	}
	b, _ := json.Marshal(map[string]any{"TotalPages": rng.Intn(100), "Speedup": rng.Float64(), "s": "<a&b>"})
	return b
}

// TestAppendJSONQuick drives the same comparison with testing/quick over
// generated responses, with and without unencodable coordinates.
func TestAppendJSONQuick(t *testing.T) {
	values := func(finite bool) func(args []reflect.Value, rng *rand.Rand) {
		return func(args []reflect.Value, rng *rand.Rand) {
			q := QueryResponse{Neighbors: randNeighbors(rng, finite), Stats: randStats(rng)}
			b := BatchResponse{Stats: randStats(rng)}
			if rng.Intn(8) > 0 {
				b.Results = make([][]Neighbor, rng.Intn(4))
				for i := range b.Results {
					b.Results[i] = randNeighbors(rng, finite)
				}
			}
			args[0], args[1] = reflect.ValueOf(q), reflect.ValueOf(b)
		}
	}
	same := func(v appender) bool {
		want, wantErr := json.Marshal(v)
		got, err := v.AppendJSON(nil)
		return (err != nil) == (wantErr != nil) && (err != nil || bytes.Equal(got, want))
	}
	for _, finite := range []bool{true, false} {
		cfg := &quick.Config{MaxCount: 2000, Values: values(finite)}
		if err := quick.Check(func(q QueryResponse, b BatchResponse) bool { return same(q) && same(b) }, cfg); err != nil {
			t.Errorf("finite=%v: %v", finite, err)
		}
	}
}

// TestAppendJSONWarmBufferAllocs pins what the pooled buffer buys: an
// encode into a buffer that already has the room allocates nothing.
func TestAppendJSONWarmBufferAllocs(t *testing.T) {
	q, b := benchResponses()
	buf := make([]byte, 0, 1<<16)
	for name, v := range map[string]appender{"query": q, "batch": b} {
		if n := testing.AllocsPerRun(100, func() { _, _ = v.AppendJSON(buf[:0]) }); n != 0 {
			t.Errorf("%s response: %v allocations per encode into a warm buffer, want 0", name, n)
		}
	}
}

// sameNeighbors is reflect.DeepEqual with a NaN distance equal to itself:
// nil stays apart from empty, for the slice and for every point.
func sameNeighbors(a, b []Neighbor) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		sameDist := x.Dist == y.Dist || math.IsNaN(x.Dist) && math.IsNaN(y.Dist)
		if x.ID != y.ID || !sameDist || !reflect.DeepEqual(x.Point, y.Point) {
			return false
		}
	}
	return true
}

func sameResults(a, b [][]Neighbor) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameNeighbors(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkDecode asserts the response decoders agree with json.Unmarshal on
// one body: the same value, or both reject.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	var wantQ QueryResponse
	wantErr := json.Unmarshal(body, &wantQ)
	gotQ, err := DecodeQueryResponse(body)
	if (err != nil) != (wantErr != nil) {
		t.Errorf("query %q: decoder err = %v, json.Unmarshal err = %v", body, err, wantErr)
	} else if err == nil && !(sameNeighbors(gotQ.Neighbors, wantQ.Neighbors) && reflect.DeepEqual(gotQ.Stats, wantQ.Stats)) {
		t.Errorf("query %q: decoded %+v, json.Unmarshal %+v", body, gotQ, wantQ)
	}
	var wantB BatchResponse
	wantErr = json.Unmarshal(body, &wantB)
	gotB, err := DecodeBatchResponse(body)
	if (err != nil) != (wantErr != nil) {
		t.Errorf("batch %q: decoder err = %v, json.Unmarshal err = %v", body, err, wantErr)
	} else if err == nil && !(sameResults(gotB.Results, wantB.Results) && reflect.DeepEqual(gotB.Stats, wantB.Stats)) {
		t.Errorf("batch %q: decoded %+v, json.Unmarshal %+v", body, gotB, wantB)
	}
}

// responseBodies are response shapes worth decoding both ways: valid,
// forward-compatible, null-ridden and malformed.
var responseBodies = []string{
	`{"neighbors":[{"id":1,"point":[0.5,0.25],"dist":0.125}],"stats":{"TotalPages":3}}`,
	`{"neighbors":null}`, `{"neighbors":[]}`, `{}`, `null`, `[]`, `{`, ``, `{"neighbors":5}`,
	`{"neighbors":[null,{"id":2,"point":null,"dist":null},{}]}`,
	`{"neighbors":[{"id":1,"point":[1,null,3],"dist":1e-7}],"stats":null}`,
	`{"neighbors":[{"id":1.5}]}`, `{"neighbors":[{"id":"1"}]}`, `{"neighbors":[5]}`, `{"neighbors":[[]]}`,
	`{"neighbors":[{"id":1,"point":[1e999],"dist":0}]}`, `{"neighbors":[{"id":1,"dist":"NaN"}]}`,
	`{"neighbors":[{"ID":7,"Point":[1],"DIST":2,"future":{"a":[1,2]}}],"future_top":[1,2],"stats":{"a": 1 }}`,
	`{"neighbors":[{"id":1,"id":2,"dist":3,"dist":null}]}`,
	`{"results":[[{"id":1,"point":[0.5],"dist":0.25}],null,[]],"stats":{"Queries":3}}`,
	`{"results":null}`, `{"results":[]}`, `{"results":[null]}`, `{"results":[[null]]}`, `{"results":[5]}`,
	`{"results":[[{"id":1,"point":[0.5],"dist":null,"future":1}]],"future_top":{}}`,
	`{"results":[[{"id":{}}]]}`, `{"results":{"a":1}}`,
	`{"neighbors":[{"id":1,"point":[0.5],"dist":0.25}],"results":[[{"id":2,"point":[],"dist":1e21}]]}`,
}

// corpusBodies returns every []byte value of the package's committed
// fuzz corpora (request bodies and whatever a fuzz run has minimized).
func corpusBodies(t *testing.T) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz corpus files (%v)", err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if lit, ok := strings.CutPrefix(line, "[]byte("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				out = append(out, []byte(s))
			}
		}
	}
	return out
}

// TestDecodeResponseMatchesUnmarshal pins the decoders to json.Unmarshal
// on the committed fuzz corpora, on the response shapes above and on the
// codec's own output.
func TestDecodeResponseMatchesUnmarshal(t *testing.T) {
	for _, body := range corpusBodies(t) {
		checkDecode(t, body)
	}
	for _, body := range responseBodies {
		checkDecode(t, []byte(body))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		q, _ := QueryResponse{Neighbors: randNeighbors(rng, true), Stats: randStats(rng)}.AppendJSON(nil)
		checkDecode(t, q)
		checkDecode(t, append(q, '\n'))
		b, _ := BatchResponse{Results: [][]Neighbor{randNeighbors(rng, true), randNeighbors(rng, true)}}.AppendJSON(nil)
		checkDecode(t, b)
		checkDecode(t, append(b, '\n'))
	}
}

// serverBodies are what the server's writeBody sends for the benchmark
// responses: AppendJSON's bytes and a newline.
func serverBodies() (query, batch []byte) {
	q, b := benchResponses()
	query, _ = q.AppendJSON(nil)
	batch, _ = b.AppendJSON(nil)
	return append(query, '\n'), append(batch, '\n')
}

// TestDecodeServerBodyAllocs pins that the server's bytes take the
// strict scan: one point slice per neighbor, one backing array for the
// neighbors and a copy of the stats. encoding/json's path costs 75
// allocations for the query body and over a thousand for the batch, so
// a body that falls back fails the ceiling.
func TestDecodeServerBodyAllocs(t *testing.T) {
	query, batch := serverBodies()
	if n := testing.AllocsPerRun(100, func() { _, _ = DecodeQueryResponse(query) }); n > 16 {
		t.Errorf("query body (k = 10, d = 16): %v allocations per decode, want <= 16", n)
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = DecodeBatchResponse(batch) }); n > 180 {
		t.Errorf("batch body (16 x k = 10, d = 16): %v allocations per decode, want <= 180", n)
	}
}

// FuzzResponseCodec is the differential fuzz of the response codec: the
// decoders against json.Unmarshal on any body, and AppendJSON against
// json.Marshal on whatever decodes.
func FuzzResponseCodec(f *testing.F) {
	for _, body := range responseBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
		// Stats is spliced verbatim, so normalize it as the server's
		// json.Marshal of the statistics would have.
		compact := func(raw json.RawMessage) json.RawMessage {
			b, _ := json.Marshal(raw)
			return b
		}
		if q, err := DecodeQueryResponse(body); err == nil {
			q.Stats = compact(q.Stats)
			checkAppend(t, "query", q)
		}
		if b, err := DecodeBatchResponse(body); err == nil {
			b.Stats = compact(b.Stats)
			checkAppend(t, "batch", b)
		}
	})
}

// benchResponses are the bodies of a k = 10, d = 16 k-NN and of a batch
// of 16 of them, the shapes the serve-mixed workload moves.
func benchResponses() (QueryResponse, BatchResponse) {
	rng := rand.New(rand.NewSource(42))
	stats, _ := json.Marshal(map[string]any{"TotalPages": 41, "MaxPages": 4, "Speedup": 10.25, "PagesPerDisk": make([]int, 16)})
	set := func() []Neighbor {
		ns := make([]Neighbor, 10)
		for i := range ns {
			ns[i] = Neighbor{ID: rng.Intn(1 << 20), Point: make([]float64, 16), Dist: rng.Float64()}
			for j := range ns[i].Point {
				ns[i].Point[j] = rng.Float64()
			}
		}
		return ns
	}
	b := BatchResponse{Results: make([][]Neighbor, 16), Stats: stats}
	for i := range b.Results {
		b.Results[i] = set()
	}
	return QueryResponse{Neighbors: set(), Stats: stats}, b
}

// BenchmarkResponseCodec is the pair behind the codec: encoding/json
// against AppendJSON into a reused buffer, json.Unmarshal against the
// strict decoder, on the same bytes. The +newline rows decode what the
// server sends, AppendJSON's bytes and a newline.
func BenchmarkResponseCodec(b *testing.B) {
	q, batch := benchResponses()
	qBody, _ := json.Marshal(q)
	bBody, _ := json.Marshal(batch)
	b.Run("encode/json.Marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = json.Marshal(q)
		}
	})
	b.Run("encode/AppendJSON", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, len(qBody))
		for i := 0; i < b.N; i++ {
			buf, _ = q.AppendJSON(buf[:0])
		}
	})
	b.Run("encode-batch16/json.Marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = json.Marshal(batch)
		}
	})
	b.Run("encode-batch16/AppendJSON", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, len(bBody))
		for i := 0; i < b.N; i++ {
			buf, _ = batch.AppendJSON(buf[:0])
		}
	})
	b.Run("decode/json.Unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r QueryResponse
			_ = json.Unmarshal(qBody, &r)
		}
	})
	b.Run("decode/DecodeQueryResponse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = DecodeQueryResponse(qBody)
		}
	})
	query, batchNL := serverBodies()
	b.Run("decode+newline/DecodeQueryResponse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = DecodeQueryResponse(query)
		}
	})
	b.Run("decode-batch16/json.Unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r BatchResponse
			_ = json.Unmarshal(bBody, &r)
		}
	})
	b.Run("decode-batch16/DecodeBatchResponse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = DecodeBatchResponse(bBody)
		}
	})
	b.Run("decode-batch16+newline/DecodeBatchResponse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = DecodeBatchResponse(batchNL)
		}
	})
}

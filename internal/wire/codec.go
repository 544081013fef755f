package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// The codec of the two query response bodies, the hot half of the wire
// format: a served k-NN spends more time in encoding/json than in
// anything but the engine. AppendJSON writes, without reflection and into
// the caller's buffer, exactly the bytes json.Marshal returns for the same
// value; the decoders unmarshal once into the plain JSON shape instead of
// re-parsing every neighbor through Neighbor.UnmarshalJSON. Both are
// called directly: behind MarshalJSON/UnmarshalJSON on the response types
// encoding/json would validate the output and pre-scan the input again,
// which costs what the codec saves.

// AppendJSON appends the JSON encoding of the response to dst and returns
// the extended buffer. Like json.Marshal it fails on a non-finite
// coordinate. Stats is spliced in verbatim, so it must be compact JSON as
// json.Marshal produces it.
func (r QueryResponse) AppendJSON(dst []byte) ([]byte, error) {
	dst, err := appendNeighbors(append(dst, `{"neighbors":`...), r.Neighbors)
	return appendStats(dst, r.Stats), err
}

// AppendJSON is QueryResponse.AppendJSON for a batch.
func (r BatchResponse) AppendJSON(dst []byte) ([]byte, error) {
	dst, err := appendList(append(dst, `{"results":`...), r.Results, appendNeighbors)
	return appendStats(dst, r.Stats), err
}

// appendStats closes a response object after its omitempty stats field.
func appendStats(dst []byte, stats json.RawMessage) []byte {
	if len(stats) > 0 {
		dst = append(append(dst, `,"stats":`...), stats...)
	}
	return append(dst, '}')
}

// appendList appends s as a JSON array, a nil slice as null.
func appendList[T any](dst []byte, s []T, elem func([]byte, T) ([]byte, error)) ([]byte, error) {
	if s == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, e := range s {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = elem(dst, e); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

func appendNeighbors(dst []byte, ns []Neighbor) ([]byte, error) {
	return appendList(dst, ns, appendNeighbor)
}

// appendNeighbor appends what Neighbor.MarshalJSON returns.
func appendNeighbor(dst []byte, n Neighbor) ([]byte, error) {
	dst = strconv.AppendInt(append(dst, `{"id":`...), int64(n.ID), 10)
	dst, err := appendList(append(dst, `,"point":`...), n.Point, appendCoord)
	if err != nil {
		return dst, err
	}
	if dst = append(dst, `,"dist":`...); finite(n.Dist) {
		dst = appendFloat(dst, n.Dist)
	} else {
		dst = append(dst, "null"...)
	}
	return append(dst, '}'), nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendCoord appends one point coordinate; JSON has no non-finite number
// and, unlike a distance, a coordinate has no null to travel as.
func appendCoord(dst []byte, f float64) ([]byte, error) {
	if !finite(f) {
		return dst, fmt.Errorf("wire: unsupported value: %v", f)
	}
	return appendFloat(dst, f), nil
}

// appendFloat appends a finite f by encoding/json's rule: the shortest
// digits that round-trip, positional except below 1e-6 and from 1e21,
// where the exponent form drops the zero of a negative exponent "e-0N".
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// The decoders read the bytes AppendJSON writes, and the newline the
// server's writeBody puts after them, in one strict scan with no
// reflection: fixed keys in fixed order, numbers parsed by strconv as
// encoding/json parses them, one []float64 per point. Any other byte
// sequence — whitespace, reordered or unknown keys, a malformed body —
// is handed to json.Unmarshal, so the result, or the error, is always
// what encoding/json returns.

// DecodeQueryResponse decodes a single-query response body to what
// json.Unmarshal into a QueryResponse yields.
func DecodeQueryResponse(data []byte) (QueryResponse, error) {
	s := newScanner(data)
	s.expect(`{"neighbors":`)
	r := QueryResponse{Neighbors: s.neighbors()}
	if r.Stats = s.end(); !s.bad {
		return r, nil
	}
	var w struct {
		Neighbors []wireNeighbor  `json:"neighbors"`
		Stats     json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return QueryResponse{}, err
	}
	return QueryResponse{Neighbors: fromWire(w.Neighbors), Stats: w.Stats}, nil
}

// DecodeBatchResponse is DecodeQueryResponse for a /v1/batch body.
func DecodeBatchResponse(data []byte) (BatchResponse, error) {
	s := newScanner(data)
	s.expect(`{"results":`)
	var r BatchResponse
	if s.list(func() { r.Results = append(r.Results, s.neighbors()) }) && r.Results == nil {
		r.Results = [][]Neighbor{}
	}
	if r.Stats = s.end(); !s.bad {
		return r, nil
	}
	var w struct {
		Results [][]wireNeighbor `json:"results"`
		Stats   json.RawMessage  `json:"stats"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return BatchResponse{}, err
	}
	out := BatchResponse{Stats: w.Stats}
	if w.Results != nil {
		out.Results = make([][]Neighbor, len(w.Results))
		for i, ws := range w.Results {
			out.Results[i] = fromWire(ws)
		}
	}
	return out, nil
}

// fromWire converts decoded neighbors, keeping nil apart from empty.
func fromWire(ws []wireNeighbor) []Neighbor {
	if ws == nil {
		return nil
	}
	ns := make([]Neighbor, len(ws))
	for i, w := range ws {
		ns[i] = w.neighbor()
	}
	return ns
}

// scanner is the strict reader of a response body. Once bad is set,
// every later step consumes nothing and the caller falls back.
type scanner struct {
	data []byte
	pos  int
	bad  bool
	// all backs every neighbor list of the body, sized by counting the
	// neighbors' opening bytes; dim is the length of the previous point,
	// -1 before the first.
	all []Neighbor
	dim int
}

func newScanner(data []byte) *scanner {
	return &scanner{data: data, all: make([]Neighbor, 0, bytes.Count(data, []byte(`{"id":`))), dim: -1}
}

// skip consumes lit if the body continues with it.
func (s *scanner) skip(lit string) bool {
	if rest := s.data[s.pos:]; s.bad || len(rest) < len(lit) || string(rest[:len(lit)]) != lit {
		return false
	}
	s.pos += len(lit)
	return true
}

// expect is skip that fails the scan when lit does not come next.
func (s *scanner) expect(lit string) {
	if !s.skip(lit) {
		s.bad = true
	}
}

// list scans null, reporting false, or an array, calling elem for each
// element.
func (s *scanner) list(elem func()) bool {
	if s.skip("null") {
		return false
	}
	if s.expect("["); !s.bad && !s.skip("]") {
		for elem(); s.skip(","); elem() {
		}
		s.expect("]")
	}
	return true
}

// neighbors scans null or an array of neighbors.
func (s *scanner) neighbors() []Neighbor {
	first := len(s.all)
	if !s.list(func() { s.all = append(s.all, s.neighbor()) }) {
		return nil
	}
	return s.all[first:len(s.all):len(s.all)]
}

// neighbor scans what appendNeighbor writes.
func (s *scanner) neighbor() Neighbor {
	s.expect(`{"id":`)
	n := Neighbor{ID: s.int()}
	s.expect(`,"point":`)
	n.Point = s.point()
	s.expect(`,"dist":`)
	if n.Dist = math.NaN(); !s.skip("null") {
		n.Dist = s.float()
	}
	s.expect("}")
	return n
}

// point scans null or an array of coordinates into a slice with the
// room of the previous point; the first point counts its commas.
func (s *scanner) point() []float64 {
	if s.skip("null") {
		return nil
	}
	if s.dim < 0 {
		rest := s.data[s.pos:]
		s.dim = bytes.Count(rest[:max(bytes.IndexByte(rest, ']'), 0)], []byte(",")) + 1
	}
	p := make([]float64, 0, s.dim)
	s.list(func() { p = append(p, s.float()) })
	s.dim = len(p)
	return p
}

// number consumes one JSON number, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
// and returns its text and whether it is an integer literal.
func (s *scanner) number() (text []byte, integer bool) {
	if s.bad {
		return nil, false
	}
	b, i := s.data, s.pos
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	lead := i
	ok := digits() && (b[lead] != '0' || i == lead+1)
	integer = true
	if ok && i < len(b) && b[i] == '.' {
		i++
		ok, integer = digits(), false
	}
	if ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		ok, integer = digits(), false
	}
	if !ok {
		s.bad = true
		return nil, false
	}
	text, s.pos = b[s.pos:i], i
	return text, integer
}

// float scans a number as encoding/json decodes one into a float64.
func (s *scanner) float() float64 {
	text, _ := s.number()
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(text), 64)
	s.bad = err != nil
	return f
}

// int scans an integer literal as encoding/json decodes one into an int;
// a fraction, an exponent or an overflow falls back.
func (s *scanner) int() int {
	text, integer := s.number()
	if s.bad || !integer {
		s.bad = true
		return 0
	}
	v, err := strconv.ParseInt(string(text), 10, strconv.IntSize)
	s.bad = err != nil
	return int(v)
}

// end scans the optional stats member and the end of the body, "}" and
// the newline the server writes after it, and returns a copy of the
// stats. Stats is taken verbatim when it is a whole JSON object.
func (s *scanner) end() json.RawMessage {
	body := bytes.TrimSuffix(s.data, []byte("\n"))
	if s.bad || len(body) == 0 || body[len(body)-1] != '}' || s.pos >= len(body) {
		s.bad = true
		return nil
	}
	body = body[:len(body)-1]
	var stats json.RawMessage
	if s.skip(`,"stats":`) {
		raw := body[s.pos:]
		if len(raw) < 2 || raw[0] != '{' || raw[len(raw)-1] != '}' || !json.Valid(raw) {
			s.bad = true
			return nil
		}
		stats, s.pos = append(json.RawMessage(nil), raw...), len(body)
	}
	s.bad = s.bad || s.pos != len(body)
	return stats
}

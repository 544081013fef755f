package wire

import (
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

// DecodeQueryResponse decodes a single-query response body to what
// json.Unmarshal into a QueryResponse yields.
func DecodeQueryResponse(data []byte) (QueryResponse, error) {
	var r struct {
		Neighbors []wireNeighbor  `json:"neighbors"`
		Stats     json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return QueryResponse{}, err
	}
	return QueryResponse{Neighbors: fromWire(r.Neighbors), Stats: r.Stats}, nil
}

// DecodeBatchResponse is DecodeQueryResponse for a /v1/batch body.
func DecodeBatchResponse(data []byte) (BatchResponse, error) {
	var r struct {
		Results [][]wireNeighbor `json:"results"`
		Stats   json.RawMessage  `json:"stats"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return BatchResponse{}, err
	}
	out := BatchResponse{Stats: r.Stats}
	if r.Results != nil {
		out.Results = make([][]Neighbor, len(r.Results))
		for i, ws := range r.Results {
			out.Results[i] = fromWire(ws)
		}
	}
	return out, nil
}

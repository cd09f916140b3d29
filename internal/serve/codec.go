package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
)

// The wire codec of the job API's two Θ(n²) bodies. A submitted Spec
// is decoded by decodeSpec, which parses the data/a/b number arrays of
// a canonical body directly and leaves every other body to
// encoding/json; a finished job's Result is written by streamResult,
// compact, straight from the retained row-major cells.

// specKeys maps each Spec member name to its bit in a seen-set.
var specKeys = func() map[string]uint {
	keys := map[string]uint{}
	t := reflect.TypeFor[Spec]()
	for i := range t.NumField() {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		keys[name] = uint(i)
	}
	return keys
}()

// errTooManyCells refuses a body with more commas than two arrays of
// maxCells cells need, plus commaSlack for the other members'
// separators.
var errTooManyCells = errors.New("body holds more array cells than any admissible job reads")

const commaSlack = 64

// maxMember bounds the bytes decodeCanonical lets encoding/json read
// for one member other than data, a and b; a longer one sends the
// body to the reference.
const maxMember = 64 << 10

// decodeSpec decodes a POST /v1/jobs body. A body with more commas
// than two arrays of maxCells cells need is refused with
// errTooManyCells before any of it is decoded: every array it holds,
// on either path below, then fits in the inputs of the largest
// admissible job. Any other body gets decodeReference's answer: same
// accept or reject, and on accept the same Spec bit for bit
// (FuzzDecodeSpec). Bodies the direct parser does not take go to the
// reference whole.
func decodeSpec(body []byte, maxCells int) (Spec, error) {
	if bytes.Count(body, []byte{','}) > 2*maxCells+commaSlack {
		return Spec{}, errTooManyCells
	}
	if spec, ok := decodeCanonical(body); ok {
		return spec, nil
	}
	return decodeReference(body)
}

// decodeReference is json.Decoder with DisallowUnknownFields: the
// decoder decodeSpec falls back to and is checked against.
func decodeReference(body []byte) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// decodeCanonical is decodeSpec's direct path. It takes a top-level
// object whose member names are Spec's, spelled exactly (lowercase, no
// escapes), each at most once; every "data", "a" or "b" value
// that is an array must hold only JSON numbers in float64 range. Those
// arrays are parsed here with strconv.ParseFloat; the other members,
// each at most maxMember bytes, are copied verbatim into a small object
// that encoding/json decodes. Like json.Decoder, it ignores whatever
// follows the object. ok is false when the body is not of this form or
// the small object does not decode; the reference then decides.
func decodeCanonical(body []byte) (spec Spec, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return Spec{}, false
	}
	rest := []byte{'{'}
	var seen uint
	for i = skipSpace(body, i+1); i < len(body) && body[i] != '}'; i = skipSpace(body, i) {
		if seen != 0 {
			if body[i] != ',' {
				return Spec{}, false
			}
			i = skipSpace(body, i+1)
		}
		if i == len(body) || body[i] != '"' {
			return Spec{}, false
		}
		end := bytes.IndexByte(body[i+1:], '"')
		if end < 0 {
			return Spec{}, false
		}
		name := body[i+1 : i+1+end]
		bit, known := specKeys[string(name)]
		if !known || seen&(1<<bit) != 0 {
			return Spec{}, false // also catches names with escapes
		}
		seen |= 1 << bit
		key := body[i : i+end+2]
		if i = skipSpace(body, i+end+2); i == len(body) || body[i] != ':' {
			return Spec{}, false
		}
		if i = skipSpace(body, i+1); i == len(body) {
			return Spec{}, false
		}
		if dst := spec.array(string(name)); dst != nil && body[i] == '[' {
			if *dst, i, ok = parseNumbers(body, i); !ok {
				return Spec{}, false
			}
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(body[i:min(len(body), i+maxMember)]))
		var raw json.RawMessage
		if dec.Decode(&raw) != nil {
			return Spec{}, false
		}
		if len(rest) > 1 {
			rest = append(rest, ',')
		}
		rest = append(append(append(rest, key...), ':'), raw...)
		i += int(dec.InputOffset())
	}
	if i == len(body) {
		return Spec{}, false
	}
	// The arrays already in spec are not members of rest, so decoding
	// rest leaves them as they are.
	dec := json.NewDecoder(bytes.NewReader(append(rest, '}')))
	dec.DisallowUnknownFields()
	if dec.Decode(&spec) != nil {
		return Spec{}, false
	}
	return spec, true
}

// array returns the Spec field of a member that decodeCanonical parses
// directly, or nil.
func (s *Spec) array(name string) *[]float64 {
	switch name {
	case "data":
		return &s.Data
	case "a":
		return &s.A
	case "b":
		return &s.B
	}
	return nil
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func skipDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// parseNumbers parses the array of JSON numbers opening at b[i] and
// returns it (non-nil, like encoding/json's) with the index just past
// its ']'. ok is false unless every element matches the JSON number
// grammar and parses into float64 range.
func parseNumbers(b []byte, i int) (out []float64, next int, ok bool) {
	// A number array holds no ']' before its own, and one comma fewer
	// than elements, so the capacity is exact; decodeSpec's comma
	// budget bounds it for any other array.
	end := bytes.IndexByte(b[i:], ']')
	if end < 0 {
		return nil, 0, false
	}
	out = make([]float64, 0, bytes.Count(b[i:i+end], []byte{','})+1)
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return out, i + 1, true
	}
	for i < len(b) {
		start := i
		if b[i] == '-' {
			i++
		}
		switch {
		case i < len(b) && b[i] == '0':
			i++
		case i < len(b) && '1' <= b[i] && b[i] <= '9':
			i = skipDigits(b, i+1)
		default:
			return nil, 0, false
		}
		if i < len(b) && b[i] == '.' {
			if i+1 == len(b) || !isDigit(b[i+1]) {
				return nil, 0, false
			}
			i = skipDigits(b, i+1)
		}
		if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
			i++
			if i < len(b) && (b[i] == '+' || b[i] == '-') {
				i++
			}
			if i == len(b) || !isDigit(b[i]) {
				return nil, 0, false
			}
			i = skipDigits(b, i)
		}
		v, err := strconv.ParseFloat(string(b[start:i]), 64)
		if err != nil {
			return nil, 0, false
		}
		out = append(out, v)
		if i = skipSpace(b, i); i == len(b) {
			break
		}
		switch b[i] {
		case ']':
			return out, i + 1, true
		case ',':
			i = skipSpace(b, i+1)
		default:
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// streamChunk is the size of streamResult's buffer; maxCell bounds
// one encoded cell (the longest float64 is 24 bytes), its comma, and
// the closing "]}\n".
const (
	streamChunk = 32 << 10
	maxCell     = 28
)

// streamResult writes head as compact JSON with cells appended as its
// "data" member (omitted when cells is nil), through one fixed-size
// buffer, ending with a newline as json.Encoder does. head.Data must be
// nil. Cells are formatted as encoding/json formats a float64, with
// null for NaN and ±Inf.
func streamResult(w io.Writer, head *Result, cells []float64) error {
	b, err := json.Marshal(head)
	if err != nil {
		return err
	}
	if cells == nil {
		_, err = w.Write(append(b, '\n'))
		return err
	}
	buf := make([]byte, 0, max(streamChunk, len(b)+16))
	buf = append(append(buf, b[:len(b)-1]...), `,"data":[`...)
	for k, v := range cells {
		if len(buf) > cap(buf)-maxCell {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		if k > 0 {
			buf = append(buf, ',')
		}
		buf = appendCell(buf, v)
	}
	_, err = w.Write(append(buf, "]}\n"...))
	return err
}

// appendCell appends v in encoding/json's float64 format (shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 on), or
// null when v is not finite.
func appendCell(b []byte, v float64) []byte {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return append(b, "null"...)
	}
	fmt := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		fmt = 'e'
	}
	b = strconv.AppendFloat(b, v, fmt, -1, 64)
	if n := len(b); fmt == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b
}

// boxed is the Result.Data form of row-major cells: a pointer per
// finite cell into one copy of them, nil for NaN and ±Inf.
func boxed(cells []float64) []*float64 {
	if cells == nil {
		return nil
	}
	vals := append([]float64(nil), cells...)
	out := make([]*float64, len(vals))
	for k := range vals {
		if !math.IsInf(vals[k], 0) && !math.IsNaN(vals[k]) {
			out[k] = &vals[k]
		}
	}
	return out
}

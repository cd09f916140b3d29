package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// sameSpec reports whether x and y are equal, comparing the float
// arrays by bits and by nil-ness.
func sameSpec(x, y Spec) bool {
	for _, p := range [][2][]float64{{x.Data, y.Data}, {x.A, y.A}, {x.B, y.B}} {
		if (p[0] == nil) != (p[1] == nil) || len(p[0]) != len(p[1]) {
			return false
		}
		for k := range p[0] {
			if math.Float64bits(p[0][k]) != math.Float64bits(p[1][k]) {
				return false
			}
		}
	}
	x.Data, x.A, x.B = nil, nil, nil
	y.Data, y.A, y.B = nil, nil, nil
	return reflect.DeepEqual(x, y)
}

// docBodies returns every -d body of docs/API.md's curl examples.
func docBodies(t testing.TB) [][]byte {
	raw, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatalf("read docs/API.md: %v", err)
	}
	var out [][]byte
	for _, m := range curlBody.FindAllStringSubmatch(string(raw), -1) {
		out = append(out, []byte(m[1]))
	}
	if len(out) == 0 {
		t.Fatal("docs/API.md has no -d bodies")
	}
	return out
}

// clientBodies returns one body per op as a Go client encodes a Spec
// with json.Marshal.
func clientBodies(t testing.TB) [][]byte {
	cells := []float64{0.6046602879796196, -1e-7, 3, 1e21, 0, 5e-324, -2.5, 1e300, 0.1}
	var out [][]byte
	for _, spec := range []Spec{
		{Op: "lu", N: 3, Data: cells},
		{Op: "gauss", N: 3, Data: cells},
		{Op: "apsp", N: 3, Data: cells},
		{Op: "closure", N: 3, Data: cells},
		{Op: "multiply", N: 3, A: cells, B: cells},
		{Op: "multiply", N: 4, Seed: 9, Engine: "strassen", Workers: 2, DeadlineMS: 500},
		{Op: "lu", N: 8, Pivot: "tournament", Storage: &StorageSpec{OutOfCore: true, Stripes: 2}},
		{Op: "matrixchain", Dims: []int{10, 30, 5, 60}},
	} {
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzDecodeSpec is the differential check of the direct decoder: on
// any body, decodeSpec and the reference json.Decoder with
// DisallowUnknownFields agree on accept or reject, and on accept yield
// the same Spec, floats compared by bits.
func FuzzDecodeSpec(f *testing.F) {
	for _, b := range docBodies(f) {
		f.Add(b)
	}
	for _, b := range clientBodies(f) {
		f.Add(b)
	}
	for _, s := range []string{
		// Case-folded, escaped and duplicate names.
		`{"OP":"lu","N":2,"Data":[1,2,3,4]}`,
		`{"op":"lu","n":2,"d\u0061ta":[1,2,3,4]}`,
		`{"op":"l\u0075","n":2,"data":[1,2,3,4]}`,
		`{"op":"lu","n":2,"data":[1,2,3,4],"data":[5,6,7,8]}`,
		`{"op":"lu","n":2,"data":[1,2,3,4],"Data":null}`,
		`{"op":"lu","op":"gauss","n":2}`,
		`{"op":"lu","n":3,"data":[1,2,3],"data":[5],"data":[null,null,null]}`,
		`{"op":"lu","n":2,"data":null,"data":[1,2,3,4]}`,
		// null arrays and non-number elements.
		`{"op":"lu","n":2,"data":null}`,
		`{"op":"multiply","n":2,"a":null,"b":[1,2,3,4]}`,
		`{"op":"lu","n":2,"data":[1,null,3,4]}`,
		`{"op":"lu","n":2,"data":[1,"2",3,4]}`,
		`{"op":"lu","n":2,"data":[[1],2,3,4]}`,
		`{"op":"lu","n":1,"data":[]}`,
		// Number grammar and range.
		`{"op":"lu","n":1,"data":[1e400]}`,
		`{"op":"lu","n":1,"data":[-1e400]}`,
		`{"op":"lu","n":1,"data":[1e-400]}`,
		`{"op":"lu","n":1,"data":[-0]}`,
		`{"op":"lu","n":1,"data":[01]}`,
		`{"op":"lu","n":1,"data":[.5]}`,
		`{"op":"lu","n":1,"data":[1.]}`,
		`{"op":"lu","n":1,"data":[+1]}`,
		`{"op":"lu","n":1,"data":[-]}`,
		`{"op":"lu","n":1,"data":[1e]}`,
		`{"op":"lu","n":1,"data":[1E+2]}`,
		`{"op":"lu","n":1,"data":[1,]}`,
		`{"op":"lu","n":1,"data":[1`,
		// Whitespace everywhere, and what follows the object.
		" \t\r\n{ \"op\" :\t\"lu\" ,\r\n \"n\"\n: 2 , \"data\" : [ 1 ,\t2 ,\n3\r, 4 ] , \"seed\" : 7 } \n",
		`{"op":"lu","n":2,"data":[1,2,3,4]} trailing`,
		`{"op":"lu","n":2,"data":[1,2,3,4]}{"op":"gauss"}`,
		// Other shapes.
		``, `null`, `{}`, `[]`, `{"op":"lu",}`, `{,"op":"lu"}`, `{"op":"lu" "n":2}`,
		`{"op":"lu","n":"2"}`, `{"op":"lu","n":2.5}`, `{"op":"lu","extra":1}`,
		`{"op":"lu","n":8,"storage":{"out_of_core":true,"bogus":1}}`,
		`{"op":"matrixchain","dims":[10,30,-5]}`,
		// An array longer than commaSlack cells.
		`{"op":"lu","n":9,"data":[` + strings.Repeat("1,", 80) + `1]}`,
	} {
		f.Add([]byte(s))
	}
	// The largest cap whose comma budget does not overflow int on any
	// target, so no body is refused for its length.
	const noCap = (math.MaxInt - commaSlack) / 2
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := decodeSpec(body, noCap)
		want, wantErr := decodeReference(body)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("body %q: decodeSpec err = %v, reference err = %v", body, gotErr, wantErr)
		}
		if gotErr == nil && !sameSpec(got, want) {
			t.Fatalf("body %q: decodeSpec = %+v, reference = %+v", body, got, want)
		}
	})
}

// TestDecodeCanonical checks that the bodies clients send — the doc
// examples, json.Marshal of a Spec, and the same spread with whitespace
// — take the direct path rather than the reference.
func TestDecodeCanonical(t *testing.T) {
	bodies := append(docBodies(t), clientBodies(t)...)
	bodies = append(bodies, []byte(" {\n  \"op\": \"lu\",\n  \"n\": 2,\n  \"data\": [\n    1,\n    2e-9,\n    -0,\n    4\n  ]\n}\n"))
	for _, body := range bodies {
		got, ok := decodeCanonical(body)
		if !ok {
			t.Errorf("body %s: not taken by the direct path", body)
			continue
		}
		if want, err := decodeReference(body); err != nil || !sameSpec(got, want) {
			t.Errorf("body %s: direct = %+v, reference = %+v (%v)", body, got, want, err)
		}
	}
}

// allocated returns the bytes the heap allocated while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeCellCap checks the comma budget: a body holding more array
// cells than two maxCells arrays is refused with errTooManyCells
// before anything is allocated for it, on the direct path and on the
// reference's (case-folded names, dims, null cells), and a body within
// the budget decodes.
func TestDecodeCellCap(t *testing.T) {
	const cells = 1 << 20
	zeros := strings.Repeat("0,", cells-1) + "0"
	for _, body := range []string{
		`{"op":"lu","n":4,"data":[` + strings.Repeat(",", cells) + `]}`,
		`{"op":"lu","n":4,"data":[` + zeros + `]}`,
		`{"OP":"lu","N":4,"DATA":[` + zeros + `]}`,
		`{"op":"lu","n":4,"data":[null,` + zeros + `]}`,
		`{"op":"matrixchain","dims":[` + zeros + `]}`,
	} {
		b := []byte(body)
		var err error
		if n := allocated(func() { _, err = decodeSpec(b, 16) }); !errors.Is(err, errTooManyCells) || n > 64<<10 {
			t.Errorf("body %.40s…: err %v, %d bytes allocated", body, err, n)
		}
	}
	spec, err := decodeSpec([]byte(`{"op":"lu","n":1024,"data":[`+zeros+`]}`), cells)
	if err != nil || len(spec.Data) != cells {
		t.Errorf("body of %d cells at a cap of %d: err %v, %d cells", cells, cells, err, len(spec.Data))
	}
}

// TestDecodeLongMember checks that a long member other than data, a
// and b costs the direct path no more than the reference:
// decodeCanonical reads at most maxMember bytes of it before it hands
// the body over.
func TestDecodeLongMember(t *testing.T) {
	body := []byte(`{"op":"` + strings.Repeat("x", 4<<20) + `","n":4}`)
	direct := allocated(func() { decodeSpec(body, 16) })
	ref := allocated(func() { decodeReference(body) })
	if direct > ref+ref/8 {
		t.Errorf("body of %d bytes: direct path allocated %d bytes, reference %d", len(body), direct, ref)
	}
}

// TestAppendCell checks the cell encoder against json.Marshal at the
// float64 edge cases and the exponent-form switch points, and null for
// the non-finite values json.Marshal refuses.
func TestAppendCell(t *testing.T) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 123456789, 1e20, 1e100, -1e-7,
		5e-324, -5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e21, math.Nextafter(1e21, 0), -1e21,
		1.0000000000000002, 0.6046602879796196,
	} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendCell(nil, v); !bytes.Equal(got, want) {
			t.Errorf("appendCell(%v) = %s, json.Marshal = %s", v, got, want)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := appendCell(nil, v); string(got) != "null" {
			t.Errorf("appendCell(%v) = %s, want null", v, got)
		}
	}
}

// TestResultStreamRoundTrip fetches a result of every op over HTTP and
// requires the compact streamed body to decode, with unknown fields
// disallowed, into exactly ResultOf's Result.
func TestResultStreamRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2, DefaultWorkers: 2, MaxWorkers: 4})

	// An 8-node graph in which only 0→1→2 has edges: most pairs are
	// unreachable, so their cells are null.
	sparse := make([]float64, 64)
	sparse[0*8+1], sparse[1*8+2] = 1.5, 2.25
	cases := []struct {
		name string
		spec Spec
	}{
		{"multiply classical", Spec{Op: "multiply", N: 64, Seed: 1}},
		{"multiply strassen", Spec{Op: "multiply", N: 64, Seed: 1, Engine: "strassen"}},
		{"lu none", Spec{Op: "lu", N: 64, Seed: 2}},
		{"lu tournament", Spec{Op: "lu", N: 64, Seed: 2, Pivot: "tournament"}},
		{"gauss", Spec{Op: "gauss", N: 32, Seed: 3}},
		{"apsp unreachable", Spec{Op: "apsp", N: 8, Data: sparse}},
		{"closure", Spec{Op: "closure", N: 50, Seed: 4}},
		{"matrixchain", Spec{Op: "matrixchain", Dims: []int{10, 30, 5, 60}}},
		{"lu out-of-core", Spec{Op: "lu", N: 64, Seed: 5, Storage: &StorageSpec{OutOfCore: true, TileSide: 16, CacheBytes: 8192}}},
	}
	for _, tc := range cases {
		resp, v := postJob(t, ts, tc.spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit status %d", tc.name, resp.StatusCode)
		}
		if fin := waitTerminal(t, ts, v.ID); fin.Status != StatusDone {
			t.Fatalf("%s: finished %s (%s)", tc.name, fin.Status, fin.Error)
		}
		rr, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(rr.Body)
		rr.Body.Close()
		if err != nil || rr.StatusCode != http.StatusOK {
			t.Fatalf("%s: GET result: %d %v", tc.name, rr.StatusCode, err)
		}
		if ct := rr.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", tc.name, ct)
		}
		if strings.Count(string(body), "\n") != 1 || !strings.HasSuffix(string(body), "}\n") {
			t.Errorf("%s: body is not one compact line", tc.name)
		}
		var got Result
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("%s: decode streamed body: %v", tc.name, err)
		}
		want, err := s.ResultOf(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(&got, want) {
			t.Fatalf("%s: streamed result differs from ResultOf", tc.name)
		}
		nulls := 0
		for _, c := range want.Data {
			if c == nil {
				nulls++
			}
		}
		if wantNulls := tc.name == "apsp unreachable"; (nulls > 0) != wantNulls {
			t.Errorf("%s: %d null cells", tc.name, nulls)
		}
	}
}

// sameResult reports whether x and y are equal, comparing cells by
// bits and by nil-ness.
func sameResult(x, y *Result) bool {
	if len(x.Data) != len(y.Data) || (x.Data == nil) != (y.Data == nil) {
		return false
	}
	for k := range x.Data {
		p, q := x.Data[k], y.Data[k]
		if (p == nil) != (q == nil) || p != nil && math.Float64bits(*p) != math.Float64bits(*q) {
			return false
		}
	}
	xc, yc := *x, *y
	xc.Data, yc.Data = nil, nil
	return reflect.DeepEqual(xc, yc)
}

// benchBody is an n = 256 lu body as a Go client encodes it.
func benchBody(b *testing.B) []byte {
	cells := randMatrix(256, 1, true).Data()
	body, err := json.Marshal(Spec{Op: "lu", N: 256, Data: cells})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkDecodeSpec prices decoding one n = 256 lu body: the direct
// path against the reference.
func BenchmarkDecodeSpec(b *testing.B) {
	body := benchBody(b)
	for _, d := range []struct {
		name   string
		decode func([]byte) (Spec, error)
	}{
		{"direct", func(body []byte) (Spec, error) { return decodeSpec(body, 256*256) }},
		{"reference", decodeReference},
	} {
		b.Run(d.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for range b.N {
				if _, err := d.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResultBody prices encoding one n = 256 result: the
// streamed encoder against the indented json.Encoder it replaced.
func BenchmarkResultBody(b *testing.B) {
	out := &output{Result: Result{ID: "j1", Op: "lu", N: 256, WallMS: 12.5}, cells: randMatrix(256, 1, true).Data()}
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			streamResult(io.Discard, &out.Result, out.cells)
		}
	})
	b.Run("indented", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			res := out.Result
			res.Data = boxed(out.cells)
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			enc.Encode(&res)
		}
	})
}

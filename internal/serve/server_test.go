package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gep/internal/linalg"
)

// newTestServer starts a server over httptest and tears both down at
// the end of the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec any) (*http.Response, JobView) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if resp.StatusCode == http.StatusAccepted {
		decodeBody(t, resp, &v)
	}
	return resp, v
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode body: %v", err)
	}
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		decodeBody(t, resp, &v)
		if v.Status.Terminal() {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobView{}
}

// TestJobLifecycle walks the happy path end to end over HTTP: submit,
// poll, fetch the result, and check it against a serial recomputation.
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, v := postJob(t, ts, Spec{Op: "multiply", N: 64, Seed: 7})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if v.ID == "" || v.Status != StatusQueued {
		t.Fatalf("submit view: %+v", v)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+v.ID {
		t.Fatalf("Location = %q", loc)
	}

	fin := waitTerminal(t, ts, v.ID)
	if fin.Status != StatusDone {
		t.Fatalf("job finished %s (%s), want done", fin.Status, fin.Error)
	}
	if fin.Tasks == 0 || fin.Metrics == nil {
		t.Fatalf("terminal view lacks runtime metrics: %+v", fin)
	}

	rr, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	decodeBody(t, rr, &res)
	if res.ID != v.ID || res.Op != "multiply" || len(res.Data) != 64*64 {
		t.Fatalf("result shape: id=%s op=%s cells=%d", res.ID, res.Op, len(res.Data))
	}

	// Recompute serially from the same seed and compare a few cells.
	a, b := randMatrix(64, 7, false), randMatrix(64, 8, false)
	for _, ij := range [][2]int{{0, 0}, {13, 41}, {63, 63}} {
		i, j := ij[0], ij[1]
		want := 0.0
		for k := 0; k < 64; k++ {
			want += a.At(i, k) * b.At(k, j)
		}
		got := res.Data[i*64+j]
		if got == nil || math.Abs(*got-want) > 1e-9 {
			t.Fatalf("c[%d,%d]: got %v, want %v", i, j, got, want)
		}
	}
}

// TestConcurrentJobIsolation is the acceptance criterion: two jobs
// running concurrently on disjoint worker budgets both complete, and
// each job's own runtime counters prove its pooled tasks all executed
// inside its own runtime — neither tenant occupied the other's
// workers.
func TestConcurrentJobIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2, DefaultWorkers: 2, MaxWorkers: 4})

	var ids [2]string
	for i := range ids {
		resp, v := postJob(t, ts, Spec{Op: "lu", N: 256, Seed: int64(i), Workers: 2})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids[i] = v.ID
	}

	var wg sync.WaitGroup
	views := make([]JobView, 2)
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			views[i] = waitTerminal(t, ts, id)
		}()
	}
	wg.Wait()

	for i, v := range views {
		if v.Status != StatusDone {
			t.Fatalf("job %d finished %s (%s)", i, v.Status, v.Error)
		}
		pooled := v.Metrics["par.spawn.pooled"]
		executed := v.Metrics["par.local"] + v.Metrics["par.steal"] + v.Metrics["par.help"]
		if pooled == 0 {
			t.Errorf("job %d: no pooled spawns — it did not run on its own runtime", i)
		}
		if pooled != executed {
			t.Errorf("job %d: pooled=%d but local+steal+help=%d — work leaked across runtimes",
				i, pooled, executed)
		}
	}
}

// TestMultiplyEngineStrassen submits the same multiply twice — default
// classical engine and "engine": "strassen" — and requires the
// Strassen result to agree with the classical one within the engine's
// published error bound; /v1/ops must advertise the engine.
func TestMultiplyEngineStrassen(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2, DefaultWorkers: 2, MaxWorkers: 4})

	const n = 64
	specs := []Spec{
		{Op: "multiply", N: n, Seed: 11},
		{Op: "multiply", N: n, Seed: 11, Engine: "strassen"},
	}
	results := make([]Result, len(specs))
	for i, spec := range specs {
		resp, v := postJob(t, ts, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit engine=%q: status %d", spec.Engine, resp.StatusCode)
		}
		if fin := waitTerminal(t, ts, v.ID); fin.Status != StatusDone {
			t.Fatalf("engine=%q finished %s (%s)", spec.Engine, fin.Status, fin.Error)
		}
		rr, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, rr, &results[i])
	}
	a, b := randMatrix(n, 11, false), randMatrix(n, 12, false)
	var maxA, maxB float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			maxA = math.Max(maxA, math.Abs(a.At(i, j)))
			maxB = math.Max(maxB, math.Abs(b.At(i, j)))
		}
	}
	bound := linalg.StrassenErrorBound(n, 32, maxA, maxB)
	for i := range results[0].Data {
		cl, st := results[0].Data[i], results[1].Data[i]
		if cl == nil || st == nil {
			t.Fatalf("cell %d: nil output", i)
		}
		if d := math.Abs(*cl - *st); d > bound {
			t.Fatalf("cell %d: |classical-strassen| = %g exceeds bound %g", i, d, bound)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/ops")
	if err != nil {
		t.Fatal(err)
	}
	var caps struct {
		Ops map[string]struct {
			Engines  []string `json:"engines"`
			Strassen bool     `json:"strassen"`
		} `json:"ops"`
	}
	decodeBody(t, resp, &caps)
	if mul, ok := caps.Ops["multiply"]; !ok || !mul.Strassen || len(mul.Engines) != 2 {
		t.Fatalf("/v1/ops multiply capabilities: %+v", caps.Ops["multiply"])
	}
	if lu, ok := caps.Ops["lu"]; !ok || lu.Strassen || lu.Engines != nil {
		t.Fatalf("/v1/ops lu should not advertise engines: %+v", caps.Ops["lu"])
	}
}

// TestLUTournamentPivot submits "lu" with "pivot": "tournament" and
// checks the returned factors against the seeded input: Perm must be a
// permutation and P·A = L·U must hold to machine precision. /v1/ops
// must advertise the pivot strategies, and the validation paths
// (pivot on an op without pivots, unknown strategy, tournament
// combined with storage, singular input) must reject cleanly.
func TestLUTournamentPivot(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2, DefaultWorkers: 2, MaxWorkers: 4})

	const n = 64
	resp, v := postJob(t, ts, Spec{Op: "lu", N: n, Seed: 21, Pivot: "tournament"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit pivoted lu: status %d", resp.StatusCode)
	}
	if fin := waitTerminal(t, ts, v.ID); fin.Status != StatusDone {
		t.Fatalf("pivoted lu finished %s (%s)", fin.Status, fin.Error)
	}
	rr, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	decodeBody(t, rr, &res)
	if len(res.Data) != n*n || len(res.Perm) != n {
		t.Fatalf("result shape: cells=%d perm=%d", len(res.Data), len(res.Perm))
	}
	seen := make([]bool, n)
	for _, p := range res.Perm {
		if p < 0 || p >= n || seen[p] {
			t.Fatalf("perm is not a permutation: %v", res.Perm)
		}
		seen[p] = true
	}
	lu := func(i, j int) float64 {
		c := res.Data[i*n+j]
		if c == nil {
			t.Fatalf("lu[%d,%d]: non-finite output", i, j)
		}
		return *c
	}
	// The seeded tournament input is the general (non-dominant) random
	// matrix; reconstruct (L·U)[i,j] and compare to (P·A)[i,j].
	a := randMatrix(n, 21, false)
	for _, ij := range [][2]int{{0, 0}, {0, n - 1}, {13, 41}, {41, 13}, {n - 1, n - 1}} {
		i, j := ij[0], ij[1]
		sum := 0.0
		for k := 0; k <= min(i, j); k++ {
			l := lu(i, k)
			if k == i {
				l = 1
			}
			sum += l * lu(k, j)
		}
		if want := a.At(res.Perm[i], j); math.Abs(sum-want) > 1e-9 {
			t.Fatalf("(L·U)[%d,%d] = %g, want (P·A) = %g", i, j, sum, want)
		}
	}

	opsResp, err := http.Get(ts.URL + "/v1/ops")
	if err != nil {
		t.Fatal(err)
	}
	var caps struct {
		Ops map[string]struct {
			Pivots []string `json:"pivots"`
		} `json:"ops"`
	}
	decodeBody(t, opsResp, &caps)
	if got := caps.Ops["lu"].Pivots; len(got) != 2 || got[0] != "none" || got[1] != "tournament" {
		t.Fatalf(`/v1/ops lu pivots = %v, want ["none", "tournament"]`, got)
	}
	if got := caps.Ops["multiply"].Pivots; got != nil {
		t.Fatalf("/v1/ops multiply should not advertise pivots: %v", got)
	}

	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"pivot on multiply", Spec{Op: "multiply", N: 64, Pivot: "tournament"}},
		{"unknown strategy", Spec{Op: "lu", N: 64, Pivot: "rook"}},
		{"tournament with storage", Spec{Op: "lu", N: 64, Pivot: "tournament",
			Storage: &StorageSpec{OutOfCore: true}}},
	} {
		if resp, _ := postJob(t, ts, tc.spec); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}

	// A singular explicit input fails the job rather than returning
	// garbage factors: the error names the singularity.
	data := make([]float64, n*n) // all-zero matrix
	resp, v = postJob(t, ts, Spec{Op: "lu", N: n, Data: data, Pivot: "tournament"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit singular: status %d", resp.StatusCode)
	}
	if fin := waitTerminal(t, ts, v.ID); fin.Status != StatusFailed || !strings.Contains(fin.Error, "singular") {
		t.Fatalf("singular input finished %s (%q), want failed with singular error", fin.Status, fin.Error)
	}
}

// TestAdmissionControl exercises every rejection path: bad op, bad
// size, oversized job, queue overflow, worker/deadline caps.
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 1, MaxConcurrent: 1, MaxN: 1024, MaxWorkers: 2})

	cases := []struct {
		name string
		spec Spec
		code int
	}{
		{"unknown op", Spec{Op: "qr", N: 64}, http.StatusBadRequest},
		{"non-pow2", Spec{Op: "lu", N: 65}, http.StatusBadRequest},
		{"too large", Spec{Op: "lu", N: 2048}, http.StatusRequestEntityTooLarge},
		{"workers over cap", Spec{Op: "lu", N: 64, Workers: 99}, http.StatusBadRequest},
		{"deadline over cap", Spec{Op: "lu", N: 64, DeadlineMS: int64(time.Hour / time.Millisecond * 100)}, http.StatusBadRequest},
		{"bad data length", Spec{Op: "lu", N: 64, Data: []float64{1, 2, 3}}, http.StatusBadRequest},
		{"one multiply operand", Spec{Op: "multiply", N: 2, A: []float64{1, 2, 3, 4}}, http.StatusBadRequest},
		{"matrixchain no dims", Spec{Op: "matrixchain"}, http.StatusBadRequest},
		{"unknown engine", Spec{Op: "multiply", N: 64, Engine: "coppersmith"}, http.StatusBadRequest},
		{"engine on engineless op", Spec{Op: "lu", N: 64, Engine: "strassen"}, http.StatusBadRequest},
		// Inputs the op never reads.
		{"data on multiply", Spec{Op: "multiply", N: 2, Data: []float64{1, 2, 3, 4}}, http.StatusBadRequest},
		{"a and b on lu", Spec{Op: "lu", N: 2, A: []float64{1, 2, 3, 4}, B: []float64{1, 2, 3, 4}}, http.StatusBadRequest},
		{"b on closure", Spec{Op: "closure", N: 2, Data: []float64{1, 0, 0, 1}, B: []float64{1, 2, 3, 4}}, http.StatusBadRequest},
		{"dims on apsp", Spec{Op: "apsp", N: 2, Dims: []int{2, 3}}, http.StatusBadRequest},
		{"data on matrixchain", Spec{Op: "matrixchain", Dims: []int{2, 3}, Data: []float64{1}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, _ := postJob(t, ts, tc.spec)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}

	// With two bad lengths the reported one is the first in the fixed
	// order data, a, b — every time.
	for range 20 {
		_, err := s.Submit(Spec{Op: "multiply", N: 2, A: []float64{1, 2, 3}, B: []float64{1}})
		if err == nil || !strings.HasPrefix(err.Error(), "a has 3 cells") {
			t.Fatalf("two bad lengths: error %v, want the one about a", err)
		}
	}

	// Overflow: the single executor is busy with a slow job, the depth-1
	// queue holds one more, the next submission must bounce with 429.
	// The slow job is an n = 1024 APSP, as in the cancel and shutdown
	// tests: with the vector kernels an n = 512 one can finish inside
	// the 20 ms pause.
	if _, err := s.Submit(Spec{Op: "apsp", N: 1024, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the executor pick it up
	if _, err := s.Submit(Spec{Op: "lu", N: 64}); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJob(t, ts, Spec{Op: "lu", N: 64})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestBodyCap checks that a request body past Config.maxBody gets 413
// whatever it holds, whether its length is declared or it is sent
// chunked, that one at the cap is read, that one holding more cells
// than two Config.maxCells arrays gets 413 while a malformed array
// within that budget gets 400, and that the server keeps serving.
func TestBodyCap(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxN: 8})
	limit := s.Config().maxBody()
	post := func(body []byte, chunked bool) int {
		t.Helper()
		var r io.Reader = bytes.NewReader(body)
		if chunked {
			r = io.MultiReader(r) // hides the length
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", r)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	padded := func(size int64) []byte {
		body := []byte(`{"op":"lu","n":8,"seed":3}`)
		return append(body, bytes.Repeat([]byte{' '}, int(size)-len(body))...)
	}
	for _, chunked := range []bool{false, true} {
		if got := post(padded(limit+1), chunked); got != http.StatusRequestEntityTooLarge {
			t.Fatalf("body of %d bytes (chunked %v): status %d, want 413", limit+1, chunked, got)
		}
		if got := post(padded(limit), chunked); got != http.StatusAccepted {
			t.Fatalf("body of %d bytes (the cap, chunked %v): status %d, want 202", limit, chunked, got)
		}
	}
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"201 cells at max-n 8", `{"op":"lu","n":8,"data":[` + strings.Repeat("0,", 200) + `0]}`, http.StatusRequestEntityTooLarge},
		{"201 dims at max-n 8", `{"op":"matrixchain","dims":[` + strings.Repeat("1,", 200) + `1]}`, http.StatusRequestEntityTooLarge},
		{"comma-only array", `{"op":"lu","n":8,"data":[` + strings.Repeat(",", 100) + `]}`, http.StatusBadRequest},
	} {
		if got := post([]byte(tc.body), false); got != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
	resp, v := postJob(t, ts, Spec{Op: "lu", N: 8, Seed: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after 413: status %d", resp.StatusCode)
	}
	if fin := waitTerminal(t, ts, v.ID); fin.Status != StatusDone {
		t.Fatalf("job after 413 finished %s (%s)", fin.Status, fin.Error)
	}
}

// TestDeadlineAborts checks that a job blowing its deadline is failed
// (not wedged) and reports a deadline error.
func TestDeadlineAborts(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultWorkers: 1})
	resp, v := postJob(t, ts, Spec{Op: "apsp", N: 1024, DeadlineMS: 30})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	fin := waitTerminal(t, ts, v.ID)
	if fin.Status != StatusFailed || !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("finished %s (%q), want failed with deadline error", fin.Status, fin.Error)
	}
	rr, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusConflict {
		t.Fatalf("result of failed job: status %d, want 409", rr.StatusCode)
	}
}

// TestTournamentAbortFailsOneJob aborts a tournament-pivoted LU by
// deadline and by DELETE, then completes an ordinary job on the same
// server. An abort makes the runtime skip the tournament's matches, so
// CALU must fail the job on the missing winners, not index them and
// take the process down.
func TestTournamentAbortFailsOneJob(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1, DefaultWorkers: 2, MaxWorkers: 2})
	spec := Spec{Op: "lu", N: 2048, Seed: 1, Pivot: "tournament", DeadlineMS: 50}

	_, v := postJob(t, ts, spec)
	if fin := waitTerminal(t, ts, v.ID); fin.Status != StatusFailed || !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("deadline job finished %s (%q), want failed with deadline error", fin.Status, fin.Error)
	}

	spec.DeadlineMS = 0
	_, v = postJob(t, ts, spec)
	deleteWhenRunning(t, ts, v.ID)
	if fin := waitTerminal(t, ts, v.ID); fin.Status != StatusCanceled {
		t.Fatalf("deleted job finished %s (%q), want canceled", fin.Status, fin.Error)
	}

	_, v = postJob(t, ts, Spec{Op: "lu", N: 64, Seed: 21, Pivot: "tournament"})
	if fin := waitTerminal(t, ts, v.ID); fin.Status != StatusDone {
		t.Fatalf("ordinary job after the aborts finished %s (%q), want done", fin.Status, fin.Error)
	}
}

// deleteWhenRunning waits until job id runs, then DELETEs it.
func deleteWhenRunning(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	for start := time.Now(); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var cur JobView
		decodeBody(t, resp, &cur)
		if cur.Status == StatusRunning {
			break
		}
		if cur.Status.Terminal() || time.Since(start) > 30*time.Second {
			t.Fatalf("job to cancel reached %s before it ran", cur.Status)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestCancelQueuedAndRunning cancels one queued and one running job
// through the API and checks both report canceled.
func TestCancelQueuedAndRunning(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1, DefaultWorkers: 1})

	_, running := postJob(t, ts, Spec{Op: "apsp", N: 1024})
	time.Sleep(30 * time.Millisecond) // executor picks it up
	_, queued := postJob(t, ts, Spec{Op: "lu", N: 64})

	for _, id := range []string{queued.ID, running.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s: status %d", id, resp.StatusCode)
		}
	}
	for _, id := range []string{queued.ID, running.ID} {
		if fin := waitTerminal(t, ts, id); fin.Status != StatusCanceled {
			t.Fatalf("job %s finished %s, want canceled", id, fin.Status)
		}
	}
}

// TestEventsStream reads the SSE stream of a job and checks it ends
// with a "done" event carrying the terminal status.
func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, v := postJob(t, ts, Spec{Op: "lu", N: 256})

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var last, lastData string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			last = ev
		}
		if d, ok := strings.CutPrefix(line, "data: "); ok {
			lastData = d
		}
	}
	if last != "done" {
		t.Fatalf("stream ended with event %q, want done", last)
	}
	var fin JobView
	if err := json.Unmarshal([]byte(lastData), &fin); err != nil {
		t.Fatal(err)
	}
	if !fin.Status.Terminal() {
		t.Fatalf("done event carries non-terminal status %s", fin.Status)
	}
}

// TestOpsMatrixChainAndClosure covers the two non-pow2 ops end to end.
func TestOpsMatrixChainAndClosure(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	_, v := postJob(t, ts, Spec{Op: "matrixchain", Dims: []int{10, 30, 5, 60}})
	fin := waitTerminal(t, ts, v.ID)
	if fin.Status != StatusDone {
		t.Fatalf("matrixchain finished %s (%s)", fin.Status, fin.Error)
	}
	res, err := s.ResultOf(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost == nil || *res.Cost != 4500 {
		t.Fatalf("matrixchain cost = %v, want 4500", res.Cost)
	}
	if res.Order == "" {
		t.Fatal("matrixchain returned no parenthesization")
	}

	// A 3-node path: closure must add the transitive 0→2 edge.
	_, v = postJob(t, ts, Spec{Op: "closure", N: 3, Data: []float64{
		1, 1, 0,
		0, 1, 1,
		0, 0, 1,
	}})
	if fin = waitTerminal(t, ts, v.ID); fin.Status != StatusDone {
		t.Fatalf("closure finished %s (%s)", fin.Status, fin.Error)
	}
	res, err = s.ResultOf(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := *res.Data[0*3+2]; got != 1 {
		t.Fatalf("closure missed the transitive edge 0->2 (got %v)", got)
	}
}

// TestShutdownDrains submits jobs, begins shutdown mid-flight with a
// generous context, and checks every admitted job still completes
// while new submissions are refused with 503.
func TestShutdownDrains(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2, DefaultWorkers: 2})

	var ids []string
	for i := 0; i < 4; i++ {
		resp, v := postJob(t, ts, Spec{Op: "lu", N: 256, Seed: int64(i)})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids = append(ids, v.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()

	// Admission must close promptly even while draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := postJob(t, ts, Spec{Op: "lu", N: 64})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining server kept accepting jobs")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := <-done; err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	for i, id := range ids {
		v, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %d evicted during drain", i)
		}
		if v.Status != StatusDone {
			t.Fatalf("job %d finished %s (%s), want done after drain", i, v.Status, v.Error)
		}
	}
}

// TestShutdownAbortsOnExpiry checks the other shutdown arm: a context
// that expires immediately forces in-flight jobs to cancel rather
// than letting Shutdown block.
func TestShutdownAbortsOnExpiry(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, DefaultWorkers: 1})
	if _, err := s.Submit(Spec{Op: "apsp", N: 1024}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Spec{Op: "lu", N: 256}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Shutdown(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 20*time.Second {
		t.Fatalf("abort path took %v — in-flight jobs were not interrupted", el)
	}
	for _, v := range s.List() {
		if !v.Status.Terminal() {
			t.Fatalf("job %s left %s after forced shutdown", v.ID, v.Status)
		}
	}
}

// TestMetricsEndpoint checks /metrics exposes the aggregate plus the
// finished job's private counters, and /debug/vars serves expvar.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, v := postJob(t, ts, Spec{Op: "lu", N: 128})
	waitTerminal(t, ts, v.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Aggregate map[string]int64            `json:"aggregate"`
		Jobs      map[string]map[string]int64 `json:"jobs"`
	}
	decodeBody(t, resp, &body)
	jm, ok := body.Jobs[v.ID]
	if !ok {
		t.Fatalf("/metrics lacks job %s; have %v", v.ID, body.Jobs)
	}
	if jm["par.spawn.pooled"]+jm["par.spawn.inline"] == 0 {
		t.Fatalf("job %s counters empty: %v", v.ID, jm)
	}

	dv, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(dv.Body)
	dv.Body.Close()
	if !bytes.Contains(raw, []byte("gep.metrics")) {
		t.Fatal("/debug/vars does not publish gep.metrics")
	}
}

// TestHealthz checks the health endpoint flips to draining.
func TestHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	get := func() string {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var b map[string]string
		decodeBody(t, resp, &b)
		return b["status"]
	}
	if st := get(); st != "ok" {
		t.Fatalf("healthz = %q, want ok", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if st := get(); st != "draining" {
		t.Fatalf("healthz after Shutdown = %q, want draining", st)
	}
}

// TestRetention checks finished jobs are evicted oldest-first once
// the retention bound is exceeded.
func TestRetention(t *testing.T) {
	_, ts := newTestServer(t, Config{RetainJobs: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		_, v := postJob(t, ts, Spec{Op: "matrixchain", Dims: []int{2, 3, 4}})
		waitTerminal(t, ts, v.ID)
		ids = append(ids, v.ID)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("oldest job still present: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	decodeBody(t, resp, &list)
	if len(list.Jobs) != 2 {
		t.Fatalf("retained %d jobs, want 2", len(list.Jobs))
	}
}

package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// smallStorage forces real out-of-core behavior at test sizes: a
// 16 KiB tile cache is far below the n=64 footprint (32 KiB per
// matrix), so tiles fault, evict, compress, and journal for real.
func smallStorage() *StorageSpec {
	return &StorageSpec{
		OutOfCore:       true,
		Stripes:         3,
		TileSide:        16,
		CacheBytes:      16 << 10,
		Compress:        true,
		CheckpointEvery: 8,
	}
}

// fetchResult downloads a finished job's result payload.
func fetchResult(t *testing.T, ts *httptest.Server, id string) Result {
	t.Helper()
	rr, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	decodeBody(t, rr, &res)
	return res
}

// TestStorageJobsBitIdentical is the serve-layer durability
// acceptance: for every ooc-capable op, a job run on a durable striped
// store (checksummed tiles, journal sync points, compression, a cache
// far below the working set) returns bit-identical output to the same
// spec run in-core.
func TestStorageJobsBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2, DefaultWorkers: 2, MaxWorkers: 4})

	const n = 64
	specs := []Spec{
		{Op: "lu", N: n, Seed: 3},
		{Op: "gauss", N: n, Seed: 5},
		{Op: "apsp", N: n, Seed: 7},
		{Op: "multiply", N: n, Seed: 9},
		{Op: "multiply", N: n, Seed: 9, Engine: "strassen"},
	}
	for _, spec := range specs {
		name := spec.Op
		if spec.Engine != "" {
			name += "/" + spec.Engine
		}
		run := func(st *StorageSpec) Result {
			s := spec
			s.Storage = st
			resp, v := postJob(t, ts, s)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("%s: submit (storage=%v): status %d", name, st != nil, resp.StatusCode)
			}
			if fin := waitTerminal(t, ts, v.ID); fin.Status != StatusDone {
				t.Fatalf("%s: finished %s (%s), want done", name, fin.Status, fin.Error)
			}
			return fetchResult(t, ts, v.ID)
		}
		incore, durable := run(nil), run(smallStorage())
		if len(durable.Data) != n*n || len(incore.Data) != n*n {
			t.Fatalf("%s: cells in-core=%d durable=%d, want %d", name, len(incore.Data), len(durable.Data), n*n)
		}
		for i := range incore.Data {
			a, b := incore.Data[i], durable.Data[i]
			if (a == nil) != (b == nil) || (a != nil && *a != *b) {
				t.Fatalf("%s: cell %d: in-core %v != durable %v", name, i, a, b)
			}
		}
	}
}

// TestStorageValidation exercises the storage admission rules.
func TestStorageValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		spec Spec
	}{
		{"storage on closure", Spec{Op: "closure", N: 16, Storage: &StorageSpec{OutOfCore: true}}},
		{"storage on matrixchain", Spec{Op: "matrixchain", Dims: []int{2, 3, 4}, Storage: &StorageSpec{OutOfCore: true}}},
		{"out_of_core false", Spec{Op: "lu", N: 64, Storage: &StorageSpec{}}},
		{"too many stripes", Spec{Op: "lu", N: 64, Storage: &StorageSpec{OutOfCore: true, Stripes: 65}}},
		{"negative stripes", Spec{Op: "lu", N: 64, Storage: &StorageSpec{OutOfCore: true, Stripes: -1}}},
		{"non-pow2 tile", Spec{Op: "lu", N: 64, Storage: &StorageSpec{OutOfCore: true, TileSide: 12}}},
		{"tiny tile", Spec{Op: "lu", N: 64, Storage: &StorageSpec{OutOfCore: true, TileSide: 4}}},
		{"negative cache", Spec{Op: "lu", N: 64, Storage: &StorageSpec{OutOfCore: true, CacheBytes: -1}}},
		{"negative checkpoint", Spec{Op: "lu", N: 64, Storage: &StorageSpec{OutOfCore: true, CheckpointEvery: -1}}},
	}
	for _, tc := range cases {
		resp, _ := postJob(t, ts, tc.spec)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestStorageCapability checks the durability feature-detection
// surface of GET /v1/ops.
func TestStorageCapability(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/ops")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Ops map[string]struct {
			OOC bool `json:"ooc"`
		} `json:"ops"`
		Capabilities []string `json:"capabilities"`
	}
	decodeBody(t, resp, &body)
	durable := false
	for _, c := range body.Capabilities {
		if c == "durability" {
			durable = true
		}
	}
	if !durable {
		t.Fatalf("capabilities %v lack durability", body.Capabilities)
	}
	for _, op := range []string{"multiply", "lu", "gauss", "apsp"} {
		if !body.Ops[op].OOC {
			t.Errorf("op %s should advertise ooc", op)
		}
	}
	for _, op := range []string{"closure", "matrixchain"} {
		if body.Ops[op].OOC {
			t.Errorf("op %s should not advertise ooc", op)
		}
	}
}

// TestStorageDeadlineAborts checks that aborting a job's runtime
// actually stops an out-of-core run: the driver's Stop poll fires at
// the next base-case block and the store unwinds without wedging the
// executor (the write-behind slot accounting survives dropped spawns).
func TestStorageDeadlineAborts(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultWorkers: 1})
	resp, v := postJob(t, ts, Spec{Op: "lu", N: 512, DeadlineMS: 30, Storage: &StorageSpec{
		OutOfCore:  true,
		Stripes:    2,
		TileSide:   16,
		CacheBytes: 64 << 10,
	}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	fin := waitTerminal(t, ts, v.ID)
	if fin.Status != StatusFailed || !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("finished %s (%q), want failed with deadline error", fin.Status, fin.Error)
	}
}

// TestStorageMultiplyAborts runs an out-of-core multiply with each
// engine under a deadline and under DELETE. RunStrassen polls the
// job's abort between tiles, so each job ends failed or canceled
// before its product is done, and the server then completes an
// ordinary job. The times to a terminal state are logged, not
// asserted.
func TestStorageMultiplyAborts(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1, DefaultWorkers: 1})
	for _, engine := range []string{"classical", "strassen"} {
		spec := Spec{Op: "multiply", N: 1024, Seed: 1, Engine: engine, DeadlineMS: 50,
			Storage: &StorageSpec{OutOfCore: true}}
		start := time.Now()
		_, v := postJob(t, ts, spec)
		fin := waitTerminal(t, ts, v.ID)
		if fin.Status != StatusFailed || !strings.Contains(fin.Error, "deadline") {
			t.Fatalf("%s deadline job finished %s (%q), want failed with deadline error", engine, fin.Status, fin.Error)
		}
		t.Logf("%s: deadline job terminal %v after POST (wall %.0f ms)", engine, time.Since(start), fin.WallMS)

		spec.DeadlineMS = 0
		_, v = postJob(t, ts, spec)
		deleteWhenRunning(t, ts, v.ID)
		start = time.Now()
		if fin = waitTerminal(t, ts, v.ID); fin.Status != StatusCanceled {
			t.Fatalf("%s deleted job finished %s (%q), want canceled", engine, fin.Status, fin.Error)
		}
		t.Logf("%s: deleted job terminal %v after DELETE (wall %.0f ms)", engine, time.Since(start), fin.WallMS)
	}
	_, v := postJob(t, ts, Spec{Op: "multiply", N: 64, Seed: 2, Storage: smallStorage()})
	if fin := waitTerminal(t, ts, v.ID); fin.Status != StatusDone {
		t.Fatalf("ordinary job after the aborts finished %s (%q), want done", fin.Status, fin.Error)
	}
}

// TestStressStorageJobs hammers the server with concurrent durable
// jobs on tiny caches — many stores faulting, compressing, and
// journaling in parallel on private runtimes — and checks every job
// completes with the right output shape. Named TestStress* so the CI
// server-stress step picks it up under -race.
func TestStressStorageJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 4, DefaultWorkers: 2, MaxWorkers: 2, QueueDepth: 32})

	const n = 32
	ops := []string{"lu", "gauss", "apsp", "multiply"}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 12; i++ {
		spec := Spec{Op: ops[i%len(ops)], N: n, Seed: int64(i), Storage: &StorageSpec{
			OutOfCore:       true,
			Stripes:         1 + i%3,
			TileSide:        8,
			CacheBytes:      4 << 10, // four 8×8 tiles
			Compress:        i%2 == 0,
			CheckpointEvery: 4,
		}}
		wg.Add(1)
		go func(spec Spec) {
			defer wg.Done()
			resp, v := postJob(t, ts, spec)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs <- errStatus(spec.Op, resp.StatusCode)
				return
			}
			deadline := time.Now().Add(60 * time.Second)
			for time.Now().Before(deadline) {
				got, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
				if err != nil {
					errs <- err
					return
				}
				var jv JobView
				decodeBody(t, got, &jv)
				if jv.Status.Terminal() {
					if jv.Status != StatusDone {
						errs <- errStatus(spec.Op+": "+jv.Error, 0)
					}
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
			errs <- errStatus(spec.Op+": timeout", 0)
		}(spec)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// errStatus builds a compact error for the stress collector.
func errStatus(what string, code int) error {
	if code != 0 {
		return &apiErr{code, "stress", what}
	}
	return &apiErr{500, "stress", what}
}

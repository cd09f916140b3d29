package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStressSubmitDuringShutdown hammers the server with concurrent
// submitters, fires Shutdown mid-flight, and checks the invariants
// that matter under load: every submission either gets a well-formed
// rejection or is admitted, every admitted job reaches a terminal
// state, and the accepted/rejected accounting matches what the server
// retained. Run with -race in CI.
func TestStressSubmitDuringShutdown(t *testing.T) {
	s := New(Config{QueueDepth: 16, MaxConcurrent: 4, DefaultWorkers: 2, RetainJobs: 4096})

	const submitters = 8
	var (
		accepted atomic.Int64
		rejected atomic.Int64
		stop     atomic.Bool
		idsMu    sync.Mutex
		ids      []string
	)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				v, err := s.Submit(Spec{Op: "lu", N: 128, Seed: int64(g*1000 + i)})
				if err != nil {
					var ae *apiErr
					if !errors.As(err, &ae) {
						t.Errorf("submitter %d: non-API error %v", g, err)
						return
					}
					switch ae.status {
					case http.StatusTooManyRequests:
						rejected.Add(1)
						time.Sleep(time.Millisecond)
					case http.StatusServiceUnavailable:
						rejected.Add(1)
						return // draining: this submitter is done
					default:
						t.Errorf("submitter %d: unexpected rejection %d %s", g, ae.status, ae.msg)
						return
					}
					continue
				}
				accepted.Add(1)
				idsMu.Lock()
				ids = append(ids, v.ID)
				idsMu.Unlock()
			}
		}()
	}

	// Let the queue churn, then drain while submitters are still going.
	time.Sleep(150 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	stop.Store(true)
	wg.Wait()

	if accepted.Load() == 0 || rejected.Load() == 0 {
		t.Fatalf("stress did not exercise both paths: accepted=%d rejected=%d",
			accepted.Load(), rejected.Load())
	}
	list := s.List()
	if int64(len(list)) != accepted.Load() {
		t.Fatalf("server retained %d jobs, %d were accepted", len(list), accepted.Load())
	}
	for _, v := range list {
		if !v.Status.Terminal() {
			t.Fatalf("job %s left %s after drain", v.ID, v.Status)
		}
		if v.Status == StatusFailed {
			t.Fatalf("job %s failed under load: %s", v.ID, v.Error)
		}
	}
	// Drained, not aborted: every admitted job actually completed.
	for _, id := range ids {
		if v, ok := s.Get(id); !ok || v.Status != StatusDone {
			t.Fatalf("admitted job %s did not complete (status %v)", id, v.Status)
		}
	}
}

// TestStressResultStream has several readers GET finished results while
// new submissions evict them under RetainJobs: 2. The handler streams
// from the retained cells without the server lock, so every 200 body
// must be whole and equal to the reference; 404 (evicted) and 409 (not
// finished) are the other allowed answers. Run with -race in CI.
func TestStressResultStream(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2, DefaultWorkers: 1, RetainJobs: 2})
	spec := Spec{Op: "apsp", N: 64, Seed: 1}
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, ts, first.ID)
	want, err := s.ResultOf(first.ID)
	if err != nil {
		t.Fatal(err)
	}

	const jobs, readers = 30, 4
	var latest atomic.Value
	latest.Store(first.ID)
	var served, evicted atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				id := latest.Load().(string)
				resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case err != nil:
					t.Errorf("job %s: reading result: %v", id, err)
					return
				case resp.StatusCode == http.StatusNotFound:
					evicted.Add(1)
				case resp.StatusCode == http.StatusConflict:
				case resp.StatusCode != http.StatusOK:
					t.Errorf("job %s: status %d: %s", id, resp.StatusCode, body)
					return
				default:
					var got Result
					dec := json.NewDecoder(bytes.NewReader(body))
					dec.DisallowUnknownFields()
					if err := dec.Decode(&got); err != nil {
						t.Errorf("job %s: decode: %v", id, err)
						return
					}
					got.ID, got.WallMS = want.ID, want.WallMS
					if !sameResult(&got, want) {
						t.Errorf("job %s: streamed result differs from the reference", id)
						return
					}
					served.Add(1)
				}
			}
		}()
	}
	for k := 0; k < jobs; k++ {
		v, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, ts, v.ID)
		latest.Store(v.ID)
	}
	close(done)
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no result was served")
	}
	t.Logf("%d results served, %d GETs of evicted jobs", served.Load(), evicted.Load())
}

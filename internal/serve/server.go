package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"gep/internal/par"
)

// Config sizes the server's admission control and per-job defaults.
// The zero value is usable: Normalize fills in the defaults below.
type Config struct {
	// QueueDepth bounds the number of admitted-but-not-running jobs;
	// submissions beyond it are rejected with 429 (default 64).
	QueueDepth int
	// MaxConcurrent is the number of executor goroutines, i.e. how
	// many jobs run at once (default 2).
	MaxConcurrent int
	// DefaultWorkers is the per-job runtime worker budget when the
	// spec leaves Workers at 0 (default 2).
	DefaultWorkers int
	// MaxWorkers caps the per-job worker budget a spec may request
	// (default 2×DefaultWorkers).
	MaxWorkers int
	// DefaultDeadline applies when the spec leaves DeadlineMS at 0
	// (default 60s); MaxDeadline caps what a spec may request
	// (default 10×DefaultDeadline).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxN caps the accepted problem side; larger jobs get 413
	// (default 4096). It also sets the request body cap (maxBody) and
	// the body's budget of array cells (maxCells).
	MaxN int
	// RetainJobs bounds how many finished jobs stay queryable before
	// the oldest are evicted (default 256).
	RetainJobs int
}

// Normalize fills zero fields with the documented defaults and
// returns the result.
func (c Config) Normalize() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.DefaultWorkers <= 0 {
		c.DefaultWorkers = 2
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 2 * c.DefaultWorkers
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 60 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 10 * c.DefaultDeadline
	}
	if c.MaxN <= 0 {
		c.MaxN = 4096
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 256
	}
	return c
}

// bodyCellBytes is the request body budget per input cell. json.Marshal
// and other compact encoders need at most 25 bytes (the longest
// float64, 24, and its comma); the other 7 leave room for a newline and
// six spaces of indentation. bodySlack covers the members other than
// the two arrays.
const (
	bodyCellBytes = 32
	bodySlack     = 1 << 20
)

// maxCells is MaxN², the most cells one input array of an admissible
// job holds. A body with more commas than two such arrays need gets
// 413 before it is decoded (decodeSpec).
func (c Config) maxCells() int {
	n := min(c.MaxN, 1<<24) // keeps the products in range; no host holds a 2^24 side
	return n * n
}

// maxBody caps a POST /v1/jobs body: two maxCells arrays at
// bodyCellBytes per cell, plus bodySlack. Longer bodies get 413.
func (c Config) maxBody() int64 {
	return 2*int64(c.maxCells())*bodyCellBytes + bodySlack
}

// apiErr is a client-facing rejection: an HTTP status plus the
// machine-readable code and message rendered into the error body.
type apiErr struct {
	status int
	code   string
	msg    string
}

func (e *apiErr) Error() string { return e.msg }

// Server owns the job queue and executors. Create with New, expose
// over HTTP via Handler, stop with Shutdown.
type Server struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // job ids in admission order, for listing and eviction
	seq      int
	draining bool

	queue chan *Job
	wg    sync.WaitGroup // executor goroutines
}

// New builds a Server from cfg (zero fields defaulted) and starts its
// executor goroutines.
func New(cfg Config) *Server {
	s := &Server{
		cfg:   cfg.Normalize(),
		jobs:  make(map[string]*Job),
		queue: make(chan *Job, cfg.Normalize().QueueDepth),
	}
	for i := 0; i < s.cfg.MaxConcurrent; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	return s
}

// Config returns the server's normalized configuration.
func (s *Server) Config() Config { return s.cfg }

// Submit validates and admits a job, returning its queued view. The
// returned error, when non-nil, is an *apiErr carrying the HTTP
// status the handler should send.
func (s *Server) Submit(spec Spec) (JobView, error) {
	if err := spec.validate(s.cfg.MaxN); err != nil {
		return JobView{}, &apiErr{http.StatusBadRequest, "invalid_request", err.Error()}
	}
	if spec.tooLarge(s.cfg.MaxN) {
		return JobView{}, &apiErr{http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("n = %d exceeds the server cap %d", spec.N, s.cfg.MaxN)}
	}
	if spec.Workers < 0 || spec.Workers > s.cfg.MaxWorkers {
		return JobView{}, &apiErr{http.StatusBadRequest, "invalid_request",
			fmt.Sprintf("workers = %d out of range [0, %d]", spec.Workers, s.cfg.MaxWorkers)}
	}
	if spec.DeadlineMS < 0 || time.Duration(spec.DeadlineMS)*time.Millisecond > s.cfg.MaxDeadline {
		return JobView{}, &apiErr{http.StatusBadRequest, "invalid_request",
			fmt.Sprintf("deadline_ms = %d out of range [0, %d]", spec.DeadlineMS, s.cfg.MaxDeadline.Milliseconds())}
	}

	j := &Job{
		spec:     spec,
		workers:  spec.Workers,
		deadline: time.Duration(spec.DeadlineMS) * time.Millisecond,
		status:   StatusQueued,
		queuedAt: time.Now(),
	}
	if j.workers == 0 {
		j.workers = s.cfg.DefaultWorkers
	}
	if j.deadline == 0 {
		j.deadline = s.cfg.DefaultDeadline
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobView{}, &apiErr{http.StatusServiceUnavailable, "draining",
			"server is shutting down and not accepting jobs"}
	}
	s.seq++
	j.id = fmt.Sprintf("j%d", s.seq)
	select {
	case s.queue <- j:
	default:
		return JobView{}, &apiErr{http.StatusTooManyRequests, "queue_full",
			fmt.Sprintf("job queue is full (%d queued)", s.cfg.QueueDepth)}
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	return j.view(), nil
}

// evictLocked drops the oldest terminal jobs beyond the retention
// bound; the caller holds s.mu.
func (s *Server) evictLocked() {
	excess := len(s.order) - s.cfg.RetainJobs
	for i := 0; excess > 0 && i < len(s.order); {
		j := s.jobs[s.order[i]]
		if !j.status.Terminal() {
			i++
			continue
		}
		delete(s.jobs, j.id)
		s.order = append(s.order[:i], s.order[i+1:]...)
		excess--
	}
}

// runJob executes one job on an executor goroutine: fresh runtime,
// deadline watcher, outcome classification, metrics snapshot.
func (s *Server) runJob(j *Job) {
	s.mu.Lock()
	if j.canceled || j.status.Terminal() {
		s.finishLocked(j, StatusCanceled, "canceled before start")
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), j.deadline)
	rt := par.NewRuntime(j.workers)
	j.status = StatusRunning
	j.startedAt = time.Now()
	j.cancel = cancel
	j.rt = rt
	s.mu.Unlock()

	// The watcher maps deadline expiry or an explicit cancel onto a
	// best-effort runtime abort, which unwinds the recursion without
	// waiting for it to finish naturally. watchDone is closed before
	// the cleanup cancel(), but a select between two ready channels
	// picks randomly — so on ctx.Done the watcher re-checks watchDone
	// before aborting, else a completed job could be aborted by its
	// own cleanup and misreported as canceled. runJob waits for the
	// watcher to exit before classifying, so no abort can land after
	// the rt.Aborted() read.
	watchDone := make(chan struct{})
	watcherExited := make(chan struct{})
	go func() {
		defer close(watcherExited)
		select {
		case <-ctx.Done():
			select {
			case <-watchDone:
				// Execution already finished; nothing to abort.
			default:
				rt.Abort()
			}
		case <-watchDone:
		}
	}()

	start := time.Now()
	out, err := j.spec.execute(rt)
	wall := time.Since(start)
	close(watchDone)
	cancel()
	<-watcherExited

	s.mu.Lock()
	defer s.mu.Unlock()
	j.wall = wall
	j.metrics = rt.Metrics().Snapshot()
	rt.Close()
	j.rt = nil
	j.cancel = nil
	switch {
	case rt.Aborted() && ctx.Err() == context.DeadlineExceeded:
		s.finishLocked(j, StatusFailed, fmt.Sprintf("deadline exceeded after %v", j.deadline))
	case rt.Aborted():
		s.finishLocked(j, StatusCanceled, "canceled")
	case err != nil:
		s.finishLocked(j, StatusFailed, err.Error())
	default:
		out.ID, out.Op, out.N = j.id, j.spec.Op, j.spec.N
		out.WallMS = float64(wall) / float64(time.Millisecond)
		j.out = out
		s.finishLocked(j, StatusDone, "")
	}
}

// finishLocked moves a job to a terminal state and releases its
// inputs; the caller holds s.mu.
func (s *Server) finishLocked(j *Job, st Status, msg string) {
	if j.status.Terminal() {
		return
	}
	j.status = st
	j.err = msg
	j.finishedAt = time.Now()
	j.spec.Data, j.spec.A, j.spec.B = nil, nil, nil
}

// Get returns the status view of one job.
func (s *Server) Get(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// List returns every retained job in admission order.
func (s *Server) List() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].view())
	}
	return out
}

// ResultOf returns a finished job's result, building Data from the
// retained cells. The error is an *apiErr when the job is unknown or
// not finished.
func (s *Server) ResultOf(id string) (*Result, error) {
	out, err := s.output(id)
	if err != nil {
		return nil, err
	}
	res := out.Result
	res.Data = boxed(out.cells)
	return &res, nil
}

// output returns a finished job's retained output, which stays valid
// and unchanged after the job is evicted.
func (s *Server) output(id string) (*output, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, &apiErr{http.StatusNotFound, "not_found", fmt.Sprintf("no job %q", id)}
	}
	if !j.status.Terminal() {
		return nil, &apiErr{http.StatusConflict, "not_finished",
			fmt.Sprintf("job %s is %s; poll status or stream events until it finishes", id, j.status)}
	}
	if j.out == nil {
		return nil, &apiErr{http.StatusConflict, j.err, fmt.Sprintf("job %s %s: %s", id, j.status, j.err)}
	}
	return j.out, nil
}

// Cancel stops a job: a queued job is finalized immediately, a
// running one has its runtime aborted. Canceling a terminal job is a
// no-op; an unknown id is an error.
func (s *Server) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, &apiErr{http.StatusNotFound, "not_found", fmt.Sprintf("no job %q", id)}
	}
	switch {
	case j.status == StatusQueued:
		j.canceled = true
		s.finishLocked(j, StatusCanceled, "canceled while queued")
	case j.status == StatusRunning:
		j.canceled = true
		j.cancel() // the watcher aborts the runtime
	}
	return j.view(), nil
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown stops admission and drains: queued and running jobs keep
// going until done. If ctx expires first, everything still in flight
// is canceled (running runtimes aborted) and Shutdown waits for the
// executors to wind down before returning ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	close(s.queue) // Submit checks draining under the same mutex before sending
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}

	s.mu.Lock()
	for _, id := range s.order {
		j := s.jobs[id]
		switch j.status {
		case StatusQueued:
			j.canceled = true
			s.finishLocked(j, StatusCanceled, "canceled by shutdown")
		case StatusRunning:
			j.canceled = true
			j.cancel()
		}
	}
	s.mu.Unlock()
	<-done // aborts make the remaining executor work bounded
	return ctx.Err()
}

package serve

import (
	"context"
	"time"

	"gep/internal/par"
)

// Status is a job's lifecycle state. Transitions only move forward:
// queued → running → one of the three terminal states.
type Status string

// The job lifecycle states.
const (
	// StatusQueued: admitted, waiting for an executor slot.
	StatusQueued Status = "queued"
	// StatusRunning: executing on its own par.Runtime.
	StatusRunning Status = "running"
	// StatusDone: finished; the result is available.
	StatusDone Status = "done"
	// StatusFailed: finished with an error (including a missed
	// deadline); Error carries the reason.
	StatusFailed Status = "failed"
	// StatusCanceled: canceled by DELETE /v1/jobs/{id} or by shutdown
	// before completing.
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Job is one admitted job. All mutable state is guarded by the
// server's mutex (jobs are few and transitions rare; the hot path —
// the computation itself — never touches it).
type Job struct {
	id       string
	spec     Spec
	workers  int
	deadline time.Duration

	status     Status
	err        string
	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time

	// cancel interrupts the running job's context; set while running.
	cancel context.CancelFunc
	// canceled records a cancel request that arrived while queued.
	canceled bool
	// rt is the job's isolated runtime while running; its metrics
	// registry is snapshotted into metrics at finish.
	rt      *par.Runtime
	metrics map[string]int64
	out     *output
	wall    time.Duration
}

// JobView is the wire representation of a job's status: the body of
// GET /v1/jobs/{id} and the elements of GET /v1/jobs.
type JobView struct {
	// ID is the server-assigned job identifier.
	ID string `json:"id"`
	// Op and N echo the submitted spec.
	Op string `json:"op"`
	N  int    `json:"n,omitempty"`
	// Status is the lifecycle state; Error is set when Status is
	// "failed" or "canceled".
	Status Status `json:"status"`
	Error  string `json:"error,omitempty"`
	// Workers is the job's isolated worker budget; DeadlineMS the
	// effective deadline.
	Workers    int   `json:"workers"`
	DeadlineMS int64 `json:"deadline_ms"`
	// QueuedAt / StartedAt / FinishedAt are RFC 3339 timestamps;
	// empty until reached.
	QueuedAt   string `json:"queued_at"`
	StartedAt  string `json:"started_at,omitempty"`
	FinishedAt string `json:"finished_at,omitempty"`
	// WallMS is the execution wall time (set once finished).
	WallMS float64 `json:"wall_ms,omitempty"`
	// Tasks counts fork-join tasks the job's runtime has executed so
	// far — the live progress signal streamed by /events.
	Tasks int64 `json:"tasks,omitempty"`
	// Metrics is the job runtime's full "par.*" counter snapshot,
	// attached once the job finishes.
	Metrics map[string]int64 `json:"metrics,omitempty"`
}

// view renders the job's current state; the caller holds the server
// mutex.
func (j *Job) view() JobView {
	v := JobView{
		ID:         j.id,
		Op:         j.spec.Op,
		N:          j.spec.N,
		Status:     j.status,
		Error:      j.err,
		Workers:    j.workers,
		DeadlineMS: j.deadline.Milliseconds(),
		QueuedAt:   j.queuedAt.UTC().Format(time.RFC3339Nano),
	}
	if !j.startedAt.IsZero() {
		v.StartedAt = j.startedAt.UTC().Format(time.RFC3339Nano)
	}
	if !j.finishedAt.IsZero() {
		v.FinishedAt = j.finishedAt.UTC().Format(time.RFC3339Nano)
		v.WallMS = float64(j.wall) / float64(time.Millisecond)
	}
	if j.status.Terminal() {
		v.Metrics = j.metrics
		v.Tasks = j.metrics["par.spawn.pooled"] + j.metrics["par.spawn.inline"]
	} else if j.rt != nil {
		s := j.rt.Metrics().Snapshot()
		v.Tasks = s["par.spawn.pooled"] + s["par.spawn.inline"]
	}
	return v
}

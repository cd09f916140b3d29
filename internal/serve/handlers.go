package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"time"

	"gep/internal/metrics"
)

// eventInterval is the SSE status-poll cadence of /events.
const eventInterval = 100 * time.Millisecond

// maxHint bounds the request body buffer handleSubmit sizes from the
// declared Content-Length: room for two n = 256 matrices.
const maxHint = 4 << 20

// Handler returns the server's route table. Endpoints, bodies and
// error codes are documented in docs/API.md; that file's curl
// examples are replayed against this handler by api_examples_test.go.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/ops", s.handleOps)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

// writeJSON sends v with the given status as a JSON body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeErr renders err as the documented error envelope
// {"error":{"code":..., "message":...}}, mapping *apiErr to its HTTP
// status and anything else to 500.
func writeErr(w http.ResponseWriter, err error) {
	var ae *apiErr
	if !errors.As(err, &ae) {
		ae = &apiErr{http.StatusInternalServerError, "internal", err.Error()}
	}
	if ae.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, ae.status, map[string]any{
		"error": map[string]string{"code": ae.code, "message": ae.msg},
	})
}

// handleOps describes the submittable operations: their admission
// constraints, the engine names the "engine" field accepts where an op
// has selectable algorithms — multiply advertises "strassen": true so
// clients can feature-detect the sub-cubic path — and "ooc": true on
// ops that accept a "storage" object (the durable out-of-core path).
// The top-level "capabilities" list lets clients feature-detect server
// facilities that cut across ops; "durability" means StorageSpec jobs
// run on checksummed, journaled striped stores.
func (s *Server) handleOps(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{}
	for name, op := range ops {
		info := map[string]any{"pow2": op.pow2, "needs_n": op.needsN, "ooc": op.ooc}
		if len(op.engines) > 0 {
			info["engines"] = op.engines
			info["strassen"] = slices.Contains(op.engines, "strassen")
		}
		if len(op.pivots) > 0 {
			info["pivots"] = op.pivots
		}
		out[name] = info
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ops":          out,
		"capabilities": []string{"durability"},
	})
}

// handleSubmit reads the body whole, up to Config.maxBody (413 past
// it, before reading when the declared length is past it), and decodes
// it with decodeSpec. The buffer grows as bytes arrive; the declared
// length presizes it only up to maxHint, so an idle request holds no
// more than that.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	limit := s.cfg.maxBody()
	tooLarge := &apiErr{http.StatusRequestEntityTooLarge, "too_large",
		fmt.Sprintf("request body exceeds the server cap of %d bytes", limit)}
	if r.ContentLength > limit {
		writeErr(w, tooLarge)
		return
	}
	body := bytes.NewBuffer(make([]byte, 0, bytes.MinRead+min(max(r.ContentLength, 0), maxHint)))
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			writeErr(w, tooLarge)
		} else {
			writeErr(w, &apiErr{http.StatusBadRequest, "invalid_request", "reading body: " + err.Error()})
		}
		return
	}
	spec, err := decodeSpec(body.Bytes(), s.cfg.maxCells())
	switch {
	case errors.Is(err, errTooManyCells):
		writeErr(w, &apiErr{http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("request body holds more than two arrays of max-n² = %d cells", s.cfg.maxCells())})
		return
	case err != nil:
		writeErr(w, &apiErr{http.StatusBadRequest, "invalid_request", "bad JSON body: " + err.Error()})
		return
	}
	v, err := s.Submit(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+v.ID)
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.List()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	v, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, &apiErr{http.StatusNotFound, "not_found", "no job " + strconv.Quote(r.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleResult streams the result as compact JSON straight from the
// retained cells, without holding s.mu.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	out, err := s.output(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// A write error means the client went away after the status was
	// sent; there is no one left to tell.
	_ = streamResult(w, &out.Result, out.cells)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	v, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleEvents streams the job's status as server-sent events: one
// "status" event per poll tick while the job is live, then a final
// "done" event carrying the terminal view, then the stream closes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Get(id); !ok {
		writeErr(w, &apiErr{http.StatusNotFound, "not_found", "no job " + strconv.Quote(id)})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, &apiErr{http.StatusInternalServerError, "internal", "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func(event string, v JobView) {
		b, _ := json.Marshal(v)
		w.Write([]byte("event: " + event + "\ndata: "))
		w.Write(b)
		w.Write([]byte("\n\n"))
		fl.Flush()
	}
	t := time.NewTicker(eventInterval)
	defer t.Stop()
	for {
		v, ok := s.Get(id)
		if !ok { // evicted mid-stream
			return
		}
		if v.Status.Terminal() {
			emit("done", v)
			return
		}
		emit("status", v)
		select {
		case <-r.Context().Done():
			return
		case <-t.C:
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

// handleMetrics reports the process-wide counter aggregate (the
// default registry, also published on /debug/vars as "gep.metrics")
// alongside each retained job's private runtime counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make(map[string]map[string]int64)
	for _, id := range s.order {
		j := s.jobs[id]
		if j.status.Terminal() {
			if len(j.metrics) > 0 {
				jobs[id] = j.metrics
			}
		} else if j.rt != nil {
			jobs[id] = j.rt.Metrics().Snapshot()
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"aggregate": metrics.Snapshot(),
		"jobs":      jobs,
	})
}

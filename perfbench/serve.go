package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"gep/internal/metrics"
	"gep/internal/serve"
)

// serve-jobs: a gep-server process built from this checkout, started
// with one executor and a 2-worker budget per job, driven on loopback by
// a closed loop of serveClients connections. Each client posts an
// explicit-data job, polls its result every pollInterval until it gets
// 200, reads the body to the last byte, then submits its next job. The
// ops rotate lu, multiply, apsp, closure; request bodies are encoded
// before the timed phase and results are verified after it.

const (
	servePool    = 4
	serveClients = 2
	pollInterval = 5 * time.Millisecond
	jobTimeout   = 60 * time.Second
)

var serveOps = []string{"lu", "multiply", "apsp", "closure"}

// classOf maps a service op to its op class.
func classOf(op string) string {
	if op == "multiply" {
		return "mm"
	}
	return op
}

// serveInput is one encoded request and the input its oracle needs.
type serveInput struct {
	op   string
	p    int
	body []byte
	a, b []float64 // a: the single input (apsp: weights, +Inf = no edge); b: multiply's second operand
}

func makeServeInputs(n int, seed int64) map[string][]*serveInput {
	in := map[string][]*serveInput{}
	for p := 0; p < servePool; p++ {
		rng := newRand(seed, 400+int64(p))
		for _, op := range serveOps {
			si := &serveInput{op: op, p: p}
			spec := serve.Spec{Op: op, N: n}
			switch op {
			case "lu":
				si.a = dominant(rng, n)
				spec.Data = si.a
			case "multiply":
				si.a, si.b = uniform(rng, n), uniform(rng, n)
				spec.A, spec.B = si.a, si.b
			case "apsp":
				si.a = weights(rng, n, 0.25)
				spec.Data = make([]float64, n*n) // 0 off the diagonal = no edge
				for i, w := range si.a {
					if !math.IsInf(w, 1) {
						spec.Data[i] = w
					}
				}
			case "closure":
				si.a = adjacency(rng, n, 2)
				spec.Data = si.a
			}
			var err error
			if si.body, err = json.Marshal(spec); err != nil {
				panic(err) // plain float slices always encode
			}
			in[op] = append(in[op], si)
		}
	}
	return in
}

// server is a running gep-server process.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	exited chan struct{}
	err    error // Wait's result, set before exited closes
}

// startServer execs bin on a free loopback port and waits until
// /healthz answers 200.
func startServer(bin string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		s := &server{base: "http://127.0.0.1:" + port, exited: make(chan struct{})}
		s.cmd = exec.Command(bin, "-addr", "127.0.0.1:"+port, "-max-concurrent", "1", "-workers-per-job", "2")
		s.cmd.Stderr = &s.stderr
		// The server must not outlive the benchmark, even one that dies.
		s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := s.cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", bin, err)
		}
		go func() {
			s.err = s.cmd.Wait()
			close(s.exited)
		}()
		if lastErr = s.awaitHealthy(30 * time.Second); lastErr == nil {
			return s, nil
		}
		s.stop()
	}
	return nil, lastErr
}

func (s *server) awaitHealthy(limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("gep-server exited before answering /healthz: %v: %s", s.err, s.stderr.String())
		default:
		}
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("gep-server did not answer /healthz within %v", limit)
}

// stop asks the server to drain and exit, killing it if it does not,
// and returns once the process has ended.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	_, port, err := net.SplitHostPort(l.Addr().String())
	return port, err
}

// client is one closed-loop caller on its own connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: jobTimeout}, base: base}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// jobSample is one job as the client saw it.
type jobSample struct {
	in                      *serveInput
	traced                  bool
	t0, t1, tg, tEnd, tNext time.Time // POST sent, POST answered, successful GET sent, its last byte, ready for the next job
	polls                   int
	respBytes               int
	view                    *serve.JobView // traced jobs only
	body                    []byte         // kept for the oracle when first of its group
	digest                  uint64
	err                     error
}

func (j *jobSample) latency() time.Duration { return j.tEnd.Sub(j.t0) }

// job runs one job from POST to the last result byte. A traced job also
// fetches its JobView afterwards for the server-side timestamps.
func (c *client) job(in *serveInput, traced, keep bool) *jobSample {
	j := &jobSample{in: in, traced: traced}
	j.t0 = time.Now()
	j.err = c.run(j)
	if !keep {
		j.body = nil
	}
	j.tNext = time.Now()
	return j
}

func (c *client) run(j *jobSample) error {
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(j.in.body))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.t1 = time.Now()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, body)
	}
	var v serve.JobView
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("POST /v1/jobs: %w", err)
	}
	for {
		if time.Since(j.t0) > jobTimeout {
			return fmt.Errorf("job %s: no result after %v", v.ID, jobTimeout)
		}
		j.tg = time.Now()
		resp, err := c.hc.Get(c.base + "/v1/jobs/" + v.ID + "/result")
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		j.tEnd = time.Now()
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusOK {
			j.respBytes = len(body)
			j.body = body
			break
		}
		var e struct {
			Error struct{ Code, Message string } `json:"error"`
		}
		if resp.StatusCode != http.StatusConflict || json.Unmarshal(body, &e) != nil || e.Error.Code != "not_finished" {
			return fmt.Errorf("GET result of %s: %s: %s", v.ID, resp.Status, body)
		}
		j.polls++
		time.Sleep(pollInterval)
	}
	if j.traced {
		resp, err := c.hc.Get(c.base + "/v1/jobs/" + v.ID)
		if err != nil {
			return err
		}
		err = json.NewDecoder(resp.Body).Decode(&j.view)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("GET /v1/jobs/%s: %w", v.ID, err)
		}
	}
	data, err := dataSection(j.body)
	if err != nil {
		return err
	}
	j.digest = digestBytes(data)
	return nil
}

// dataSection returns the bytes of the result's "data" array: the part
// that must be identical for identical inputs.
func dataSection(body []byte) ([]byte, error) {
	i := bytes.Index(body, []byte(`"data":`))
	if i < 0 {
		return nil, errors.New("result has no data")
	}
	open := bytes.IndexByte(body[i:], '[')
	end := bytes.IndexByte(body[i:], ']')
	if open < 0 || end < open {
		return nil, errors.New("result data is not an array")
	}
	return body[i+open : i+end+1], nil
}

// serveRunner holds the state of one serve-jobs run.
type serveRunner struct {
	cfg    config
	n      int
	rep    *report
	ver    *verifier
	inputs map[string][]*serveInput

	mu   sync.Mutex
	kept map[string]bool // groups whose reference body is claimed
}

// claim reports whether this job should keep its body as the group's
// reference (the first job of each op and input does).
func (s *serveRunner) claim(in *serveInput) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := fmt.Sprintf("%s/%d", in.op, in.p)
	if s.kept[key] {
		return false
	}
	s.kept[key] = true
	return true
}

// record counts a finished job and hands its output to the verifier.
func (s *serveRunner) record(j *jobSample) {
	s.rep.attempts++
	if j.err != nil {
		s.rep.fail("%s input %d: %v", j.in.op, j.in.p, j.err)
		return
	}
	in, n := j.in, s.n
	body := j.body
	keep := func() []float64 {
		var res serve.Result
		if err := json.Unmarshal(body, &res); err != nil {
			return nil
		}
		out := make([]float64, len(res.Data))
		for i, v := range res.Data {
			if v == nil {
				out[i] = math.Inf(1)
			} else {
				out[i] = *v
			}
		}
		return out
	}
	rng := newRand(s.cfg.Seed, 500+int64(in.p))
	var check func([]float64) error
	switch in.op {
	case "lu":
		check = func(out []float64) error { return checkLUFactors(in.a, out, n, rng) }
	case "multiply":
		check = func(out []float64) error { return checkProduct(in.a, in.b, out, n, rng) }
	case "apsp":
		check = func(out []float64) error { return checkDistanceRows(in.a, out, n, sampleSources(rng, n, 8)) }
	case "closure":
		check = func(out []float64) error { return checkClosureRows(in.a, out, n, sampleSources(rng, n, 8)) }
	}
	sized := func(out []float64) error {
		if len(out) != n*n {
			return fmt.Errorf("result has %d cells, want %d", len(out), n*n)
		}
		return check(out)
	}
	if body == nil {
		keep = nil
	}
	s.ver.add(classOf(in.op), in.p, j.digest, keep, sized)
	j.body = nil
}

func runServe(cfg config) (*report, error) {
	rep := newReport(wServe)
	bin, err := filepath.Abs(cfg.Server)
	if err != nil {
		return nil, err
	}
	s := &serveRunner{cfg: cfg, n: cfg.ServeN, rep: rep, ver: newVerifier(), kept: map[string]bool{}}
	s.inputs = makeServeInputs(s.n, cfg.Seed)

	var srv *server
	for k := 0; k < cfg.Setups; k++ {
		start := time.Now()
		if srv, err = startServer(bin); err != nil {
			return nil, err
		}
		c := newClient(srv.base)
		for _, op := range serveOps {
			in := s.inputs[op][k%servePool]
			j := c.job(in, false, s.claim(in))
			s.record(j)
		}
		rep.setups = append(rep.setups, time.Since(start).Seconds())
		c.close()
		if k < cfg.Setups-1 {
			srv.stop()
		}
	}
	defer srv.stop()

	var before map[string]int64
	if cfg.Trace {
		if before, err = serverCounters(srv.base); err != nil {
			return nil, err
		}
	}
	rssErr := resetPeakRSS(srv.cmd.Process.Pid)
	jobs := make([][]*jobSample, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(srv.base)
			defer cl.close()
			for k := 0; k == 0 || time.Now().Before(deadline) || (cfg.Trace && k < 2*len(serveOps)); k++ {
				op := serveOps[(k+2*c)%len(serveOps)]
				rot := k / len(serveOps)
				in := s.inputs[op][(rot*serveClients+c)%servePool]
				jobs[c] = append(jobs[c], cl.job(in, cfg.Trace && rot%2 == 0, s.claim(in)))
			}
		}(c)
	}
	wg.Wait()
	rep.wall = time.Since(start).Seconds()
	if rep.peakRSS, err = peakRSSMiB(srv.cmd.Process.Pid); err != nil {
		return nil, err
	}
	if rssErr != nil {
		rep.note("gep-server peak RSS not reset before the timed phase (%v): it includes set-up", rssErr)
	}
	var after map[string]int64
	if cfg.Trace {
		if after, err = serverCounters(srv.base); err != nil {
			return nil, err
		}
	}

	var all []*jobSample
	for _, js := range jobs {
		all = append(all, js...)
	}
	var lat []float64
	for _, j := range all {
		s.record(j)
		if j.err == nil {
			rep.ops++
			cl := classOf(j.in.op)
			rep.samples[cl] = append(rep.samples[cl], j.latency().Seconds())
			lat = append(lat, float64(j.latency())/float64(time.Millisecond))
		}
	}
	s.ver.verify(rep, cfg.corrupt)

	rep.e2e["latency_p50_ms"] = median(lat)
	if p, v, beyond, ok := tail(lat); ok {
		rep.e2e["latency_tail_ms"] = v
		rep.note("latency_tail_ms is p%d of %d jobs (%d beyond it)", p, len(lat), beyond)
	} else {
		rep.note("latency_tail_ms: fewer than 11 jobs")
	}
	rep.e2e["apsp_s"] = median(rep.samples["apsp"])
	rep.e2e["closure_s"] = median(rep.samples["closure"])
	rep.note("jobs: %d by %d clients; poll interval %v; n = %d; inputs per op: %d", len(all), serveClients, pollInterval, s.n, servePool)
	if cfg.Trace {
		tr := &tracer{}
		s.layers(all, tr, metrics.Diff(before, after))
		if err := tr.write(filepath.Join(cfg.Out, "traces", traceName(cfg))); err != nil {
			return nil, err
		}
		printSelfTimes(rep, tr)
	}
	return rep, nil
}

// serverCounters reads the server process's counter aggregate.
func serverCounters(base string) (map[string]int64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m struct {
		Aggregate map[string]int64 `json:"aggregate"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return m.Aggregate, nil
}

// layers fills the serve per-layer metrics. Each traced job becomes a
// root span from POST to the last byte with five children: submit (the
// POST round trip), queue and exec (from the JobView timestamps),
// discover (finished_at to the successful GET) and fetch (that GET to
// its last byte).
func (s *serveRunner) layers(all []*jobSample, tr *tracer, counters map[string]int64) {
	L := s.rep.layer
	var submit, queue, exec, discover, fetch, lat []float64
	var sumExec, sumLat, sumCovered, tasks, pooled, steals, traced float64
	var polls, reqBytes, respBytes float64
	byTrace := map[bool]map[string][]float64{false: {}, true: {}}
	done := 0
	for _, j := range all {
		if j.err != nil {
			continue
		}
		done++
		polls += float64(j.polls)
		reqBytes += float64(len(j.in.body))
		respBytes += float64(j.respBytes)
		lat = append(lat, ms(j.latency()))
		cl := classOf(j.in.op)
		byTrace[j.traced][cl] = append(byTrace[j.traced][cl], j.tNext.Sub(j.t0).Seconds())
		if j.view == nil {
			continue
		}
		queued, e1 := time.Parse(time.RFC3339Nano, j.view.QueuedAt)
		started, e2 := time.Parse(time.RFC3339Nano, j.view.StartedAt)
		finished, e3 := time.Parse(time.RFC3339Nano, j.view.FinishedAt)
		if e1 != nil || e2 != nil || e3 != nil {
			s.rep.note("job %s: unparsable timestamps", j.view.ID)
			continue
		}
		traced++
		op := j.view.ID
		root := tr.add("serve.job", op, 0, j.t0, j.tEnd)
		kids := []span{
			{Name: "serve.submit", Start: j.t0, End: j.t1},
			{Name: "serve.queue", Start: queued, End: started},
			{Name: "serve.exec", Start: started, End: finished},
			// A poll sent just before the job finished can be the one
			// that succeeds: discover is then empty.
			{Name: "serve.discover", Start: finished, End: latest(finished, j.tg)},
			{Name: "serve.fetch", Start: j.tg, End: j.tEnd},
		}
		for _, k := range kids {
			tr.add(k.Name, op, root, k.Start, k.End)
		}
		submit = append(submit, ms(j.t1.Sub(j.t0)))
		queue = append(queue, ms(started.Sub(queued)))
		exec = append(exec, ms(finished.Sub(started)))
		discover = append(discover, math.Max(0, ms(j.tg.Sub(finished))))
		fetch = append(fetch, ms(j.tEnd.Sub(j.tg)))
		sumExec += finished.Sub(started).Seconds()
		sumLat += j.latency().Seconds()
		sumCovered += covered(j.t0, j.tEnd, kids).Seconds()
		tasks += float64(j.view.Tasks)
		pooled += float64(j.view.Metrics["par.spawn.pooled"])
		steals += float64(j.view.Metrics["par.steal"])
	}
	L["serve.latency_p50_ms"] = median(lat)
	if _, v, _, ok := tail(lat); ok {
		L["serve.latency_tail_ms"] = v
	}
	L["serve.apsp_s"] = median(s.rep.samples["apsp"])
	L["serve.closure_s"] = median(s.rep.samples["closure"])
	L["serve.submit_ms"] = median(submit)
	L["serve.queue_ms"] = median(queue)
	L["serve.exec_ms"] = median(exec)
	L["serve.discover_ms"] = median(discover)
	L["serve.fetch_ms"] = median(fetch)
	L["serve.request_bytes"] = ratio(reqBytes, float64(done))
	L["serve.response_bytes"] = ratio(respBytes, float64(done))
	L["serve.polls_per_job"] = ratio(polls, float64(done))
	L["serve.par_tasks_per_job"] = ratio(tasks, traced)
	L["serve.par_steal_ratio"] = ratio(steals, pooled)
	L["serve.exec_share"] = ratio(sumExec, sumLat)
	L["serve.span_coverage"] = ratio(sumCovered, sumLat)
	counterLayers(L, counters, done)
	L["trace.overhead"] = traceOverhead(byTrace)
	s.rep.note("traced jobs: %d of %d", int(traced), done)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func latest(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

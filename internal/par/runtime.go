package par

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"gep/internal/metrics"
)

// The work-stealing machinery: a long-lived worker set, one LIFO deque
// per worker, randomized FIFO stealing, and a join that helps (executes
// pending tasks) instead of blocking a worker. See DESIGN.md §11 for
// why this preserves the cache arguments of Lemmas 3.1/3.2, and §14
// for the isolation argument of per-Runtime worker sets.

// wtask is one forked task in flight.
type wtask struct {
	fn    func(Ctx)
	depth int32
	done  chan struct{}
}

// deque is one worker's task queue. The owner pushes and pops at the
// tail (LIFO — the most recently forked, cache-hottest subproblem
// first, which at p = 1 reproduces the serial depth-first execution
// order exactly); thieves take from the head (FIFO — the oldest,
// biggest pending subtree, so one steal pays for many local pops).
// A mutex is plenty: pushes happen once per fork-join group above the
// grain, never per element, so contention is unmeasurable next to the
// base-case kernels.
type deque struct {
	mu sync.Mutex
	q  []*wtask
}

func (d *deque) push(t *wtask) {
	d.mu.Lock()
	d.q = append(d.q, t)
	d.mu.Unlock()
}

// pop removes and returns the newest task (owner end), or nil.
func (d *deque) pop() *wtask {
	d.mu.Lock()
	n := len(d.q)
	if n == 0 {
		d.mu.Unlock()
		return nil
	}
	t := d.q[n-1]
	d.q[n-1] = nil
	d.q = d.q[:n-1]
	d.mu.Unlock()
	return t
}

// stealMin removes and returns the oldest task whose fork depth is at
// least min, or nil. Workers steal with min = 0 (plain FIFO); joins
// steal with min = the awaited task's depth ("leapfrogging"), which
// bounds the stack growth of helping: a join only ever executes tasks
// at or below its own position in the fork tree.
func (d *deque) stealMin(min int32) *wtask {
	d.mu.Lock()
	for i, t := range d.q {
		if t.depth >= min {
			copy(d.q[i:], d.q[i+1:])
			d.q[len(d.q)-1] = nil
			d.q = d.q[:len(d.q)-1]
			d.mu.Unlock()
			return t
		}
	}
	d.mu.Unlock()
	return nil
}

// rtCounters is one Runtime's scheduler telemetry, registered in the
// Runtime's metrics registry. The spawn-side pair is exhaustive and
// exclusive: every Ctx.Spawn call increments exactly one of
// par.spawn.pooled (enqueued on a deque) or par.spawn.inline (ran on
// the caller by policy: one worker, closed runtime, or fork depth
// at/past the cutoff). The execution-side trio is exhaustive over
// pooled tasks: par.local (owner popped its own deque), par.steal
// (taken FIFO by another worker), par.help (executed by a goroutine
// waiting inside a join). Once every wait has returned,
// par.local + par.steal + par.help == par.spawn.pooled exactly —
// par_test.go asserts this, including across a SetWorkers resize.
type rtCounters struct {
	pooled      *metrics.Counter
	inline      *metrics.Counter
	localSpawn  *metrics.Counter
	injectSpawn *metrics.Counter
	local       *metrics.Counter
	steal       *metrics.Counter
	help        *metrics.Counter
}

func newRTCounters(reg *metrics.Registry) rtCounters {
	return rtCounters{
		pooled:      reg.Counter("par.spawn.pooled"),
		inline:      reg.Counter("par.spawn.inline"),
		localSpawn:  reg.Counter("par.spawn.local"),
		injectSpawn: reg.Counter("par.spawn.inject"),
		local:       reg.Counter("par.local"),
		steal:       reg.Counter("par.steal"),
		help:        reg.Counter("par.help"),
	}
}

// depthBuckets is the number of exact per-worker depth-histogram
// buckets; executions at depth >= depthBuckets-1 land in the last one.
const depthBuckets = 5

// worker is one long-lived executor goroutine plus its deque.
type worker struct {
	rt    *scheduler
	idx   int
	dq    deque
	seed  uint64
	tasks *metrics.Counter
	// depth[k] counts executed tasks forked at depth k (last bucket:
	// depth >= depthBuckets-1) — the per-worker depth histogram
	// ("par.w<idx>.d<k>") that shows where in the fork tree each
	// worker's share of the A/B/C/D recursion actually ran.
	depth [depthBuckets]*metrics.Counter
}

// scheduler is one generation of a Runtime: the worker set sized at
// creation, its wake channel, and the depth cutoff. SetWorkers installs
// a fresh generation; the old one drains its deques and retires (and
// any task a retiring generation leaves behind is executed by its
// joiner, so no fork is ever lost across a resize). Close retires the
// final generation without a successor.
type scheduler struct {
	owner   *Runtime
	workers []*worker
	wake    chan struct{} // capacity len(workers); wakeOne never blocks
	stop    chan struct{}
	cutoff  int32
}

// Runtime is one instance of the work-stealing fork-join runtime: a
// worker set with its own deques, depth cutoff, and metrics registry.
// Computations fork through the Ctx that Root returns. The
// package-level SetWorkers, ResetWorkers and Workers act on the
// process-wide Default runtime, which sizes itself from GOMAXPROCS
// — the library facade never needs to know runtimes exist. Additional
// runtimes (NewRuntime) give each tenant of a long-lived process an
// isolated worker budget: a job running on a 2-worker Runtime can
// never occupy the workers of another job's Runtime, because tasks are
// only ever pushed to, stolen from, and drained by the deques of the
// runtime they were spawned on (DESIGN.md §14).
//
// All methods are safe for concurrent use.
type Runtime struct {
	mu  sync.Mutex // serializes resizes
	cur atomic.Pointer[scheduler]
	// procs is the GOMAXPROCS value the worker set was sized from, or 0
	// when pinned by SetWorkers/NewRuntime.
	procs   atomic.Int64
	pinned  atomic.Bool
	aborted atomic.Bool
	closed  atomic.Bool
	reg     *metrics.Registry
	c       rtCounters
}

// std is the process-wide default runtime behind the package-level
// functions. Its counters live in metrics.Default under the historical
// names ("par.spawn.pooled", "par.w<i>.tasks", ...), so existing
// telemetry consumers see no change.
var std = newRuntime(0, metrics.Default)

// Default returns the process-wide default runtime — the instance the
// package-level SetWorkers, ResetWorkers and Workers act on. Engine
// entry points that accept an optional *Runtime substitute Default for
// nil.
func Default() *Runtime { return std }

// NewRuntime creates an isolated runtime. workers > 0 pins the worker
// set to exactly that size (the per-job budget of internal/serve);
// workers <= 0 sizes it from GOMAXPROCS and tracks later changes, like
// the default runtime. Close releases the workers when done; an
// unclosed Runtime leaks its worker goroutines (they park on the wake
// channel, holding no CPU, but never exit).
func NewRuntime(workers int) *Runtime {
	return newRuntime(workers, metrics.NewRegistry("par"))
}

func newRuntime(workers int, reg *metrics.Registry) *Runtime {
	r := &Runtime{reg: reg, c: newRTCounters(reg)}
	if workers > 0 {
		r.resize(workers, true)
	} else {
		r.resize(gomaxprocs(), false)
	}
	return r
}

// Metrics returns the runtime's counter registry. For the default
// runtime this is metrics.Default; for a NewRuntime instance it is a
// private scope holding only that runtime's "par.*" counters, which is
// what lets a multi-tenant process attribute scheduler activity per
// job (internal/serve snapshots it into job status).
func (r *Runtime) Metrics() *metrics.Registry { return r.reg }

// resize installs a fresh scheduler generation with n workers. Racing
// resizes serialize on r.mu; the retiring generation is told to stop
// and drains itself.
func (r *Runtime) resize(n int, pin bool) {
	if n < 1 {
		n = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return
	}
	old := r.cur.Load()
	rt := &scheduler{
		owner:   r,
		workers: make([]*worker, n),
		wake:    make(chan struct{}, n),
		stop:    make(chan struct{}),
		cutoff:  autoCutoff(n),
	}
	for i := range rt.workers {
		w := &worker{
			rt:    rt,
			idx:   i,
			seed:  uint64(i)*0x9e3779b97f4a7c15 + 1,
			tasks: r.reg.Counter(fmt.Sprintf("par.w%d.tasks", i)),
		}
		for k := range w.depth {
			w.depth[k] = r.reg.Counter(fmt.Sprintf("par.w%d.d%d", i, k))
		}
		rt.workers[i] = w
	}
	r.cur.Store(rt)
	r.pinned.Store(pin)
	if pin {
		r.procs.Store(0)
	} else {
		r.procs.Store(int64(n))
	}
	for _, w := range rt.workers {
		go w.run()
	}
	if old != nil {
		close(old.stop)
	}
}

// Close retires the runtime's workers: the current generation drains
// its deques and its goroutines exit. After Close, forks still
// execute their tasks (inline on the caller), so late calls stay
// correct; they just no longer parallelize. Close is idempotent and
// must not be called on the default runtime (that would strand the
// whole process's library users), which panics.
func (r *Runtime) Close() {
	if r == std {
		panic("par: Close of the default runtime")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Swap(true) {
		return
	}
	if cur := r.cur.Load(); cur != nil {
		close(cur.stop)
	}
}

// Abort makes the runtime discard work: subsequent forks return
// without running their task, queued tasks complete without executing
// their bodies, and Ctx.Do becomes a no-op. Results computed on an
// aborted runtime are undefined — Abort exists for cancellation paths
// (deadline exceeded, client gone) where the output is discarded
// anyway; it bounds how much of an in-flight recursion still runs by
// cutting every fork-join group it has not yet reached. Aborting the
// default runtime panics for the same reason closing it does. Abort
// does not release the workers; pair it with Close.
func (r *Runtime) Abort() {
	if r == std {
		panic("par: Abort of the default runtime")
	}
	r.aborted.Store(true)
}

// Aborted reports whether Abort has been called. Long base-case hooks
// can poll it to stop early.
func (r *Runtime) Aborted() bool { return r.aborted.Load() }

// autoCutoff picks the fork depth at which Ctx.Spawn switches to inline
// execution: ~log2(p) levels saturate p workers for the binary and
// 4-ary forks of the Figure-6 schedules, and two extra levels keep
// roughly 4-8x parallel slack for stealing to balance, after which
// further forking only adds bookkeeping.
func autoCutoff(workers int) int32 {
	return int32(bits.Len(uint(workers)) + 2)
}

// current returns the live scheduler, first resizing when GOMAXPROCS
// moved since the worker set was built (unless pinned or closed).
func (r *Runtime) current() *scheduler {
	if !r.pinned.Load() && !r.closed.Load() {
		if p := int64(gomaxprocs()); p != r.procs.Load() {
			r.resize(int(p), false)
		}
	}
	return r.cur.Load()
}

// wakeOne nudges one parked worker; a full buffer means at least
// len(workers) wakeups are already pending, so dropping is safe (every
// woken worker rescans all deques before parking again).
func (rt *scheduler) wakeOne() {
	select {
	case rt.wake <- struct{}{}:
	default:
	}
}

// run is the worker main loop: pop own deque LIFO, else steal FIFO
// from a random victim, else park until woken. On stop (a SetWorkers
// resize or Close) the worker drains every deque of its generation and
// exits.
func (w *worker) run() {
	c := &w.rt.owner.c
	for {
		if t := w.dq.pop(); t != nil {
			c.local.Inc()
			w.exec(t)
			continue
		}
		if t := w.rt.stealFor(w); t != nil {
			c.steal.Inc()
			w.exec(t)
			continue
		}
		select {
		case <-w.rt.wake:
		case <-w.rt.stop:
			for {
				t := w.dq.pop()
				if t != nil {
					c.local.Inc()
				} else if t = w.rt.stealFor(w); t != nil {
					c.steal.Inc()
				} else {
					return
				}
				w.exec(t)
			}
		}
	}
}

// rand steps the worker's xorshift64 state: per-worker, no locks, no
// global rand dependency. It drives victim selection for stealing.
func (w *worker) rand() uint64 {
	w.seed ^= w.seed << 13
	w.seed ^= w.seed >> 7
	w.seed ^= w.seed << 17
	return w.seed
}

// stealFor scans the other workers' deques from a random start and
// takes the oldest task of the first non-empty one.
func (rt *scheduler) stealFor(w *worker) *wtask {
	n := len(rt.workers)
	if n < 2 {
		return nil
	}
	start := int(w.rand() % uint64(n))
	for i := 0; i < n; i++ {
		v := rt.workers[(start+i)%n]
		if v == w {
			continue
		}
		if t := v.dq.stealMin(0); t != nil {
			return t
		}
	}
	return nil
}

// injectSeed drives victim selection for spawns from contexts with no
// worker of the live generation (a root, or a retired generation's
// worker), and seeds each join's steal scan.
var injectSeed atomic.Uint64

func injectVictim(rt *scheduler) *worker {
	s := injectSeed.Add(0x9e3779b97f4a7c15)
	return rt.workers[int(s%uint64(len(rt.workers)))]
}

// exec runs one task on a worker, recording the per-worker histogram.
func (w *worker) exec(t *wtask) {
	w.tasks.Inc()
	w.depth[min(int(t.depth), depthBuckets-1)].Inc()
	w.rt.runTask(t, w)
}

// runTask executes the task body on w's goroutine (w nil: a goroutine
// off the worker set), handing it a Ctx at the task's depth, and
// always closes done, so joiners are released even if the body panics
// (the panic then propagates on the executing goroutine). On an
// aborted runtime the body is skipped: the task completes — its
// joiners are released and the accounting invariants hold — without
// doing its work.
func (rt *scheduler) runTask(t *wtask, w *worker) {
	defer close(t.done)
	if rt.owner.aborted.Load() {
		return
	}
	t.fn(Ctx{r: rt.owner, w: w, depth: t.depth + 1})
}

// stealMinFor scans every deque of this generation for a task forked
// at depth >= min, used by joins: the awaited task itself always
// qualifies, so when the scan comes up empty the awaited task is
// already running somewhere and parking on its done channel is safe.
func (rt *scheduler) stealMinFor(min int32, seed *uint64) *wtask {
	n := len(rt.workers)
	*seed ^= *seed << 13
	*seed ^= *seed >> 7
	*seed ^= *seed << 17
	start := int(*seed % uint64(n))
	for i := 0; i < n; i++ {
		if t := rt.workers[(start+i)%n].dq.stealMin(min); t != nil {
			return t
		}
	}
	return nil
}

// join blocks until t completes, helping with pending work instead of
// idling: first the joiner's own deque (w's, when w is a worker of t's
// generation: its freshest forks — the depth-first order a serial run
// would take next), then any deque of t's generation, restricted to
// tasks no shallower than t. A helped task runs with the joiner's
// worker at its own depth. When no helpable task exists, t is provably
// running on some goroutine, and join parks on its done channel.
// Helping never crosses runtimes: only the deques of t's own
// generation are scanned, so a joiner from one job cannot be
// conscripted into another job's work.
func (rt *scheduler) join(t *wtask, w *worker) {
	seed := injectSeed.Add(0x9e3779b97f4a7c15) | 1
	for {
		select {
		case <-t.done:
			return
		default:
		}
		var h *wtask
		if w != nil && w.rt == rt {
			h = w.dq.pop()
		}
		if h == nil {
			h = rt.stealMinFor(t.depth, &seed)
		}
		if h == nil {
			<-t.done
			return
		}
		rt.owner.c.help.Inc()
		rt.runTask(h, w)
	}
}

package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gep/internal/metrics"
)

// TestDoRunsAllTasks checks completion and result visibility for flat
// fork-join groups.
func TestDoRunsAllTasks(t *testing.T) {
	var n atomic.Int64
	tasks := make([]func(Ctx), 100)
	for i := range tasks {
		tasks[i] = func(Ctx) { n.Add(1) }
	}
	Default().Root().Do(tasks...)
	if got := n.Load(); got != 100 {
		t.Fatalf("Do ran %d of 100 tasks", got)
	}
}

// TestNestedSpawnNoDeadlock forces far more nested forks than workers;
// the depth cutoff and join-helping must keep the recursion
// deadlock-free.
func TestNestedSpawnNoDeadlock(t *testing.T) {
	var sum atomic.Int64
	var rec func(cx Ctx, depth int)
	rec = func(cx Ctx, depth int) {
		if depth == 0 {
			sum.Add(1)
			return
		}
		cx.Do(
			func(cx Ctx) { rec(cx, depth-1) },
			func(cx Ctx) { rec(cx, depth-1) },
			func(cx Ctx) { rec(cx, depth-1) },
			func(cx Ctx) { rec(cx, depth-1) },
		)
	}
	rec(Default().Root(), 6) // 4^6 = 4096 leaves through the worker set
	if got := sum.Load(); got != 4096 {
		t.Fatalf("nested recursion completed %d of 4096 leaves", got)
	}
}

// TestSpawnBounded checks concurrency never exceeds the worker count
// plus the one goroutine that may be helping inside a join.
func TestSpawnBounded(t *testing.T) {
	budget := int64(Workers())
	var cur, peak atomic.Int64
	var mu sync.Mutex
	var waits []func()
	root := Default().Root()
	for i := 0; i < 200; i++ {
		w := root.Spawn(func(Ctx) {
			c := cur.Add(1)
			mu.Lock()
			if c > peak.Load() {
				peak.Store(c)
			}
			mu.Unlock()
			cur.Add(-1)
		})
		waits = append(waits, w)
	}
	for _, w := range waits {
		w()
	}
	// The caller counts too: it runs inline forks and helps during
	// joins, so concurrency can reach budget+1 but no further.
	if p := peak.Load(); p > budget+1 {
		t.Fatalf("peak concurrency %d exceeds %d workers (+1 joiner)", p, budget)
	}
}

// TestSetWorkersResizes pins an explicit size and checks Workers
// reflects it, then restores GOMAXPROCS tracking for other tests.
func TestSetWorkersResizes(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	defer ResetWorkers()

	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", got)
	}
	// Pinned sizes ignore GOMAXPROCS moves.
	runtime.GOMAXPROCS(orig + 1)
	defer runtime.GOMAXPROCS(orig)
	if got := Workers(); got != 3 {
		t.Fatalf("pinned Workers() = %d after GOMAXPROCS change, want 3", got)
	}
	// The runtime still works at the new size.
	var n atomic.Int64
	inc := func(Ctx) { n.Add(1) }
	Default().Root().Do(inc, inc, inc)
	if n.Load() != 3 {
		t.Fatal("Do lost tasks after SetWorkers")
	}
	if Workers() < 1 {
		t.Fatal("worker count below 1")
	}
	SetWorkers(0) // clamps to 1
	if got := Workers(); got != 1 {
		t.Fatalf("SetWorkers(0) gave %d workers, want 1", got)
	}
}

// TestWorkersTracksGOMAXPROCS: without a pinned size, the worker set
// follows runtime.GOMAXPROCS instead of the value frozen at package
// init.
func TestWorkersTracksGOMAXPROCS(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	defer func() {
		runtime.GOMAXPROCS(orig)
		ResetWorkers()
	}()
	ResetWorkers() // ensure tracking mode

	if got := Workers(); got != orig {
		t.Fatalf("Workers() = %d, want GOMAXPROCS = %d", got, orig)
	}
	next := orig + 2
	runtime.GOMAXPROCS(next)
	if got := Workers(); got != next {
		t.Fatalf("Workers() = %d after GOMAXPROCS(%d)", got, next)
	}
	// Tasks spawned across a resize still complete: the retiring
	// generation drains, and any straggler is executed by its joiner.
	var n atomic.Int64
	var waits []func()
	root := Default().Root()
	for i := 0; i < 8; i++ {
		waits = append(waits, root.Spawn(func(Ctx) { n.Add(1) }))
		if i == 3 {
			runtime.GOMAXPROCS(orig)
		}
	}
	for _, w := range waits {
		w()
	}
	if n.Load() != 8 {
		t.Fatalf("completed %d of 8 tasks across a resize", n.Load())
	}
}

// spawnDelta runs f and returns the deltas of the spawn- and
// execution-side counters across it.
func spawnDelta(f func()) (pooled, inline, local, steal, help int64) {
	before := metrics.Snapshot()
	f()
	d := metrics.Diff(before, metrics.Snapshot())
	return d["par.spawn.pooled"], d["par.spawn.inline"],
		d["par.local"], d["par.steal"], d["par.help"]
}

// TestSpawnAccountingExact asserts the two accounting invariants the
// telemetry promises: every fork is counted exactly once as pooled or
// inline, and every pooled task is executed (and counted) exactly once
// as local, stolen, or helped — with no drops or double counts even
// when SetWorkers retires a generation mid-stream.
func TestSpawnAccountingExact(t *testing.T) {
	defer ResetWorkers()
	root := Default().Root()
	nop := func(Ctx) {}

	check := func(name string, spawns int64, body func()) {
		t.Helper()
		pooled, inline, local, steal, help := spawnDelta(body)
		if pooled+inline != spawns {
			t.Fatalf("%s: pooled(%d) + inline(%d) = %d, want exactly %d spawns",
				name, pooled, inline, pooled+inline, spawns)
		}
		if got := local + steal + help; got != pooled {
			t.Fatalf("%s: local(%d) + steal(%d) + help(%d) = %d executed, want pooled = %d",
				name, local, steal, help, got, pooled)
		}
	}

	// Serial worker set: everything must inline.
	SetWorkers(1)
	check("p=1", 50, func() {
		var waits []func()
		for i := 0; i < 50; i++ {
			waits = append(waits, root.Spawn(nop))
		}
		for _, w := range waits {
			w()
		}
	})

	// Multi-worker set: mix of local pushes (from workers), injected
	// pushes (from this test goroutine) and cutoff inlining. Do(4)
	// forks 3 and runs the last task directly, so the outer group
	// spawns 3 and each of the 4 bodies spawns 3 more: 15 total.
	SetWorkers(4)
	inner := func(cx Ctx) { cx.Do(nop, nop, nop, nop) }
	check("p=4 nested", 15, func() {
		root.Do(inner, inner, inner, inner)
	})

	// Resize mid-stream: spawn against a 4-worker set, retire it to a
	// 2-worker set while waits are outstanding, then join everything.
	check("resize mid-stream", 40, func() {
		var waits []func()
		for i := 0; i < 40; i++ {
			waits = append(waits, root.Spawn(nop))
			if i == 20 {
				SetWorkers(2)
			}
		}
		for _, w := range waits {
			w()
		}
	})
}

// TestSpawnCountPrecise pins down the exact spawn arithmetic of Do
// that TestSpawnAccountingExact's nested case relies on.
func TestSpawnCountPrecise(t *testing.T) {
	defer ResetWorkers()
	SetWorkers(1)
	nop := func(Ctx) {}
	pooled, inline, _, _, _ := spawnDelta(func() {
		Default().Root().Do(nop, nop, nop, nop)
	})
	if pooled != 0 || inline != 3 {
		t.Fatalf("Do(4) at p=1: pooled=%d inline=%d, want 0/3 (last task runs direct)", pooled, inline)
	}
}

// TestWorkDistribution checks the deque discipline end to end: a task
// running on a worker pushes its forks onto its own deque
// (par.spawn.local), and while that worker blocks, some other
// goroutine — the idle second worker stealing FIFO, or the joiner
// helping — must pick a child up. The parent blocks until one child
// has run, so distribution off the home deque is forced, not timing-
// dependent.
func TestWorkDistribution(t *testing.T) {
	defer ResetWorkers()
	SetWorkers(2)

	parentStarted := make(chan struct{})
	childRan := make(chan struct{}, 4)
	before := metrics.Snapshot()
	parentWait := Default().Root().Spawn(func(cx Ctx) {
		close(parentStarted)
		var waits []func()
		for i := 0; i < 4; i++ {
			waits = append(waits, cx.Spawn(func(Ctx) { childRan <- struct{}{} }))
		}
		// The parent's goroutine is blocked here, outside any join:
		// only a thief or a helping joiner can run the first child.
		<-childRan
		for _, w := range waits {
			w()
		}
	})
	// Don't join until the parent is running on a worker, so its forks
	// are local pushes rather than injections.
	<-parentStarted
	parentWait()
	d := metrics.Diff(before, metrics.Snapshot())
	if d["par.spawn.local"] < 4 {
		t.Fatalf("par.spawn.local = %d, want >= 4 (worker pushing its own forks)", d["par.spawn.local"])
	}
	if d["par.steal"]+d["par.help"] < 1 {
		t.Fatalf("steal=%d help=%d: no task left its home deque", d["par.steal"], d["par.help"])
	}
}

// TestDequeDiscipline pins the queue orders the scheduler relies on:
// owners pop newest-first (LIFO), thieves take oldest-first (FIFO),
// and depth-restricted steals skip shallower tasks without reordering
// the rest.
func TestDequeDiscipline(t *testing.T) {
	mk := func(depth int32) *wtask { return &wtask{depth: depth} }
	var d deque
	t0, t1, t2 := mk(0), mk(1), mk(2)
	d.push(t0)
	d.push(t1)
	d.push(t2)
	if got := d.pop(); got != t2 {
		t.Fatal("pop is not LIFO")
	}
	d.push(t2)
	if got := d.stealMin(0); got != t0 {
		t.Fatal("stealMin(0) is not FIFO")
	}
	if got := d.stealMin(2); got != t2 {
		t.Fatal("stealMin(2) did not skip the shallower task")
	}
	if got := d.stealMin(2); got != nil {
		t.Fatal("stealMin(2) returned a task below the depth bound")
	}
	if got := d.stealMin(0); got != t1 {
		t.Fatal("depth-restricted steal disturbed the remaining order")
	}
	if d.pop() != nil || d.stealMin(0) != nil {
		t.Fatal("deque not empty after draining")
	}
}

// TestDepthCutoffInlines verifies the policy cutoff: forks at depth >=
// cutoff run inline even though workers and deque space are free.
func TestDepthCutoffInlines(t *testing.T) {
	r := NewRuntime(4)
	defer r.Close()
	if c := r.current().cutoff; c != 5 {
		t.Fatalf("automatic cutoff at 4 workers = %d, want 5", c)
	}

	var leaves atomic.Int64
	var rec func(cx Ctx, d int)
	rec = func(cx Ctx, d int) {
		if d == 0 {
			leaves.Add(1)
			return
		}
		cx.Do(func(cx Ctx) { rec(cx, d-1) }, func(cx Ctx) { rec(cx, d-1) })
	}
	before := r.Metrics().Snapshot()
	rec(r.Root(), 7)
	d := metrics.Diff(before, r.Metrics().Snapshot())
	if leaves.Load() != 128 {
		t.Fatalf("completed %d of 128 leaves", leaves.Load())
	}
	// Each Do forks its first task at its context's depth and runs the
	// second in that context; a forked task's own forks sit one level
	// deeper. So a fork's depth is the number of first-task edges on
	// its path from the root, and of the 2^L groups at recursion level
	// L (L = 0..6, 127 forks in all) C(L, j) fork at depth j. Under the
	// cutoff of 5 the forks at depth >= 5 inline: C(5,5) + C(6,5) +
	// C(6,6) = 8.
	if d["par.spawn.pooled"] != 119 || d["par.spawn.inline"] != 8 {
		t.Fatalf("cutoff 5: pooled=%d inline=%d, want 119/8", d["par.spawn.pooled"], d["par.spawn.inline"])
	}
}

// TestJoinHelpsOwnForks: with a single worker busy on an unrelated
// blocking task, a joiner must execute its own pooled forks itself
// (the par.help path) rather than deadlocking behind the busy worker.
func TestJoinHelpsOwnForks(t *testing.T) {
	defer ResetWorkers()
	SetWorkers(2)

	block := make(chan struct{})
	var busyStarted sync.WaitGroup
	busyStarted.Add(2)
	root := Default().Root()
	busy := func(Ctx) { busyStarted.Done(); <-block }
	busy1 := root.Spawn(busy)
	busy2 := root.Spawn(busy)
	busyStarted.Wait() // both workers are now provably occupied
	var ran atomic.Int64
	_, _, _, _, help := spawnDelta(func() {
		w := root.Spawn(func(Ctx) { ran.Add(1) })
		w() // both workers blocked: only helping can run this
	})
	close(block)
	busy1()
	busy2()
	if ran.Load() != 1 {
		t.Fatal("join did not run the pending task")
	}
	if help < 1 {
		t.Fatalf("expected the joiner to help (par.help >= 1), got %d", help)
	}
}

// BenchmarkSpawnJoin prices one fork and its join from a root context
// on a 2-worker runtime, with the caller 1 or 64 frames deep: a fork
// reads its context, not the goroutine's stack, so the two should cost
// the same.
func BenchmarkSpawnJoin(b *testing.B) {
	r := NewRuntime(2)
	defer r.Close()
	for _, depth := range []int{1, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			atDepth(depth, func() {
				cx := r.Root()
				for i := 0; i < b.N; i++ {
					cx.Spawn(func(Ctx) {})()
				}
			})
		})
	}
}

// atDepth calls f from d nested frames.
//
//go:noinline
func atDepth(d int, f func()) {
	if d <= 1 {
		f()
		return
	}
	atDepth(d-1, f)
}

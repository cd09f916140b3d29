package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRuntimeIsolatedBudgets runs two runtimes with disjoint worker
// budgets concurrently and asserts, from each runtime's own metrics
// registry, that every pooled task was executed inside its own runtime
// (pooled == local + steal + help per registry): work never migrates
// across runtimes, so neither tenant can occupy the other's workers.
func TestRuntimeIsolatedBudgets(t *testing.T) {
	r1 := NewRuntime(2)
	defer r1.Close()
	r2 := NewRuntime(2)
	defer r2.Close()

	var n1, n2 atomic.Int64
	load := func(r *Runtime, n *atomic.Int64) {
		root := r.Root()
		waits := make([]func(), 8)
		for i := 0; i < 200; i++ {
			for j := range waits {
				waits[j] = root.Spawn(func(Ctx) {
					n.Add(1)
					time.Sleep(50 * time.Microsecond)
				})
			}
			for _, w := range waits {
				w()
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); load(r1, &n1) }()
	go func() { defer wg.Done(); load(r2, &n2) }()
	wg.Wait()

	if n1.Load() != 1600 || n2.Load() != 1600 {
		t.Fatalf("task counts: r1=%d r2=%d, want 1600 each", n1.Load(), n2.Load())
	}
	for i, r := range []*Runtime{r1, r2} {
		s := r.Metrics().Snapshot()
		pooled := s["par.spawn.pooled"]
		executed := s["par.local"] + s["par.steal"] + s["par.help"]
		if pooled == 0 {
			t.Errorf("runtime %d: no pooled spawns — load ran elsewhere", i+1)
		}
		if pooled != executed {
			t.Errorf("runtime %d: pooled=%d but local+steal+help=%d — tasks executed outside their runtime",
				i+1, pooled, executed)
		}
		if got := s["par.spawn.pooled"] + s["par.spawn.inline"]; got != 1600 {
			t.Errorf("runtime %d: spawns=%d, want 1600", i+1, got)
		}
	}
	// The default runtime saw none of this work.
	if w := Workers(); w < 1 {
		t.Fatalf("default runtime broken: %d workers", w)
	}
}

// TestRuntimeWorkersPinned checks that NewRuntime(n) pins the budget
// and ignores GOMAXPROCS, while NewRuntime(0) tracks it.
func TestRuntimeWorkersPinned(t *testing.T) {
	r := NewRuntime(3)
	defer r.Close()
	if got := r.Workers(); got != 3 {
		t.Fatalf("Workers() = %d, want 3", got)
	}
	r.SetWorkers(5)
	if got := r.Workers(); got != 5 {
		t.Fatalf("after SetWorkers(5): Workers() = %d", got)
	}
}

// TestRuntimeCloseInlines checks that tasks spawned after Close still
// run (inline), so a straggler caller stays correct.
func TestRuntimeCloseInlines(t *testing.T) {
	r := NewRuntime(2)
	r.Close()
	r.Close() // idempotent
	ran := false
	r.Root().Spawn(func(Ctx) { ran = true })()
	if !ran {
		t.Fatal("task spawned after Close did not run")
	}
	done := 0
	inc := func(Ctx) { done++ }
	r.Root().Do(inc, inc)
	if done != 2 {
		t.Fatalf("Do after Close ran %d of 2 tasks", done)
	}
}

// TestRuntimeAbortDiscards checks that Abort discards queued and
// future work without wedging joiners, and that Aborted reports it.
func TestRuntimeAbortDiscards(t *testing.T) {
	r := NewRuntime(2)
	defer r.Close()
	if r.Aborted() {
		t.Fatal("fresh runtime reports aborted")
	}
	r.Abort()
	if !r.Aborted() {
		t.Fatal("Aborted() false after Abort")
	}
	ran := false
	set := func(Ctx) { ran = true }
	wait := r.Root().Spawn(set)
	wait() // must not block
	r.Root().Do(set, set)
	if ran {
		t.Fatal("aborted runtime executed a task body")
	}
}

// TestDefaultGuards checks that the default runtime rejects the
// operations that would strand every library user.
func TestDefaultGuards(t *testing.T) {
	for name, f := range map[string]func(){
		"Close": func() { Default().Close() },
		"Abort": func() { Default().Abort() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of the default runtime did not panic", name)
				}
			}()
			f()
		}()
	}
}

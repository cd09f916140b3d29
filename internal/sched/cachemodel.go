package sched

import (
	"container/heap"
	"fmt"
)

// Cache-complexity simulation for parallel I-GEP (§3.1 of the paper):
// replay the leaf schedule through tile-granularity LRU caches, either
// one private cache per processor (distributed, Lemma 3.1) or a single
// cache shared by all processors (Lemma 3.2). A leaf (base-case block)
// touches at most four tiles — X, U, V and W — so tile fetches are the
// block-transfer currency, exactly the granularity at which the
// paper's bounds are stated (a tile is the √M × √M working set).

// TiledPlan couples a plan with its tile geometry and per-leaf tile
// footprints.
type TiledPlan struct {
	Plan Plan
	// R is the tile-grid side (n / grain).
	R int
	// tiles[leafIndex] lists the distinct tile IDs the leaf touches.
	tiles [][]int32
}

// BuildTiledPlan constructs the plan and records each leaf's tile
// footprint, in the same traversal order Flatten assigns leaf nodes.
func BuildTiledPlan(w Workload, n, g int) *TiledPlan {
	b := newTileBuilder("BuildTiledPlan", w, n, g, true)
	p := b.plan()
	return &TiledPlan{Plan: p, R: n / g, tiles: b.tiles}
}

// tileBuilder builds a workload's Figure 6 plan (BuildPlan), and with
// record set also each leaf's distinct tiles in construction order
// (BuildTiledPlan).
type tileBuilder struct {
	w      Workload
	n, g   int
	record bool
	tiles  [][]int32
}

func newTileBuilder(caller string, w Workload, n, g int, record bool) *tileBuilder {
	if n <= 0 || n&(n-1) != 0 || g <= 0 || g&(g-1) != 0 || g > n {
		panic(fmt.Sprintf("sched: %s(%d, %d): need powers of two with g <= n", caller, n, g))
	}
	return &tileBuilder{w: w, n: n, g: g, record: record}
}

func (b *tileBuilder) plan() Plan {
	if b.w == MM {
		return b.mm(0, 0, 0, b.n)
	}
	return b.abcd(0, 0, 0, b.n)
}

// leaf is the base-case block at (xi, xj, k0) doing work > 0 updates.
func (b *tileBuilder) leaf(xi, xj, k0 int, work int64) Plan {
	if !b.record {
		return Leaf{Work: work}
	}
	r := int32(b.n / b.g)
	ti, tj, tk := int32(xi/b.g), int32(xj/b.g), int32(k0/b.g)
	ids := make([]int32, 0, 4)
	add := func(a, c int32) {
		id := a*r + c
		for _, have := range ids {
			if have == id {
				return
			}
		}
		ids = append(ids, id)
	}
	add(ti, tj) // X
	add(ti, tk) // U
	add(tk, tj) // V
	add(tk, tk) // W
	b.tiles = append(b.tiles, ids)
	return Leaf{Work: work}
}

func (b *tileBuilder) abcd(xi, xj, k0, s int) Plan {
	work := blockWork(b.w, xi, xj, k0, s)
	if work == 0 {
		return nil // pruned (line 1 of Figure 6)
	}
	if s <= b.g {
		return b.leaf(xi, xj, k0, work)
	}
	h := s / 2
	rec := func(a, c, k int) Plan { return b.abcd(a, c, k, h) }
	iK, jK := xi == k0, xj == k0
	var steps []Plan
	switch {
	case iK && jK: // A
		steps = []Plan{
			rec(xi, xj, k0),
			Par{rec(xi, xj+h, k0), rec(xi+h, xj, k0)},
			rec(xi+h, xj+h, k0),
			rec(xi+h, xj+h, k0+h),
			Par{rec(xi+h, xj, k0+h), rec(xi, xj+h, k0+h)},
			rec(xi, xj, k0+h),
		}
	case iK: // B
		steps = []Plan{
			Par{rec(xi, xj, k0), rec(xi, xj+h, k0)},
			Par{rec(xi+h, xj, k0), rec(xi+h, xj+h, k0)},
			Par{rec(xi+h, xj, k0+h), rec(xi+h, xj+h, k0+h)},
			Par{rec(xi, xj, k0+h), rec(xi, xj+h, k0+h)},
		}
	case jK: // C
		steps = []Plan{
			Par{rec(xi, xj, k0), rec(xi+h, xj, k0)},
			Par{rec(xi, xj+h, k0), rec(xi+h, xj+h, k0)},
			Par{rec(xi, xj+h, k0+h), rec(xi+h, xj+h, k0+h)},
			Par{rec(xi, xj, k0+h), rec(xi+h, xj, k0+h)},
		}
	default: // D
		steps = []Plan{
			Par{rec(xi, xj, k0), rec(xi, xj+h, k0), rec(xi+h, xj, k0), rec(xi+h, xj+h, k0)},
			Par{rec(xi, xj, k0+h), rec(xi, xj+h, k0+h), rec(xi+h, xj, k0+h), rec(xi+h, xj+h, k0+h)},
		}
	}
	return compactSeq(steps)
}

func (b *tileBuilder) mm(xi, xj, k0, s int) Plan {
	if s <= b.g {
		return b.leaf(xi, xj, k0, int64(s)*int64(s)*int64(s))
	}
	h := s / 2
	rec := func(a, c, k int) Plan { return b.mm(a, c, k, h) }
	return compactSeq([]Plan{
		Par{rec(xi, xj, k0), rec(xi, xj+h, k0), rec(xi+h, xj, k0), rec(xi+h, xj+h, k0)},
		Par{rec(xi, xj, k0+h), rec(xi, xj+h, k0+h), rec(xi+h, xj, k0+h), rec(xi+h, xj+h, k0+h)},
	})
}

// LeafEvent is one executed leaf in schedule order.
type LeafEvent struct {
	Leaf  int   // index into the tiled plan's leaf list
	Proc  int   // executing processor
	Start int64 // start time in work units
}

// ScheduleTrace list-schedules the plan on p processors like Schedule,
// additionally returning the leaf execution log sorted by start time
// (ties by processor). Leaf indices follow the plan's construction
// order, which Flatten preserves for Leaf nodes.
func ScheduleTrace(tp *TiledPlan, p int) (makespan int64, log []LeafEvent) {
	d := Flatten(tp.Plan)
	// Leaf nodes are the nodes with nonzero work; map node -> leaf
	// index in construction order (Flatten emits leaves in plan
	// traversal order, matching tileBuilder's append order).
	leafOf := make(map[int32]int, len(tp.tiles))
	idx := 0
	for node, wrk := range d.work {
		if wrk > 0 {
			leafOf[int32(node)] = idx
			idx++
		}
	}
	if idx != len(tp.tiles) {
		panic(fmt.Sprintf("sched: %d weighted nodes vs %d recorded leaves", idx, len(tp.tiles)))
	}

	n := len(d.work)
	remaining := make([]int32, n)
	copy(remaining, d.preds)
	var ready []int32
	for i := 0; i < n; i++ {
		if remaining[i] == 0 {
			ready = append(ready, int32(i))
		}
	}
	running := &eventHeap{}
	var now int64
	freeProcs := make([]int, p)
	for i := range freeProcs {
		freeProcs[i] = p - 1 - i // stack; pop from the end
	}
	done := 0
	procOf := make(map[int32]int, p)

	complete := func(node int32) {
		done++
		for _, s := range d.succs[node] {
			remaining[s]--
			if remaining[s] == 0 {
				ready = append(ready, s)
			}
		}
	}

	for done < n {
		for len(ready) > 0 && len(freeProcs) > 0 {
			node := ready[len(ready)-1] // LIFO: depth-first, the sequential order
			ready = ready[:len(ready)-1]
			if d.work[node] == 0 {
				complete(node)
				continue
			}
			proc := freeProcs[len(freeProcs)-1]
			freeProcs = freeProcs[:len(freeProcs)-1]
			procOf[node] = proc
			log = append(log, LeafEvent{Leaf: leafOf[node], Proc: proc, Start: now})
			heap.Push(running, event{finish: now + d.work[node], node: node})
		}
		if done >= n {
			break
		}
		if running.Len() == 0 {
			panic("sched: deadlock")
		}
		ev := heap.Pop(running).(event)
		now = ev.finish
		freeProcs = append(freeProcs, procOf[ev.node])
		complete(ev.node)
		for running.Len() > 0 && (*running)[0].finish == now {
			ev = heap.Pop(running).(event)
			freeProcs = append(freeProcs, procOf[ev.node])
			complete(ev.node)
		}
	}
	return now, log
}

// tileLRU is a small LRU set over tile IDs.
type tileLRU struct {
	cap  int
	mru  []int32
	miss int64
}

func (c *tileLRU) access(tile int32) {
	for i, t := range c.mru {
		if t == tile {
			copy(c.mru[1:i+1], c.mru[:i])
			c.mru[0] = tile
			return
		}
	}
	c.miss++
	if len(c.mru) >= c.cap {
		c.mru = c.mru[:c.cap-1]
	}
	c.mru = append([]int32{tile}, c.mru...)
}

// DistributedMisses replays the p-processor schedule with one private
// LRU cache of `tiles` tiles per processor and returns the total tile
// fetches — the Q_p of Lemma 3.1.
func DistributedMisses(tp *TiledPlan, p, tiles int) int64 {
	if tiles < 1 {
		panic("sched: cache must hold at least one tile")
	}
	_, log := ScheduleTrace(tp, p)
	caches := make([]tileLRU, p)
	for i := range caches {
		caches[i].cap = tiles
	}
	for _, ev := range log {
		c := &caches[ev.Proc]
		for _, t := range tp.tiles[ev.Leaf] {
			c.access(t)
		}
	}
	var total int64
	for i := range caches {
		total += caches[i].miss
	}
	return total
}

// SharedMisses replays the p-processor schedule's global leaf order
// through a single LRU cache of `tiles` tiles — the Q_p of Lemma 3.2
// for a shared cache under the greedy (depth-first-flavoured)
// schedule. p = 1 gives Q_1.
func SharedMisses(tp *TiledPlan, p, tiles int) int64 {
	if tiles < 1 {
		panic("sched: cache must hold at least one tile")
	}
	_, log := ScheduleTrace(tp, p)
	c := tileLRU{cap: tiles}
	for _, ev := range log {
		for _, t := range tp.tiles[ev.Leaf] {
			c.access(t)
		}
	}
	return c.miss
}

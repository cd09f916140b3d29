package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own code around a call into a module's public function
// (or, on serve-jobs, reconstructed from the server's job timestamps).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"` // 0 for a root span
	Name   string    `json:"name"`
	Op     string    `json:"op"` // the op instance the span belongs to
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name, op string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: start, End: end})
	return id
}

// begin opens a span that end closes, for spans that are parents.
func (t *tracer) begin(name, op string, parent int) int {
	now := time.Now()
	return t.add(name, op, parent, now, now)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// timed runs f and records it as span name under parent.
func (t *tracer) timed(name, op string, parent int, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	t.add(name, op, parent, start, end)
	return end.Sub(start), err
}

// selfTimes returns, per span name, the summed self time: each span's
// length minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += s.End.Sub(s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [start, end] the union of spans covers.
func covered(start, end time.Time, spans []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, s := range spans {
		a, b := s.Start, s.End
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// traceOverhead is Σ per-op median time of traced rounds over the same
// for untraced rounds.
func traceOverhead(byTrace map[bool]map[string][]float64) float64 {
	var on, off float64
	for class, ts := range byTrace[true] {
		if u := byTrace[false][class]; len(u) > 0 {
			on += median(ts)
			off += median(u)
		}
	}
	return ratio(on, off)
}

func traceName(cfg config) string {
	return fmt.Sprintf("%s-seed%d.json", cfg.Workload, cfg.Seed)
}

// printSelfTimes adds each span name's summed self time to the notes.
func printSelfTimes(rep *report, tr *tracer) {
	st := tr.selfTimes()
	for _, name := range sortedKeys(st) {
		rep.note("self %-28s %10.4f s", name, st[name].Seconds())
	}
}

// write stores every span as one JSON document at path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

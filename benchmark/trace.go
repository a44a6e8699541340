package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (never inside the program under test). Spans of one timed
// operation share Op; Parent is the span that caused this one, 0 for a
// root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans in memory; writeTrace dumps them at exit. A nil
// tracer is the untraced run: every method is a no-op, so the measured
// path carries no tracing cost at all.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int // open spans of the measuring goroutine, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span on the measuring goroutine, child of the innermost
// open span, and returns its id for end.
func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned (and any span left open inside it).
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	for n := len(t.stack); n > 0; n-- {
		if t.stack[n-1] == id {
			t.stack = t.stack[:n-1]
			break
		}
	}
}

// add records a finished span from another goroutine (the subscriber's
// callbacks and HTTP round trips) under an explicit parent.
func (t *tracer) add(name string, op, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (children may overlap each
// other when they ran on different goroutines, so the union is taken).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, at := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// budgetPart is one layer's share of a root operation.
type budgetPart struct {
	Layer string  `json:"layer"`
	MS    float64 `json:"ms_per_op"`
	Share float64 `json:"share"`
}

// layerBudget splits the wall time of every root span named root into
// self time per span name over the root's subtree, per operation. A
// descendant counts only for the part of it inside its parent's
// interval: the subscriber's long poll is already parked when an adopt
// operation begins, and the wait before that belongs to no operation.
// The root's own self time is reported under other, i.e. what the
// harness could not attribute to a call it can see. The shares sum to 1.
func layerBudget(spans []span, root, other string) (parts []budgetPart, totalMS float64, ops int) {
	clipped := map[int]span{} // the subtree, each span cut to its parent
	var subtree []span
	var total int64
	// begin() gives a parent a smaller id than its children, and add()
	// children name a parent that is already open, so one pass in id
	// order meets every parent before its children.
	for _, s := range spans {
		p, inTree := clipped[s.Parent]
		switch {
		case s.Parent == 0 && s.Name == root:
			total += s.End - s.Start
			ops++
			s.Name = other
		case inTree:
			s.Start, s.End = max(s.Start, p.Start), min(s.End, p.End)
			if s.End <= s.Start {
				continue
			}
		default:
			continue
		}
		clipped[s.ID] = s
		subtree = append(subtree, s)
	}
	if ops == 0 {
		return nil, 0, 0
	}
	self := selfTimes(subtree)
	byName := map[string]int64{}
	for _, s := range subtree {
		byName[s.Name] += self[s.ID]
	}
	for name, ns := range byName {
		parts = append(parts, budgetPart{
			Layer: name,
			MS:    float64(ns) / 1e6 / float64(ops),
			Share: ratio(float64(ns), float64(total)),
		})
	}
	sortParts(parts)
	return parts, float64(total) / 1e6 / float64(ops), ops
}

// sortParts orders a budget largest part first.
func sortParts(parts []budgetPart) {
	sort.Slice(parts, func(i, j int) bool {
		if parts[i].MS != parts[j].MS {
			return parts[i].MS > parts[j].MS
		}
		return parts[i].Layer < parts[j].Layer
	})
}

func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

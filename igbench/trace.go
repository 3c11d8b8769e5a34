package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed call across a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent indexes the span that caused
// it (-1 for a root); Run identifies the workload run every span belongs to.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Run    uint64 `json:"run"`
}

// Tracer keeps the spans of one workload run in memory. Low-rate spans
// (jobs, phases, Drain and ReadBatch calls) go through Begin/End from the
// benchmark's own goroutines, one goroutine at a time; high-rate calls on
// engine goroutines are recorded by CallTracer lanes and merged in after
// the engine has stopped.
type Tracer struct {
	epoch time.Time
	run   uint64
	spans []Span
	// counts holds the exact call count of every sampled span name; a name
	// absent here was recorded on every call.
	counts map[string]uint64
}

// NewTracer starts a tracer whose spans all carry run.
func NewTracer(run uint64) *Tracer {
	return &Tracer{epoch: time.Now(), run: run, counts: map[string]uint64{}}
}

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// Begin opens a span and returns its id.
func (t *Tracer) Begin(name string, parent int32) int32 {
	t.spans = append(t.spans, Span{Name: name, Start: t.now(), End: -1, Parent: parent, Run: t.run})
	return int32(len(t.spans) - 1)
}

// End closes the span id.
func (t *Tracer) End(id int32) { t.spans[id].End = t.now() }

// Add appends spans recorded elsewhere (already stamped with this tracer's
// epoch) and adds count to the exact call count of name.
func (t *Tracer) Add(name string, count uint64, spans []Span) {
	t.spans = append(t.spans, spans...)
	t.counts[name] += count
}

// CallTracer records a high-rate call site 1-in-every calls, with an exact
// call count, from up to lanes goroutines at once: lane i must only ever be
// used by one goroutine (an engine rank, or one benchmark goroutine).
type CallTracer struct {
	name   string
	every  uint64
	parent int32
	tr     *Tracer
	lanes  []callLane
}

type callLane struct {
	_     [64]byte // keep neighbouring lanes off one cache line
	n     uint64
	spans []Span
	_     [64]byte
}

// NewCallTracer makes a call-site recorder with one lane per goroutine
// that may use it; its spans hang under parent.
func (t *Tracer) NewCallTracer(name string, every uint64, lanes int, parent int32) *CallTracer {
	return &CallTracer{name: name, every: every, parent: parent, tr: t, lanes: make([]callLane, lanes)}
}

// begin counts one call on lane and returns its start time when the call
// is sampled, or -1.
func (c *CallTracer) begin(lane int) int64 {
	l := &c.lanes[lane]
	l.n++
	if l.n%c.every != 0 {
		return -1
	}
	return c.tr.now()
}

// end closes a call opened by begin.
func (c *CallTracer) end(lane int, start int64) {
	if start < 0 {
		return
	}
	l := &c.lanes[lane]
	l.spans = append(l.spans, Span{Name: c.name, Start: start, End: c.tr.now(), Parent: c.parent, Run: c.tr.run})
}

// Reset drops what the lanes recorded so far. The goroutines using the
// lanes must be idle, with a synchronizing event before their next call.
func (c *CallTracer) Reset() {
	for i := range c.lanes {
		c.lanes[i] = callLane{}
	}
}

// Calls returns the exact number of calls over all lanes.
func (c *CallTracer) Calls() uint64 {
	var n uint64
	for i := range c.lanes {
		n += c.lanes[i].n
	}
	return n
}

// Flush moves the recorded spans and the exact count into the tracer. Call
// it only once every goroutine using the lanes has stopped.
func (c *CallTracer) Flush() {
	for i := range c.lanes {
		c.tr.Add(c.name, c.lanes[i].n, c.lanes[i].spans)
		c.lanes[i] = callLane{}
	}
}

// selfTimes returns every span's duration minus the part of its interval
// that its children cover (overlapping children count once).
func selfTimes(spans []Span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		curStart, curEnd := int64(-1), int64(-1)
		var covered int64
		for _, k := range kids {
			st, en := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if en <= st {
				continue
			}
			if st > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = st, en
			} else if en > curEnd {
				curEnd = en
			}
		}
		covered += curEnd - curStart
		self[i] -= covered
	}
	return self
}

// SelfByName sums self time per span name. For a sampled name the sum is
// scaled by exact calls over recorded spans, so it estimates the total.
// It also returns the exact call count per name.
func (t *Tracer) SelfByName() (self map[string]time.Duration, calls map[string]uint64) {
	st := selfTimes(t.spans)
	recorded := map[string]uint64{}
	sum := map[string]int64{}
	for i, s := range t.spans {
		recorded[s.Name]++
		sum[s.Name] += st[i]
	}
	self = map[string]time.Duration{}
	calls = map[string]uint64{}
	for name, ns := range sum {
		n := recorded[name]
		if exact, ok := t.counts[name]; ok && n > 0 {
			self[name] = time.Duration(float64(ns) * float64(exact) / float64(n))
			calls[name] = exact
			continue
		}
		self[name] = time.Duration(ns)
		calls[name] = n
	}
	for name, exact := range t.counts {
		if _, ok := calls[name]; !ok {
			calls[name] = exact
		}
	}
	return self, calls
}

// WriteFile writes the spans as JSON lines, each with its self time.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		rec := struct {
			ID int `json:"id"`
			Span
			Self int64 `json:"self_ns"`
		}{i, s, self[i]}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

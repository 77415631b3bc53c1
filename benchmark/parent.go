package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// runSpec is one workload run as the parent sees it.
type runSpec struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	// setups and probeDiv are for the package's smoke test: how many times
	// the first worker sets up (0: setupRepeats) and by how much the layer
	// probes' iteration counts are divided (0: not at all).
	setups   int
	probeDiv int
}

// runResult aggregates everything the workers of one run reported.
type runResult struct {
	spec       runSpec
	agg        *agg
	setups     []float64
	allocBytes uint64
	allocOps   int
	layers     map[string]float64
	notes      []string
	relaunches int
}

// launcher builds the command for one worker incarnation; tests
// substitute a fake worker.
type launcher func(ctx context.Context, a workerArgs) *exec.Cmd

const (
	// setupRepeats is how many times a worker sets up, so that setup_s is
	// a median; a relaunched worker sets up once.
	setupRepeats = 7
	// maxRelaunches stops a worker that cannot stay up from looping.
	maxRelaunches = 50
	// wallSlack is how long past its measuring time a worker may live
	// (set-ups, probes, drain) before the parent kills it.
	wallSlack = 45 * time.Second
)

func selfLauncher(ctx context.Context, a workerArgs) *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	return exec.CommandContext(ctx, exe, a.flags()...)
}

func (a workerArgs) flags() []string {
	trace := "0"
	if a.trace {
		trace = "1"
	}
	return []string{
		"-worker",
		"-workload", a.workload,
		"-seed", strconv.FormatUint(a.seed, 10),
		"-seconds", strconv.FormatFloat(a.seconds, 'f', 3, 64),
		"-trace", trace,
		"-trace-out", a.traceOut,
		"-setups", strconv.Itoa(a.setups),
		"-probe-div", strconv.Itoa(a.probeDiv),
	}
}

// runWorkload runs one workload to completion: it launches a worker,
// aggregates the lines it streams, and when a worker dies (the seed's
// post-verdict `mmap arena: EPERM` panic comes from a replica goroutine
// and cannot be recovered in-process) counts the operation in flight as
// one failure of kind crash and launches another for the time left.
func runWorkload(sp runSpec, launch launcher, log io.Writer) (*runResult, error) {
	r := &runResult{spec: sp, agg: newAgg()}
	left := time.Duration(sp.seconds * float64(time.Second))
	setups := sp.setups
	if setups <= 0 {
		setups = setupRepeats
	}
	for {
		a := workerArgs{
			workload: sp.workload, seed: sp.seed, seconds: left.Seconds(),
			trace: sp.trace, traceOut: sp.traceOut, setups: setups, probeDiv: sp.probeDiv,
		}
		measured, done, err := r.runWorker(a, launch, log)
		if err != nil {
			return r, err
		}
		if done {
			return r, nil
		}
		r.agg.add(batch{Fail: map[string]int{kindCrash: 1}})
		r.relaunches++
		if r.relaunches > maxRelaunches {
			return r, fmt.Errorf("%s: worker died %d times", sp.workload, r.relaunches)
		}
		if sp.trace {
			// A traced run's layer metrics come from one worker's memory:
			// start it over, with the time that is left.
			r.layers = nil
		}
		left -= measured
		if left < 200*time.Millisecond {
			return r, nil
		}
		setups = 1
	}
}

// runWorker runs one worker incarnation. measured is how long it had been
// measuring when it ended; done whether it ended cleanly.
func (r *runResult) runWorker(a workerArgs, launch launcher, log io.Writer) (measured time.Duration, done bool, err error) {
	budget := time.Duration(a.seconds*float64(time.Second)) + wallSlack
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	cmd := launch(ctx, a)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, false, err
	}
	var stderr tailBuffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return 0, false, fmt.Errorf("starting worker: %w", err)
	}
	var measStart time.Time
	var lastMem msg
	var fatal string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		var m msg
		if json.Unmarshal(sc.Bytes(), &m) != nil {
			continue // not a protocol line (stray print from the program under test)
		}
		switch m.T {
		case "setup":
			r.setups = append(r.setups, m.Setup)
			measStart = time.Now()
		case "ops":
			r.agg.add(m.batch)
		case "mem":
			lastMem = m
		case "note":
			r.notes = append(r.notes, m.Note)
		case "error":
			fatal = m.Note
		case "done":
			done = true
			if m.Layers != nil {
				r.layers = m.Layers
			}
		}
	}
	waitErr := cmd.Wait() // the pipe is drained: the worker has exited or been killed
	r.allocBytes += lastMem.AllocBytes
	r.allocOps += lastMem.AllocOps
	if !measStart.IsZero() {
		measured = time.Since(measStart)
	}
	if fatal != "" {
		return measured, false, fmt.Errorf("%s: %s", a.workload, fatal)
	}
	if ctx.Err() != nil {
		return measured, false, fmt.Errorf("%s: worker exceeded its wall cap of %v and was killed", a.workload, budget)
	}
	if !done || waitErr != nil {
		fmt.Fprintf(log, "benchmark: %s worker died (%v): %s\n", a.workload, waitErr, stderr.firstPanicLine())
		return measured, false, nil
	}
	return measured, true, nil
}

// tailBuffer keeps the first few KiB a worker wrote to standard error:
// enough for the panic message without holding a full goroutine dump.
type tailBuffer struct{ buf bytes.Buffer }

func (t *tailBuffer) Write(p []byte) (int, error) {
	if room := 8192 - t.buf.Len(); room > 0 {
		if len(p) > room {
			t.buf.Write(p[:room])
		} else {
			t.buf.Write(p)
		}
	}
	return len(p), nil
}

func (t *tailBuffer) firstPanicLine() string {
	for _, line := range strings.Split(t.buf.String(), "\n") {
		if strings.HasPrefix(line, "panic:") || strings.HasPrefix(line, "fatal error:") {
			return line
		}
	}
	if i := strings.IndexByte(t.buf.String(), '\n'); i >= 0 {
		return t.buf.String()[:i]
	}
	return t.buf.String()
}

// endToEnd computes the end-to-end metrics of an untraced run.
func (r *runResult) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":         median(r.setups),
		"ops_per_s":       r.agg.opsPerSec(),
		"op_p50_ms":       r.agg.latencyMs(0.50),
		"op_p90_ms":       r.agg.latencyMs(0.90),
		"virt_overhead_x": median(r.agg.virtX),
		"alloc_kb_per_op": ratio(float64(r.allocBytes)/1024, float64(r.allocOps)),
	}
}

// perLayer completes the traced run's per-layer metrics with what only
// the parent knows: failures including worker crashes.
func (r *runResult) perLayer() map[string]float64 {
	out := map[string]float64{}
	for k, v := range r.layers {
		out[k] = v
	}
	out["fail.share"] = ratio(float64(r.agg.failed()), float64(r.agg.attempted))
	for _, k := range failKinds {
		out["fail."+k] = float64(r.agg.kinds[k])
	}
	return out
}

// correct reports whether every output check passed.
func (r *runResult) correct() bool { return r.agg.kinds[kindWrong] == 0 }

package main

import (
	"fmt"
	"strings"
	"time"

	"remon/internal/core"
	"remon/internal/libc"
	"remon/internal/model"
	"remon/internal/policy"
	"remon/internal/workload"
)

const (
	// replicas is the replica count of every monitored instance here.
	replicas = 2
	// lockstepTimeout is the GHUMVEE watchdog the benchmark's instances
	// run with; the harness's own deadline is three times that, so a
	// watchdog verdict is always seen before the harness gives up.
	lockstepTimeout = 100 * time.Millisecond
	opDeadline      = 3 * lockstepTimeout
	// unwindWait bounds the wait for Run to return after Shutdown.
	unwindWait = time.Second

	// recycleEvery is how many runs one MVEE instance serves. The seed
	// keeps ~1 MiB per spawned thread mapped for the life of an instance,
	// so a long-lived instance slows down run by run; recycling keeps the
	// measurement stationary and the worker's heap small. New and Close
	// are outside the operation's timing and show in setup_s and in the
	// core.new_us / core.close_us spans.
	recycleEvery = 16
	// warmupOps run before timing starts (recycling as the measured phase
	// does).
	warmupOps = 48
	// nativeRuns is how many ModeNative runs set the virtual baseline.
	nativeRuns = 5
)

// variants is how many call sequences profile P comes in. The sequence is
// drawn per (name length, thread, iteration), so the count of expensive
// calls in one sequence varies by a fifth around its mean; every run of a
// workload cycles through all of them, in an order drawn from --seed, so
// that no seed measures a lighter input than another.
const variants = 13

// profileP is the synthetic program the three MVEE workloads share: 2
// threads x 250 iterations, 2µs of compute per call, 45% base / 30%
// file-RO / 20% file-RW / 5% sensitive. The call sequence is seeded by the
// length of the profile's name, which selects the variant.
func profileP(variant int) workload.Profile {
	p := workload.Profile{
		Name:           "p" + strings.Repeat("x", variant),
		Suite:          "benchmark",
		Threads:        2,
		Iterations:     250,
		ComputePerCall: 2 * model.Microsecond,
	}
	p.Fractions[workload.ClassBase] = 0.45
	p.Fractions[workload.ClassFileRO] = 0.30
	p.Fractions[workload.ClassFileRW] = 0.20
	p.Fractions[workload.ClassSensitive] = 0.05
	return p
}

// mveeWorkload is lockstep, fastpath or pipeline: a closed loop of one
// driver, each operation one MVEE.Run of profile P on a reused instance.
type mveeWorkload struct {
	cfg   core.Config
	progs [variants]libc.Program
	order [variants]int // the seeded order operations visit the variants in
	tr    *tracer

	nativeNs   [variants]float64 // median virtual duration under ModeNative
	wantCalls  [variants]uint64  // replicated syscalls every correct run reports
	m          *core.MVEE
	onInstance int
	base       counterSet   // the instance's counters when measuring began
	last       *core.Report // latest report of the current instance
	sum        counterSet   // counters of the measured phase
	calls      uint64
	okOps      int
	okHostNs   int64
	opID       int
}

func newMVEEWorkload(name string, seed uint64) *mveeWorkload {
	cfg := core.Config{
		Replicas:        replicas,
		Partitions:      8,
		Seed:            seed,
		LockstepTimeout: lockstepTimeout,
	}
	switch name {
	case "lockstep":
		cfg.Mode = core.ModeGHUMVEE
	case "fastpath":
		cfg.Mode = core.ModeReMon
		cfg.Policy = policy.NonsocketRWLevel
	case "pipeline":
		cfg.Mode = core.ModeReMon
		cfg.Policy = policy.NonsocketRWLevel
		cfg.MaxLag = 64
	}
	w := &mveeWorkload{cfg: cfg, sum: counterSet{}}
	rng := model.NewRNG(seed)
	for v := range w.progs {
		w.progs[v] = workload.SyntheticProgram(profileP(v))
		w.order[v] = v
	}
	for i := variants - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		w.order[i], w.order[j] = w.order[j], w.order[i]
	}
	return w
}

func (w *mveeWorkload) setTracer(t *tracer) { w.tr = t }

func (w *mveeWorkload) setup() error {
	for v, prog := range w.progs {
		var virt []float64
		var calls uint64
		for i := 0; i < nativeRuns; i++ {
			rep, err := core.RunProgram(core.Config{Mode: core.ModeNative, Seed: w.cfg.Seed}, prog)
			if err != nil {
				return fmt.Errorf("native baseline: %w", err)
			}
			if i > 0 && rep.Syscalls != calls {
				return fmt.Errorf("native baseline: syscall count changed between runs (%d, then %d)", calls, rep.Syscalls)
			}
			calls = rep.Syscalls
			virt = append(virt, float64(rep.Duration))
		}
		w.nativeNs[v] = median(virt)
		// Every replica issues the native sequence; under ReMon each also
		// issues the IP-MON registration call.
		w.wantCalls[v] = calls * uint64(w.cfg.Replicas)
		if w.cfg.Mode == core.ModeReMon {
			w.wantCalls[v] += uint64(w.cfg.Replicas)
		}
	}
	w.build(-1)
	// A failed warm-up run leaves a fresh instance behind, which is all
	// set-up needs; failures are counted in the measured phase.
	for i := 0; i < warmupOps; i++ {
		w.next()
	}
	return nil
}

func (w *mveeWorkload) teardown() {
	if w.m != nil {
		w.retire(-1)
	}
}

// build makes a fresh instance. core.New cannot fail on the benchmark's
// fixed, valid configurations; if it ever does the worker dies and the
// parent reports the crash.
func (w *mveeWorkload) build(parent int) {
	sp := w.tr.begin(spCoreNew, parent, w.opID)
	m, err := core.New(w.cfg)
	w.tr.end(sp)
	if err != nil {
		panic(fmt.Errorf("core.New: %w", err))
	}
	w.m, w.onInstance, w.base, w.last = m, 0, counterSet{}, nil
}

// retire folds the instance's counters into the sums and closes it.
func (w *mveeWorkload) retire(parent int) {
	w.fold()
	sp := w.tr.begin(spCoreClose, parent, w.opID)
	w.m.Close()
	w.tr.end(sp)
	w.m = nil
}

func (w *mveeWorkload) fold() {
	if w.last != nil {
		after := reportCounters(w.last)
		w.sum.addDelta(w.base, after)
		w.base, w.last = after, nil
	}
}

func reportCounters(rep *core.Report) counterSet {
	c := counterSet{}
	rep.Monitor.Emit(c.into("ghumvee"))
	rep.Broker.Emit(c.into("ikb"))
	for _, ip := range rep.IPMon {
		ip.Emit(c.into("ipmon"))
	}
	rep.RB.Emit(c.into("rb"))
	return c
}

// run performs one MVEE.Run of variant v under the harness deadline and
// checks its output. kind is "" on success. After any failure the instance
// is replaced, so the next operation starts clean.
func (w *mveeWorkload) run(v, parent int) (*core.Report, string) {
	m, prog := w.m, w.progs[v]
	done := make(chan *core.Report, 1)
	sp := w.tr.begin(spCoreRun, parent, w.opID)
	go func() { done <- m.Run(prog) }()
	timer := time.NewTimer(opDeadline)
	var rep *core.Report
	select {
	case rep = <-done:
		timer.Stop()
		w.tr.end(sp)
	case <-timer.C:
		w.tr.end(sp)
		sd := w.tr.begin(spCoreShutdown, parent, w.opID)
		m.Shutdown("benchmark deadline")
		select {
		case <-done:
			m.Close()
		case <-time.After(unwindWait):
			// Run never unwound: the instance is dropped unclosed (its
			// replica goroutines may still touch the RB segment).
		}
		w.tr.end(sd)
		w.fold()
		w.m = nil
		w.build(parent)
		return nil, kindHang
	}
	w.onInstance++
	kind := ""
	switch {
	case rep.Verdict.Diverged:
		kind = kindVerdict
	case rep.Syscalls != w.wantCalls[v], rep.Broker.TokenViolations != 0:
		kind = kindWrong
	}
	if kind != "" {
		w.last = rep
		w.retire(parent)
		w.build(parent)
		return rep, kind
	}
	w.last = rep
	return rep, ""
}

func (w *mveeWorkload) measure(until time.Time, e *emitter) {
	w.fold() // counters so far (warm-up, an earlier phase) are not this phase's
	w.sum, w.calls, w.okOps, w.okHostNs = counterSet{}, 0, 0, 0
	for time.Now().Before(until) {
		e.ops(w.next())
	}
	w.fold()
}

// next performs the next operation: it recycles the instance if that is
// due (outside the operation's timing), then runs the next variant in the
// seeded order.
func (w *mveeWorkload) next() batch {
	if w.onInstance >= recycleEvery {
		w.retire(-1)
		w.build(-1)
	}
	w.opID++
	v := w.order[w.opID%variants]
	op := w.tr.begin(spOp, -1, w.opID)
	t0 := time.Now()
	rep, kind := w.run(v, op)
	d := time.Since(t0)
	w.tr.end(op)
	if kind != "" {
		return batch{Fail: map[string]int{kind: 1}}
	}
	w.calls += rep.Syscalls
	w.okOps++
	w.okHostNs += int64(d)
	return batch{OK: []int64{int64(d)}, VirtX: []float64{float64(rep.Duration) / w.nativeNs[v]}, Busy: int64(d)}
}

func (w *mveeWorkload) layers(out map[string]float64) {
	counterLayers(out, w.sum, float64(w.calls), float64(w.okHostNs))
	out["core.calls_per_op"] = ratio(float64(w.calls), float64(w.okOps))
}

// counterLayers derives the counter-based per-layer metrics shared by all
// workloads. calls is the number of replicated syscalls the counters
// cover; okHostNs the host time of the successful operations.
func counterLayers(out map[string]float64, c counterSet, calls, okHostNs float64) {
	kcalls := calls / 1000
	out["ikb.routed_ipmon_share"] = ratio(c.f("ikb.routed_ipmon_total"), c.f("ikb.intercepted_total"))
	out["ikb.token_violations"] = c.f("ikb.token_violations_total")
	out["ipmon.unmonitored_share"] = ratio(c.f("ipmon.unmonitored_total"), c.f("ipmon.dispatched_total"))
	out["ipmon.forwarded_policy_per_kcall"] = ratio(c.f("ipmon.forwarded_policy_total"), kcalls)
	out["ipmon.forwarded_toobig"] = c.f("ipmon.forwarded_too_big_total")
	out["rb.wakes_per_kcall"] = ratio(c.f("rb.wakes_total"), kcalls)
	out["rb.wake_checks_per_kcall"] = ratio(c.f("rb.wake_checks_total"), kcalls)
	out["rb.flushes_per_kcall"] = ratio(c.f("rb.flushes_total"), kcalls)
	// ipmon's counters are summed over replicas; only the master publishes.
	out["rb.batched_share"] = ratio(c.f("rb.batched_total"), c.f("ipmon.unmonitored_total")/replicas)
	out["rb.lag_waits_per_kcall"] = ratio(c.f("rb.lag_waits_total"), kcalls)
	out["rb.lowwater_waits_per_kcall"] = ratio(c.f("rb.low_water_waits_total"), kcalls)
	out["rb.flips"] = c.f("rb.flips_total")
	out["rb.highwater_lag"] = c.f("rb.high_water_lag")
	mon := c.f("ghumvee.monitored_calls_total")
	out["ghumvee.ns_per_monitored_call"] = ratio(okHostNs, mon)
	out["ghumvee.monitored_per_kcall"] = ratio(mon, kcalls)
	out["ghumvee.wakeups_per_monitored"] = ratio(c.f("ghumvee.wakeups_total"), mon)
	out["ghumvee.bytes_compared_per_call"] = ratio(c.f("ghumvee.bytes_compared_total"), mon)
	out["ghumvee.epoch_flushes"] = c.f("ghumvee.epoch_flushes_total")
	out["ghumvee.rb_resets"] = c.f("ghumvee.rb_resets_total")
	out["ghumvee.false_verdicts"] = c.f("ghumvee.divergences_total")
}

// The chaos runner: executes a fault plan against a live fleet while an
// open-loop load driver keeps every shard under traffic, then audits the
// invariants. The load is windowed open-loop: each connection keeps up
// to Load.Window requests outstanding without waiting for their
// responses — exactly the state a mid-flight shard kill must not lose.
package chaos

import (
	"fmt"
	"sync/atomic"
	"time"

	"remon/internal/fleet"
	"remon/internal/vnet"
)

// Load shapes the open-loop client drive.
type Load struct {
	// Conns is the number of concurrent long-lived connections (default
	// 2x the shard count, so round-robin seeds every shard).
	Conns int
	// RequestsPerConn is the total requests each connection issues
	// (default 64).
	RequestsPerConn int
	// Window is the max outstanding (unanswered) requests per connection
	// (default 4).
	Window int
	// Gap is the host-time pacing between one connection's sends
	// (default 500µs) — it stretches the load across the fault schedule.
	Gap time.Duration
	// RequestSize / ResponseSize default to the fleet server protocol's
	// shape and must match it.
	RequestSize  int
	ResponseSize int
	// Timeout bounds how long a connection waits for its remaining
	// responses after faults (default 30s host time); a connection that
	// exceeds it records lost requests.
	Timeout time.Duration
	// Loops is the generator's event-loop pool size (default 4). The
	// whole drive costs Loops goroutines regardless of Conns.
	Loops int
}

func (l Load) withDefaults(shards, reqSize, respSize int) Load {
	if l.Conns <= 0 {
		l.Conns = 2 * shards
	}
	if l.RequestsPerConn <= 0 {
		l.RequestsPerConn = 64
	}
	if l.Window <= 0 {
		l.Window = 4
	}
	if l.Gap <= 0 {
		l.Gap = 500 * time.Microsecond
	}
	if l.RequestSize <= 0 {
		l.RequestSize = reqSize
	}
	if l.ResponseSize <= 0 {
		l.ResponseSize = respSize
	}
	if l.Timeout <= 0 {
		l.Timeout = 30 * time.Second
	}
	if l.Loops <= 0 {
		l.Loops = 4
	}
	return l
}

// ConnReport is one connection's audited outcome.
type ConnReport struct {
	Addr      string
	Sent      int    // requests written to the wire
	RespBytes int    // response bytes received
	Lost      int    // requests with no response at timeout
	Phantom   bool   // received bytes for requests never sent
	Regressed bool   // arrival stamps went backwards
	Err       string // terminal stream error, if any
	// Admit is the host time from connect start to the first complete
	// response — the end-to-end admission latency a surging client
	// experiences, including any balancer retry backoff spent waiting
	// for the autoscaler to add capacity. Zero when no response ever
	// completed.
	Admit time.Duration
}

// Run executes plan against f under load and audits the result. The
// fleet must outlive the call; Run does not Close it.
func Run(f *fleet.Fleet, plan Plan, load Load) Report {
	st := f.Stats()
	reqSize, respSize := f.RequestShape()
	load = load.withDefaults(len(st.Shards), reqSize, respSize)
	start := time.Now()

	rep := Report{Plan: plan, Load: load}

	// Fault executor: walks the schedule on its own goroutine while the
	// clients drive.
	var injected atomic.Int64
	var drains atomic.Int64
	faultsDone := make(chan struct{})
	go func() {
		defer close(faultsDone)
		runEvents(f, plan, start, &injected, &drains)
	}()

	// Open-loop clients: every connection launches at once (offset 0)
	// on the event-driven generator — the fixed-capacity drive.
	conns := make([]ConnReport, 0, load.Conns)
	g := &Gen{
		Net:      f.FrontNetwork(),
		Addr:     f.FrontAddr(),
		PerConn:  load,
		Arrivals: make([]time.Duration, load.Conns),
		Loops:    load.Loops,
		OnDone:   func(r ConnReport) { conns = append(conns, r) },
	}
	g.Run()
	<-faultsDone

	// Verdict conservation: every injected divergence must complete a
	// recovery cycle — a verdict that vanished would strand its shard.
	rep.Kills = int(injected.Load())
	rep.Drains = int(drains.Load())
	if rep.Kills > 0 && !f.WaitRecoveries(rep.Kills, load.Timeout) {
		rep.lostVerdicts = true
	}

	rep.Conns = conns
	rep.Elapsed = time.Since(start)
	rep.FleetStats = f.Stats()
	rep.audit()
	return rep
}

// runEvents applies the plan's events at their host-time offsets.
func runEvents(f *fleet.Fleet, plan Plan, start time.Time, injected, drains *atomic.Int64) {
	front := f.FrontNetwork()
	shards := len(f.Stats().Shards)
	for _, ev := range plan.Events {
		if d := time.Until(start.Add(ev.At)); d > 0 {
			time.Sleep(d)
		}
		switch ev.Kind {
		case KillShard:
			if waitServing(f, ev.Shard, 5*time.Second) {
				if f.InjectDivergence(ev.Shard) == nil {
					injected.Add(1)
				}
			}
		case DrainShard:
			// Async: DrainShard blocks for the grace+respawn cycle.
			go func(idx int) {
				if f.DrainShard(idx) == nil {
					drains.Add(1)
				}
			}(ev.Shard)
		case DelaySpike:
			front.SetFaultProfile(&vnet.FaultProfile{ExtraLatency: ev.Extra})
			time.AfterFunc(ev.Span, func() { front.SetFaultProfile(nil) })
		case DropBurst:
			front.SetFaultProfile(&vnet.FaultProfile{DropEvery: ev.DropEvery})
			time.AfterFunc(ev.Span, func() { front.SetFaultProfile(nil) })
		case ReplicaStall:
			idx := ev.Shard
			if f.SetShardFault(idx, &vnet.FaultProfile{ExtraLatency: ev.Extra, DropEvery: ev.DropEvery}) == nil {
				time.AfterFunc(ev.Span, func() { f.SetShardFault(idx, nil) })
			}
		case Storm:
			for i := 0; i < shards; i++ {
				if s, _ := f.ShardState(i); s == fleet.Serving {
					if f.InjectDivergence(i) == nil {
						injected.Add(1)
					}
				}
			}
		}
	}
}

// waitServing polls (host time, bounded) until shard idx is Serving.
func waitServing(f *fleet.Fleet, idx int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if s, _ := f.ShardState(idx); s == fleet.Serving {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// Report is a completed chaos run plus its audit.
type Report struct {
	Plan Plan
	Load Load

	Conns      []ConnReport
	Kills      int
	Drains     int
	Elapsed    time.Duration
	FleetStats fleet.Stats

	lostVerdicts bool
	violations   []string
}

// Violations lists every invariant breach; empty means the run is clean.
func (r *Report) Violations() []string { return r.violations }

// Emit reports the run's audit figures as (metric, value) pairs under
// the telemetry naming convention ("_total" marks cumulative counters).
// Plain func signature so this package never imports the registry —
// harnesses register a finished report as one more collector next to
// the live fleet series.
func (r *Report) Emit(emit func(name string, v uint64)) {
	emit("kills_total", uint64(r.Kills))
	emit("drains_total", uint64(r.Drains))
	emit("requests_sent_total", uint64(r.RequestsSent()))
	emit("responses_received_total", uint64(r.ResponsesReceived()))
	emit("requests_lost_total", uint64(r.Lost()))
	emit("violations_total", uint64(len(r.violations)))
	emit("conns", uint64(len(r.Conns)))
}

// RequestsSent / ResponsesReceived total the audited connections.
func (r *Report) RequestsSent() int {
	t := 0
	for _, c := range r.Conns {
		t += c.Sent
	}
	return t
}

// ResponsesReceived counts complete responses across connections.
func (r *Report) ResponsesReceived() int {
	t := 0
	for _, c := range r.Conns {
		t += c.RespBytes / r.Load.ResponseSize
	}
	return t
}

// Lost totals requests that never got a response.
func (r *Report) Lost() int {
	t := 0
	for _, c := range r.Conns {
		t += c.Lost
	}
	return t
}

// audit evaluates the run invariants into violations.
func (r *Report) audit() {
	for i, c := range r.Conns {
		if c.Lost > 0 {
			r.violations = append(r.violations,
				fmt.Sprintf("conn %d (%s): %d requests lost (%s)", i, c.Addr, c.Lost, c.Err))
		}
		if c.Phantom {
			r.violations = append(r.violations,
				fmt.Sprintf("conn %d (%s): response bytes exceed requests sent", i, c.Addr))
		}
		if c.Regressed {
			r.violations = append(r.violations,
				fmt.Sprintf("conn %d (%s): virtual arrival stamps regressed", i, c.Addr))
		}
	}
	if r.lostVerdicts {
		r.violations = append(r.violations,
			fmt.Sprintf("verdicts lost: %d divergences injected, %d recoveries completed",
				r.Kills, r.FleetStats.Recoveries))
	}
}

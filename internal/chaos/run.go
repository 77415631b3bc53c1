// The chaos runner: executes a fault plan against a live fleet while
// loadgen clients keep every shard under traffic, then audits the
// invariants. The load is windowed open-loop: each connection keeps up
// to Load.Window requests outstanding without waiting for their
// responses — exactly the state a mid-flight shard kill must not lose.
package chaos

import (
	"fmt"
	"sync/atomic"
	"time"

	"remon/internal/fleet"
	"remon/internal/loadgen"
	"remon/internal/vnet"
)

// Load shapes the open-loop client drive.
type Load struct {
	// Conns is the number of concurrent long-lived connections (default
	// 2x the shard count, so round-robin seeds every shard).
	Conns int
	// Shape is each connection's request sequence; zero fields take the
	// chaos defaults (shapeDefaults) with 64 requests per connection.
	loadgen.Shape
}

// shapeDefaults fills the chaos connection shape: reqs requests, up to 4
// outstanding, sends 500µs apart so the load stretches across the fault
// schedule, the fleet server protocol's sizes, and a 30s timeout.
func shapeDefaults(s loadgen.Shape, reqs, reqSize, respSize int) loadgen.Shape {
	if s.RequestsPerConn <= 0 {
		s.RequestsPerConn = reqs
	}
	if s.Window <= 0 {
		s.Window = 4
	}
	if s.Gap <= 0 {
		s.Gap = 500 * time.Microsecond
	}
	if s.RequestSize <= 0 {
		s.RequestSize = reqSize
	}
	if s.ResponseSize <= 0 {
		s.ResponseSize = respSize
	}
	if s.Timeout <= 0 {
		s.Timeout = 30 * time.Second
	}
	return s
}

// Run executes plan against f under load and audits the result. The
// fleet must outlive the call; Run does not Close it.
func Run(f *fleet.Fleet, plan Plan, load Load) Report {
	reqSize, respSize := f.RequestShape()
	if load.Conns <= 0 {
		load.Conns = 2 * len(f.Stats().Shards)
	}
	load.Shape = shapeDefaults(load.Shape, 64, reqSize, respSize)
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

	// Open-loop clients, every connection due at once: the
	// fixed-capacity drive.
	conns := loadgen.Burst(f.FrontNetwork(), f.FrontAddr(), load.Shape, load.Conns)
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

	Conns      []loadgen.ConnReport
	Kills      int
	Drains     int
	Elapsed    time.Duration
	FleetStats fleet.Stats

	lostVerdicts bool
	violations   []string
}

// Violations lists every invariant breach; empty means the run is clean.
func (r *Report) Violations() []string { return r.violations }

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

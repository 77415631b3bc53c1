// The surge campaign: open-loop load whose *offered rate* is shaped in
// phases (steady -> N-fold surge -> decay), composed with a fault plan,
// against a fleet under elastic autoscaling. Where Run proves zero-loss
// failover at fixed capacity, RunSurge proves the autoscaler's story:
// the pool grows to the clamp under the surge, sheds gracefully (typed
// backpressure, not queue collapse) at the ceiling, shrinks back after
// the decay — and a shard killed mid-scale-up still costs zero accepted
// requests. A sampler records the pool-size trajectory against the
// offered load so the bench can plot capacity chasing demand.
package chaos

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"remon/internal/fleet"
	"remon/internal/loadgen"
)

// SurgePhase is one segment of the offered-load schedule.
type SurgePhase struct {
	// Duration is the phase's host-time span.
	Duration time.Duration
	// ConnsPerSec is the open-loop connection arrival rate for the
	// phase. Arrivals are paced, not batched: one connection every
	// 1/rate, each running the full windowed open-loop request sequence
	// regardless of how the fleet responds — the definition of offered
	// (not admitted) load.
	ConnsPerSec int
}

// SurgeLoad shapes a surge campaign.
type SurgeLoad struct {
	// Phases is the offered-load schedule, executed in order.
	Phases []SurgePhase
	// Shape is each launched connection's request sequence, defaulted as
	// Load's but with 32 requests per connection.
	loadgen.Shape
	// SampleEvery is the pool-trajectory sampling period (default 5ms).
	SampleEvery time.Duration
	// Settle is how long sampling continues after the last connection
	// finishes (default 1s) — the window in which the scale-down back to
	// the floor must show up in the trajectory.
	Settle time.Duration
}

func (l SurgeLoad) withDefaults(reqSize, respSize int) SurgeLoad {
	if len(l.Phases) == 0 {
		l.Phases = []SurgePhase{{Duration: time.Second, ConnsPerSec: 10}}
	}
	l.Shape = shapeDefaults(l.Shape, 32, reqSize, respSize)
	if l.SampleEvery <= 0 {
		l.SampleEvery = 5 * time.Millisecond
	}
	if l.Settle <= 0 {
		l.Settle = time.Second
	}
	return l
}

// arrivals lowers the phase schedule into per-connection launch offsets:
// one connection every 1/rate through each phase — the offered-load
// definition, independent of how the fleet responds.
func (l SurgeLoad) arrivals() []time.Duration {
	var at []time.Duration
	base := time.Duration(0)
	for _, ph := range l.Phases {
		if ph.ConnsPerSec > 0 {
			interval := time.Second / time.Duration(ph.ConnsPerSec)
			for off := time.Duration(0); off < ph.Duration; off += interval {
				at = append(at, base+off)
			}
		}
		base += ph.Duration
	}
	return at
}

// PoolSample is one point on the pool-size-vs-offered-load trajectory.
type PoolSample struct {
	// At is the host-time offset into the campaign.
	At time.Duration
	// Serving / Pool are the serving shard count and total pool slots.
	Serving int
	Pool    int
	// Launched is the cumulative offered load: connections started.
	Launched int
	// Routed / Refused / Shed / AdmitWaits are the fleet's cumulative
	// admission counters at the sample.
	Routed     uint64
	Refused    uint64
	Shed       uint64
	AdmitWaits uint64
}

// SurgeReport is a completed surge campaign: the standard chaos audit
// plus the capacity trajectory.
type SurgeReport struct {
	Report
	// Samples is the pool trajectory, SampleEvery apart.
	Samples []PoolSample
	// Launched is the total offered connections.
	Launched int
	// PeakServing / FinalServing summarize the trajectory: the largest
	// serving count any sample saw, and the last sample's.
	PeakServing  int
	FinalServing int
}

// AdmitP reports the q-quantile (0 < q <= 1) of per-connection
// admission latency over connections that completed at least one
// response. Zero when none did.
func (r *SurgeReport) AdmitP(q float64) time.Duration {
	var lat []time.Duration
	for _, c := range r.Conns {
		if c.Admit > 0 {
			lat = append(lat, c.Admit)
		}
	}
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := int(q*float64(len(lat))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(lat) {
		idx = len(lat) - 1
	}
	return lat[idx]
}

// RunSurge executes the fault plan against f while offering load per
// the phase schedule, sampling the pool trajectory throughout (including
// the settle window after the load ends), then audits. The fleet — and
// any autoscaler attached to it — must outlive the call.
func RunSurge(f *fleet.Fleet, plan Plan, sl SurgeLoad) SurgeReport {
	reqSize, respSize := f.RequestShape()
	sl = sl.withDefaults(reqSize, respSize)
	start := time.Now()

	rep := SurgeReport{Report: Report{Plan: plan, Load: Load{Conns: 1, Shape: sl.Shape}}}

	var injected, drains atomic.Int64
	faultsDone := make(chan struct{})
	go func() {
		defer close(faultsDone)
		runEvents(f, plan, start, &injected, &drains)
	}()

	// The generator drives the paced arrival schedule on its fixed
	// event-loop pool; finished connections stream into conns under mu
	// (shared with the sampler, which reads Launched concurrently).
	var mu sync.Mutex
	var conns []loadgen.ConnReport
	var launched atomic.Int64
	g := &loadgen.Gen{
		Net:      f.FrontNetwork(),
		Addr:     f.FrontAddr(),
		PerConn:  sl.Shape,
		Arrivals: sl.arrivals(),
		Launched: &launched,
		OnDone: func(r loadgen.ConnReport) {
			mu.Lock()
			conns = append(conns, r)
			mu.Unlock()
		},
	}
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		g.Run()
	}()

	// Sampler: pool trajectory until the campaign (load + settle) ends.
	sampleStop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(sl.SampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-sampleStop:
				return
			case <-tick.C:
				serving, pool := f.PoolSize()
				st := f.Stats()
				mu.Lock()
				rep.Samples = append(rep.Samples, PoolSample{
					At:      time.Since(start),
					Serving: serving, Pool: pool,
					Launched:   int(launched.Load()),
					Routed:     st.ConnsRouted,
					Refused:    st.ConnsRefused,
					Shed:       st.ConnsShed,
					AdmitWaits: st.AdmitWaits,
				})
				mu.Unlock()
			}
		}
	}()

	<-genDone
	<-faultsDone

	rep.Kills = int(injected.Load())
	rep.Drains = int(drains.Load())
	if rep.Kills > 0 && !f.WaitRecoveries(rep.Kills, sl.Timeout) {
		rep.lostVerdicts = true
	}

	// Settle: keep sampling so the shrink back to the floor is on the
	// trajectory, then stop.
	time.Sleep(sl.Settle)
	close(sampleStop)
	<-samplerDone

	rep.Launched = int(launched.Load())
	rep.Conns = conns
	rep.Elapsed = time.Since(start)
	rep.FleetStats = f.Stats()
	for _, s := range rep.Samples {
		if s.Serving > rep.PeakServing {
			rep.PeakServing = s.Serving
		}
	}
	if n := len(rep.Samples); n > 0 {
		rep.FinalServing = rep.Samples[n-1].Serving
	}
	rep.audit()
	return rep
}

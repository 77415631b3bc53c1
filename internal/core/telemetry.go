// The MVEE stats-aggregation hook: one call samples every subsystem an
// instance owns — GHUMVEE monitor, IK-B broker, the IP-MON replicas,
// the replication buffer, the policy engine and the live knob settings
// — into a telemetry.Sampler under whatever label set the caller
// registered (fleet adds shard="N"). The subsystems' own Stats()
// atomics are the cells; no hot path changes here.
package core

import (
	"remon/internal/ghumvee"
	"remon/internal/ikb"
	"remon/internal/ipmon"
	"remon/internal/mem"
	"remon/internal/rb"
	"remon/internal/telemetry"
)

// TelemetrySnapshot aggregates one instance's subsystem stats and knob
// positions — the fleet controller's observation input.
type TelemetrySnapshot struct {
	Monitor ghumvee.Stats
	Broker  ikb.Stats
	// IPMon sums the per-replica IP-MON counters (divergences are
	// slave-side, dispatch counts per replica).
	IPMon ipmon.Stats
	RB    rb.Stats
	// VirtualNs is the live virtual elapsed time (critical path over
	// thread clocks) — deltas over it per call are the latency signal.
	VirtualNs uint64
	// Knobs: the live relaxation and pipeline positions.
	PolicyVersion uint64
	MaxLag        int
	Replicas      int
}

// Telemetry samples the aggregation (zero value outside ModeReMon for
// the IP-MON and RB parts).
func (m *MVEE) Telemetry() TelemetrySnapshot {
	ts := TelemetrySnapshot{
		RB:        m.RBStats(),
		VirtualNs: uint64(m.VirtualNow()),
		MaxLag:    m.MaxLag(),
		Replicas:  m.Cfg.Replicas,
	}
	if m.Monitor != nil {
		ts.Monitor = m.Monitor.Stats()
	}
	if m.Broker != nil {
		ts.Broker = m.Broker.Stats()
	}
	if m.engine != nil {
		ts.PolicyVersion = uint64(m.engine.Version())
	}
	for _, ip := range m.IPMons {
		s := ip.Stats()
		ts.IPMon.Dispatched += s.Dispatched
		ts.IPMon.Unmonitored += s.Unmonitored
		ts.IPMon.ForwardedPolicy += s.ForwardedPolicy
		ts.IPMon.ForwardedSignal += s.ForwardedSignal
		ts.IPMon.ForwardedTooBig += s.ForwardedTooBig
		ts.IPMon.TemporalExempt += s.TemporalExempt
		ts.IPMon.Divergences += s.Divergences
	}
	return ts
}

// CollectTelemetry samples every subsystem into s under the canonical
// metric prefixes. Designed to run inside a registry collector — fleet
// resolves the live MVEE per scrape so respawns transparently swap the
// source.
func (m *MVEE) CollectTelemetry(s *telemetry.Sampler) {
	ts := m.Telemetry()
	ts.Monitor.Emit(prefixed(s, "remon_ghumvee_"))
	ts.Broker.Emit(prefixed(s, "remon_ikb_"))
	ts.IPMon.Emit(prefixed(s, "remon_ipmon_"))
	ts.RB.Emit(prefixed(s, "remon_rb_"))
	if m.engine != nil {
		m.engine.Stats().Emit(prefixed(s, "remon_policy_"))
	}
	s.Metric("remon_mvee_virtual_ns", float64(ts.VirtualNs))
	s.Metric("remon_mvee_max_lag", float64(ts.MaxLag))
	s.Metric("remon_mvee_replicas", float64(ts.Replicas))
}

// RegisterArenaTelemetry registers the process-wide segment arena. Safe
// to call more than once per registry: the collector samples absolute
// values, so duplicate collectors write identical cells.
func RegisterArenaTelemetry(reg *telemetry.Registry) {
	reg.RegisterCollector(nil, func(s *telemetry.Sampler) {
		mem.ArenaSnapshot().Emit(prefixed(s, "remon_arena_"))
	})
}

// prefixed adapts a Sampler to the packages' Emit convention.
func prefixed(s *telemetry.Sampler, prefix string) func(name string, v uint64) {
	return func(name string, v uint64) { s.MetricU(prefix+name, v) }
}

// Fleet-side telemetry wiring: the health model (per-shard lifecycle
// state, policy level, last verdict) and the registry hookup that turns
// every shard's subsystem stats into labeled Prometheus series. The
// fleet registers *collectors*, not cells — each scrape resolves the
// shard's live MVEE under s.mu, so a respawn transparently swaps the
// sampled replica set without re-registration.
package fleet

import (
	"fmt"

	"remon/internal/core"
	"remon/internal/telemetry"
)

// Health builds the fleet's JSON-facing health report: per-shard
// lifecycle state with the live policy level and in-flight count, plus
// the fleet-global admission/failover counters. Status is "ok" only
// while every shard serves; any shard mid-drain, quarantined or
// respawning degrades the report (the fleet still serves — degraded is
// a capacity warning, not an outage). Retired tombstones are reported
// but do not degrade: a deliberately scaled-down slot is not a capacity
// loss, the pool scaler already accounted for it.
func (f *Fleet) Health() telemetry.HealthReport {
	rep := telemetry.HealthReport{Status: "ok"}
	for _, s := range f.pool() {
		s.mu.Lock()
		// One load of the packed occupancy word: two would let a
		// pending->conn conversion between them skew the sum by one.
		occ := s.occ.Load()
		state := s.state.Load()
		h := telemetry.ShardHealth{
			Shard:       s.idx,
			State:       state.String(),
			Gen:         int(s.gen.Load()),
			Policy:      s.effectiveLevelLocked().String(),
			InFlight:    occConns(occ) + occPending(occ),
			LastVerdict: s.lastVerdict.Reason,
			Diverged:    s.lastVerdict.Diverged,
		}
		s.mu.Unlock()
		if state != Serving && state != Retired {
			rep.Status = "degraded"
		}
		rep.Shards = append(rep.Shards, h)
	}
	st := f.Stats()
	rep.ConnsRouted = st.ConnsRouted
	rep.ConnsRefused = st.ConnsRefused
	rep.ConnsShed = st.ConnsShed
	rep.Handoffs = st.Handoffs
	rep.Failovers = st.Failovers
	rep.Recoveries = st.Recoveries
	if total := st.ConnsRouted + st.ConnsRefused; total > 0 {
		rep.ShedRate = float64(st.ConnsShed) / float64(total)
	}
	return rep
}

// RegisterTelemetry wires the whole fleet into reg:
//
//   - one unlabeled collector for the fleet-global counters
//     (remon_fleet_*) and the front network's vnet stats
//     (remon_vnet_* with net="front");
//   - one collector per shard (shard="N") that resolves the live MVEE
//     under the shard lock and samples every subsystem through
//     core.CollectTelemetry, plus the shard's lifecycle gauges and its
//     back network (net="back");
//   - the process-wide mem arena (remon_arena_*).
//
// Safe to call once per registry; collectors run at scrape time under
// the registry lock, so a scrape observes each shard's replica set
// per-shard-consistently (see the Stats consistency contract).
//
// Pool mutation tolerance: the registry is remembered, and AddShard
// registers a freshly appended shard's collector into every remembered
// registry — a scrape racing a scale-up sees either the old or the new
// pool, never a torn one (registration and scraping serialise on the
// registry lock). Retired shards keep their collector: the lifecycle
// gauges keep reporting the tombstone, the per-MVEE series simply stop.
func (f *Fleet) RegisterTelemetry(reg *telemetry.Registry) {
	reg.RegisterCollector(nil, f.collectFleet)
	pool := f.pool()
	f.mu.Lock()
	f.regs = append(f.regs, reg)
	f.mu.Unlock()
	for _, s := range pool {
		f.registerShardInto(reg, s)
	}
	core.RegisterArenaTelemetry(reg)
}

// registerShardInto wires one shard's collector into one registry.
func (f *Fleet) registerShardInto(reg *telemetry.Registry, s *shard) {
	labels := telemetry.Labels{{Key: "shard", Value: fmt.Sprintf("%d", s.idx)}}
	reg.RegisterCollector(labels, func(sam *telemetry.Sampler) { f.collectShard(s, sam) })
}

// registerShardCollectors wires a freshly appended shard into every
// registry the fleet is already registered with (AddShard's half of the
// pool-mutation tolerance contract). Revived tombstones skip this —
// their collector from the original registration still points at the
// same slot.
func (f *Fleet) registerShardCollectors(s *shard) {
	f.mu.Lock()
	regs := append([]*telemetry.Registry(nil), f.regs...)
	f.mu.Unlock()
	for _, reg := range regs {
		f.registerShardInto(reg, s)
	}
}

// collectFleet samples the fleet-global counters and the front network.
func (f *Fleet) collectFleet(sam *telemetry.Sampler) {
	st := f.Stats()
	sam.Help("remon_fleet_conns_routed_total", "connections admitted and spliced to a shard")
	sam.MetricU("remon_fleet_conns_routed_total", st.ConnsRouted)
	sam.Help("remon_fleet_conns_refused_total", "connections refused at admission")
	sam.MetricU("remon_fleet_conns_refused_total", st.ConnsRefused)
	sam.Help("remon_fleet_conns_shed_total", "admissions shed with ErrOverloaded (subset of refused)")
	sam.MetricU("remon_fleet_conns_shed_total", st.ConnsShed)
	sam.Help("remon_fleet_failovers_total", "in-flight connections cut by quarantine or drain expiry")
	sam.MetricU("remon_fleet_failovers_total", st.Failovers)
	sam.Help("remon_fleet_handoffs_total", "in-flight connections migrated live to a successor shard")
	sam.MetricU("remon_fleet_handoffs_total", st.Handoffs)
	sam.Help("remon_fleet_replayed_bytes_total", "request bytes replayed across live handoffs")
	sam.MetricU("remon_fleet_replayed_bytes_total", st.ReplayedBytes)
	sam.Help("remon_fleet_recoveries_total", "completed quarantine->serving divergence recoveries")
	sam.MetricU("remon_fleet_recoveries_total", uint64(st.Recoveries))
	sam.Help("remon_fleet_admit_waits_total", "admission retry backoff sleeps (pre-shed pressure)")
	sam.MetricU("remon_fleet_admit_waits_total", st.AdmitWaits)
	sam.Help("remon_fleet_shards", "pool slots (serving + transitioning + retired)")
	sam.Metric("remon_fleet_shards", float64(len(st.Shards)))
	sam.Help("remon_fleet_serving_shards", "shards currently serving traffic")
	sam.Metric("remon_fleet_serving_shards", float64(st.ServingShards))

	front := f.frontNet.Stats()
	front.Emit(func(name string, v uint64) {
		sam.MetricWith("remon_vnet_"+name, telemetry.Labels{{Key: "net", Value: "front"}}, float64(v))
	})
}

// collectShard samples one shard: lifecycle gauges always, subsystem
// stats when a replica set is live. The MVEE pointer is resolved under
// s.mu — the supervisor claims s.mvee to nil under the same lock before
// Close, so a non-nil pointer seen here is safe to sample for the
// duration of the scrape (Close waits on runDone, which outlives us
// only through the supervisor's own teardown ordering; sampling is pure
// atomic reads against memory the GC keeps alive regardless).
func (f *Fleet) collectShard(s *shard, sam *telemetry.Sampler) {
	s.mu.Lock()
	state, gen := s.state.Load(), int(s.gen.Load())
	occ := s.occ.Load()
	inFlight := occConns(occ) + occPending(occ)
	routed := s.connsRouted.Load()
	diverged := s.lastVerdict.Diverged
	mvee := s.mvee
	net := s.net
	s.mu.Unlock()

	sam.Help("remon_shard_state", "lifecycle state (0=serving 1=draining 2=quarantined 3=respawning 4=retired)")
	sam.Metric("remon_shard_state", float64(state))
	sam.Help("remon_shard_gen", "respawn generation")
	sam.Metric("remon_shard_gen", float64(gen))
	sam.Help("remon_shard_in_flight", "in-flight connections (tracked + pending)")
	sam.Metric("remon_shard_in_flight", float64(inFlight))
	sam.Help("remon_shard_conns_routed_total", "connections routed to this shard")
	sam.MetricU("remon_shard_conns_routed_total", routed)
	sam.Help("remon_shard_last_verdict_diverged", "1 when the shard's last verdict was a divergence")
	if diverged {
		sam.Metric("remon_shard_last_verdict_diverged", 1)
	} else {
		sam.Metric("remon_shard_last_verdict_diverged", 0)
	}
	if mvee != nil {
		mvee.CollectTelemetry(sam)
	}
	if net != nil {
		net.Stats().Emit(func(name string, v uint64) {
			sam.MetricWith("remon_vnet_"+name, telemetry.Labels{{Key: "net", Value: "back"}}, float64(v))
		})
	}
}

// ServeTelemetry binds a telemetry exporter for this fleet on its front
// network: a fresh registry with the fleet registered, served at addr
// (/metrics Prometheus text, /health JSON). Callers Close the returned
// exporter; the registry is also returned so harnesses can add their
// own collectors (e.g. a finished chaos report) next to the fleet's.
func (f *Fleet) ServeTelemetry(addr string) (*telemetry.Exporter, *telemetry.Registry, error) {
	reg := telemetry.NewRegistry()
	f.RegisterTelemetry(reg)
	exp, err := telemetry.NewExporter(f.frontNet, addr, reg, f)
	if err != nil {
		return nil, nil, err
	}
	return exp, reg, nil
}

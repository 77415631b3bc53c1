package chaos

import (
	"testing"
	"time"

	"remon/internal/fleet"
	"remon/internal/loadgen"
)

// surgeFleet builds the elastic-campaign fleet: small per-shard
// connection caps so the surge actually saturates, and a deep admission
// retry budget (~0.75s of jittered backoff — a sum of ~95 independent
// jittered sleeps, so tightly concentrated) so clients ride out the
// autoscaler's reaction time instead of being refused the moment the
// pool is momentarily full.
func surgeFleet(t *testing.T) *fleet.Fleet {
	t.Helper()
	f, err := fleet.New(fleet.Config{
		Shards:           2,
		Replicas:         2,
		RequestSize:      32,
		ResponseSize:     128,
		MaxConnsPerShard: 6,
		AdmitRetries:     96,
		AdmitBackoff:     time.Millisecond,
		LockstepTimeout:  5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// surgeSchedule is the shared offered-load shape: steady trickle, a 10x
// open-loop burst, decay back to the trickle. The numbers are chosen
// against the fleet's capacity so the two runs separate cleanly:
// connections live ~1.4s (40 requests, 35ms apart), so the ~19 the
// schedule offers are all concurrent at the surge peak — under the
// elastic clamp's 24 slots (4 shards x 6) but far over the fixed pool's
// 12. The fixed pool fills every slot near-simultaneously and then
// completes nothing for ~1.4s, a gap no admission retry budget (~0.75s)
// survives; the elastic pool grows within ~100ms, so no pick ever waits
// anywhere near the budget.
func surgeSchedule() SurgeLoad {
	return SurgeLoad{
		Phases: []SurgePhase{
			{Duration: 200 * time.Millisecond, ConnsPerSec: 10},
			{Duration: 150 * time.Millisecond, ConnsPerSec: 100},
			{Duration: 200 * time.Millisecond, ConnsPerSec: 10},
		},
		Shape: loadgen.Shape{
			RequestsPerConn: 40,
			Window:          4,
			Gap:             35 * time.Millisecond,
		},
		SampleEvery: 5 * time.Millisecond,
		Settle:      3 * time.Second,
	}
}

// TestSurgeAutoscaleZeroLoss is the PR's acceptance scenario: a 10x
// open-loop surge with a shard killed mid-scale-up. The pool must grow
// to the MaxShards clamp, lose nothing (the admission retry budget
// bridges the scale-up; handoff bridges the kill), and shrink back to
// the floor after the decay. A second campaign against an identical
// fixed-capacity fleet must shed strictly more — the autoscaler's
// existence proof.
func TestSurgeAutoscaleZeroLoss(t *testing.T) {
	f := surgeFleet(t)
	defer f.Close()

	as := f.StartControl(fleet.ControlConfig{
		Scaler: &fleet.ScalerConfig{
			MinShards: 2, MaxShards: 4,
			AdmitWaitHigh: 4,
			UpRounds:      2, DownRounds: 6,
			UpCooldown: 10, DownCooldown: 4,
			InFlightFracHigh: 0.8, InFlightFracLow: 0.45,
		},
		Interval: 5 * time.Millisecond,
		Window:   4,
	})
	defer as.Close()

	// Kill a shard in the thick of the surge — while the autoscaler is
	// mid-scale-up. Supervisor recovery must preempt scaling cleanly.
	plan := Plan{Events: []Event{{At: 400 * time.Millisecond, Kind: KillShard, Shard: 0}}}
	rep := RunSurge(f, plan, surgeSchedule())

	if rep.Kills != 1 {
		t.Fatalf("injected %d kills, want 1", rep.Kills)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("invariants violated:\n%s\nstats: %+v", joinLines(v), rep.FleetStats)
	}
	if lost := rep.Lost(); lost != 0 {
		t.Fatalf("%d requests lost under the surge", lost)
	}
	if rep.RequestsSent() != rep.ResponsesReceived() {
		t.Fatalf("sent %d, answered %d", rep.RequestsSent(), rep.ResponsesReceived())
	}
	// Admission latency, timed from each connection's due instant.
	if p50, p99 := rep.AdmitP(0.5), rep.AdmitP(0.99); p50 <= 0 || p99 < p50 {
		t.Fatalf("admission latency p50 %v, p99 %v; want 0 < p50 <= p99", p50, p99)
	}
	if rep.PeakServing != 4 {
		t.Fatalf("pool peaked at %d serving shards, want the MaxShards clamp 4; trajectory: %+v",
			rep.PeakServing, poolTrajectory(rep.Samples))
	}
	if rep.FinalServing != 2 {
		t.Fatalf("pool settled at %d serving shards, want the MinShards floor 2; trajectory: %+v",
			rep.FinalServing, poolTrajectory(rep.Samples))
	}
	if rep.FleetStats.ConnsShed != 0 {
		t.Fatalf("autoscaled run shed %d connections; the retry budget should have bridged the scale-up",
			rep.FleetStats.ConnsShed)
	}
	// The decision log shows both directions plus the supervisor
	// preemption lifecycle.
	ups, downs := 0, 0
	for _, ev := range as.Events() {
		switch ev.Decision {
		case fleet.ScaleUp:
			ups++
		case fleet.ScaleDown:
			downs++
		}
	}
	if ups < 2 || downs < 2 {
		t.Fatalf("scale event log: %d ups, %d downs, want >=2 each; events: %+v", ups, downs, as.Events())
	}

	// Comparison run: identical fleet and schedule, capacity pinned at 2
	// shards. The surge outruns the fixed pool's retry budget — it must
	// shed strictly more than the elastic run did.
	ff := surgeFleet(t)
	defer ff.Close()
	fixed := RunSurge(ff, Plan{}, surgeSchedule())
	if fixed.FleetStats.ConnsShed <= rep.FleetStats.ConnsShed {
		t.Fatalf("fixed pool shed %d, autoscaled shed %d — elasticity bought nothing",
			fixed.FleetStats.ConnsShed, rep.FleetStats.ConnsShed)
	}
}

// poolTrajectory compresses samples for failure messages: only the
// points where the serving count changed.
func poolTrajectory(samples []PoolSample) []PoolSample {
	var out []PoolSample
	last := -1
	for _, s := range samples {
		if s.Serving != last {
			out = append(out, s)
			last = s.Serving
		}
	}
	return out
}

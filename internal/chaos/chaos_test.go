package chaos

import (
	"reflect"
	"testing"
	"time"

	"remon/internal/fleet"
	"remon/internal/loadgen"
	"remon/internal/model"
)

func chaosFleet(t *testing.T, shards int) *fleet.Fleet {
	t.Helper()
	f, err := fleet.New(fleet.Config{
		Shards:          shards,
		Replicas:        2,
		RequestSize:     32,
		ResponseSize:    128,
		LockstepTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestKillEachShardZeroLoss is the acceptance run: every shard killed in
// turn while open-loop clients keep requests outstanding; the invariant
// checker must come back clean — zero lost requests, no phantom bytes,
// monotone streams, every verdict recovered.
func TestKillEachShardZeroLoss(t *testing.T) {
	const shards = 4
	f := chaosFleet(t, shards)
	defer f.Close()

	plan := KillEachShard(shards, 100*time.Millisecond, 200*time.Millisecond)
	rep := Run(f, plan, Load{Conns: 2 * shards, Shape: loadgen.Shape{
		RequestsPerConn: 160,
		Window:          4,
		Gap:             6 * time.Millisecond,
	}})

	if rep.Kills != shards {
		t.Fatalf("injected %d kills, want %d", rep.Kills, shards)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("invariants violated:\n%s\nstats: %+v", joinLines(v), rep.FleetStats)
	}
	if lost := rep.Lost(); lost != 0 {
		t.Fatalf("%d requests lost", lost)
	}
	if rep.RequestsSent() != rep.ResponsesReceived() {
		t.Fatalf("sent %d, answered %d", rep.RequestsSent(), rep.ResponsesReceived())
	}
	if rep.FleetStats.Recoveries < shards {
		t.Fatalf("recoveries %d < kills %d", rep.FleetStats.Recoveries, shards)
	}
	if rep.FleetStats.Handoffs == 0 {
		t.Fatal("no connections were handed off — the kills missed all live splices")
	}
	if rep.FleetStats.Failovers != 0 {
		t.Fatalf("%d connections degraded to cuts", rep.FleetStats.Failovers)
	}
}

// TestStormZeroLoss: correlated divergence on every shard at once; the
// supervisor recovers them serially and handoffs land on respawned
// shards — still zero loss.
func TestStormZeroLoss(t *testing.T) {
	f := chaosFleet(t, 2)
	defer f.Close()

	plan := Plan{Events: []Event{{At: 50 * time.Millisecond, Kind: Storm}}}
	rep := Run(f, plan, Load{Conns: 4, Shape: loadgen.Shape{
		RequestsPerConn: 40,
		Window:          4,
		Gap:             4 * time.Millisecond,
	}})
	if rep.Kills != 2 {
		t.Fatalf("storm armed %d shards, want 2", rep.Kills)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("invariants violated:\n%s\nstats: %+v", joinLines(v), rep.FleetStats)
	}
}

// TestNetworkFaultsZeroLoss: pure network chaos (latency spike, drop
// burst, one shard's backend stalling) — no shard ever leaves the pool,
// and the reliable-stream model must deliver everything anyway.
func TestNetworkFaultsZeroLoss(t *testing.T) {
	f := chaosFleet(t, 2)
	defer f.Close()

	plan := Plan{Events: []Event{
		{At: 20 * time.Millisecond, Kind: DelaySpike, Span: 60 * time.Millisecond, Extra: 300 * model.Microsecond},
		{At: 60 * time.Millisecond, Kind: DropBurst, Span: 60 * time.Millisecond, DropEvery: 4},
		{At: 100 * time.Millisecond, Kind: ReplicaStall, Shard: 0, Span: 60 * time.Millisecond, Extra: model.Millisecond},
	}}
	rep := Run(f, plan, Load{Conns: 4, Shape: loadgen.Shape{
		RequestsPerConn: 60,
		Window:          4,
		Gap:             3 * time.Millisecond,
	}})
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("invariants violated:\n%s", joinLines(v))
	}
	if rep.FleetStats.Handoffs != 0 || rep.FleetStats.Recoveries != 0 {
		t.Fatalf("network-only chaos triggered lifecycle events: %+v", rep.FleetStats)
	}
}

// TestRandomPlanDeterministic: the same seed always derives the same
// schedule — the reproducibility contract.
func TestRandomPlanDeterministic(t *testing.T) {
	a := Random(0xC0FFEE, 4, 12, time.Second)
	b := Random(0xC0FFEE, 4, 12, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	c := Random(0xC0FFEE+1, 4, 12, time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
}

func joinLines(v []string) string {
	s := ""
	for _, line := range v {
		s += "  " + line + "\n"
	}
	return s
}

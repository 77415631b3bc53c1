// Package chaos is the fault-injection harness that proves the fleet's
// zero-loss failover story. A Plan is a seeded, deterministic schedule
// of faults — shard kills (injected divergences), administrative drains,
// network delay spikes, drop bursts, replica stalls, and divergence
// storms — executed against a running fleet while open-loop clients on
// internal/loadgen keep every shard under traffic. An invariant checker
// audits the run: every accepted request got exactly one response,
// per-conn byte streams stayed monotone in virtual time, and no injected
// verdict was lost.
//
// Determinism: the schedule (event kinds, targets, offsets, fault
// parameters) derives entirely from the plan seed via the repo's
// SplitMix64 RNG, so a failing run reproduces from its seed. Host-time
// execution jitter shifts *when* faults land relative to individual
// requests — the invariants are exactly the properties that must hold
// regardless.
package chaos

import (
	"fmt"
	"sort"
	"time"

	"remon/internal/model"
)

// Kind enumerates fault event types.
type Kind int

// Fault kinds.
const (
	// KillShard arms the compromised-master simulation on one shard: its
	// next response is tampered, the slave's IP-MON comparison declares
	// divergence, and the supervisor quarantines the shard.
	KillShard Kind = iota
	// DrainShard requests an administrative rotation of one shard.
	DrainShard
	// DelaySpike adds extra virtual latency to every front-network
	// segment for the event's span.
	DelaySpike
	// DropBurst drops every Nth front-network segment for the span;
	// the stream is reliable, so a drop is modeled as RTO redelivery
	// (the segment arrives one retransmission timeout late).
	DropBurst
	// ReplicaStall degrades one shard's backend network (extra latency +
	// periodic RTO) for the span — a struggling, but not diverged,
	// replica set.
	ReplicaStall
	// Storm arms divergence on every Serving shard at once — the
	// worst-case correlated compromise.
	Storm
)

func (k Kind) String() string {
	switch k {
	case KillShard:
		return "kill"
	case DrainShard:
		return "drain"
	case DelaySpike:
		return "delay-spike"
	case DropBurst:
		return "drop-burst"
	case ReplicaStall:
		return "replica-stall"
	case Storm:
		return "storm"
	}
	return "?"
}

// Event is one scheduled fault.
type Event struct {
	// At is the host-time offset into the run.
	At   time.Duration
	Kind Kind
	// Shard targets KillShard/DrainShard/ReplicaStall (ignored
	// otherwise).
	Shard int
	// Span bounds DelaySpike/DropBurst/ReplicaStall (the profile is
	// cleared afterwards).
	Span time.Duration
	// Extra is the added virtual latency for DelaySpike/ReplicaStall.
	Extra model.Duration
	// DropEvery is the drop period for DropBurst (every Nth segment).
	DropEvery int
}

func (e Event) String() string {
	return fmt.Sprintf("%v@%v shard=%d span=%v", e.Kind, e.At, e.Shard, e.Span)
}

// Plan is a deterministic fault schedule.
type Plan struct {
	Seed   uint64
	Events []Event
}

// KillEachShard builds the acceptance-criteria plan: kill every shard
// in turn, spaced so each quarantine+handoff+respawn cycle completes
// before the next begins.
func KillEachShard(shards int, start, spacing time.Duration) Plan {
	p := Plan{Seed: uint64(shards)}
	for i := 0; i < shards; i++ {
		p.Events = append(p.Events, Event{
			At:    start + time.Duration(i)*spacing,
			Kind:  KillShard,
			Shard: i,
		})
	}
	return p
}

// Random derives an n-event schedule over the horizon from seed. Kills
// dominate (they exercise the handoff path); the network faults fill in
// the background pressure.
func Random(seed uint64, shards, n int, horizon time.Duration) Plan {
	rng := model.NewRNG(seed)
	p := Plan{Seed: seed}
	for i := 0; i < n; i++ {
		ev := Event{
			At:    time.Duration(rng.Float64() * float64(horizon)),
			Shard: rng.Intn(shards),
			Span:  horizon / 10,
		}
		switch r := rng.Intn(10); {
		case r < 4:
			ev.Kind = KillShard
		case r < 5:
			ev.Kind = DrainShard
		case r < 7:
			ev.Kind = DelaySpike
			ev.Extra = model.Duration(50+rng.Intn(500)) * model.Microsecond
		case r < 9:
			ev.Kind = DropBurst
			ev.DropEvery = 3 + rng.Intn(8)
		default:
			ev.Kind = ReplicaStall
			ev.Extra = model.Duration(200+rng.Intn(2000)) * model.Microsecond
		}
		p.Events = append(p.Events, ev)
	}
	sort.Slice(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p
}

// The self-tuning policy ladder: a per-shard state machine that watches
// the shard's windowed telemetry (service time, monitored-call mix)
// against a latency SLO and steps its spatial relaxation level — the
// paper's Table 1 axis, the one knob a fleet shard's server program
// responds to — through SetShardPolicy. Tuner is pure (observe ->
// decide -> ratchet-check, no clocks or locks), so every transition is
// unit testable; the Controller (control.go) hosts it.
//
// Two rules keep the ladder sound (DESIGN.md §11):
//
//   - Divergence always wins. A shard whose verdict bit flipped is
//     reset to BASE immediately, regardless of how far the SLO loop had
//     relaxed it — the same precedence the fleet's RespawnPolicy
//     enforces structurally. The SLO loop then holds off (HoldRounds)
//     before re-stepping, so a flapping shard cannot be re-relaxed
//     between attacks.
//   - Relaxation is monotone per round and capped. The tuner moves one
//     level per decision and never past MaxLevel, mirroring the IK-B
//     GrantableEver ratchet: the spectrum of states the tuner can reach
//     is fixed up front, not discovered at runtime.
package fleet

import (
	"fmt"

	"remon/internal/policy"
)

// Signals is one observation round's input to the tuner: rates derived
// from telemetry deltas over the control loop's window.
type Signals struct {
	// Calls is the number of monitored+unmonitored calls the shard
	// completed this round; rounds below TunerConfig.MinCalls are
	// ignored (an idle shard teaches nothing).
	Calls uint64
	// NsPerCall is the shard's virtual service time per call — the
	// SLO-bearing signal, in the unit of TunerConfig.SLONsPerCall.
	NsPerCall float64
	// MonitoredFrac is the fraction of calls that took the monitored
	// (lockstep) path rather than IP-MON.
	MonitoredFrac float64
	// Diverged reports that the shard produced a divergence verdict
	// since the last round. It preempts everything else.
	Diverged bool
}

// Phase is the tuner's control state.
type Phase int

// Tuner phases.
const (
	// Stepping: outside the SLO, actively moving the level.
	Stepping Phase = iota
	// Steady: within the SLO; level parked.
	Steady
	// Hold: post-divergence backoff; no relaxation until the hold
	// expires.
	Hold
)

func (p Phase) String() string {
	switch p {
	case Stepping:
		return "stepping"
	case Steady:
		return "steady"
	case Hold:
		return "hold"
	}
	return "?"
}

// TunerConfig bounds the tuner's spectrum and sets its targets.
type TunerConfig struct {
	// SLONsPerCall is the virtual service-time target; rounds at or
	// under it are Steady.
	SLONsPerCall float64
	// MonitoredFracMax: a level step-up only pays while more than this
	// fraction of calls are monitored.
	MonitoredFracMax float64
	// MaxLevel caps the spectrum (the ratchet: the tuner can never step
	// past it).
	MaxLevel policy.Level
	// MinCalls gates decisions: rounds with fewer calls are no-ops.
	MinCalls uint64
	// HoldRounds is how many rounds a divergence freezes relaxation.
	HoldRounds int
	// IdleRounds enables the reverse edge: after this many consecutive
	// comfortably-idle rounds (service time at or under
	// StepDownFrac*SLONsPerCall, with traffic above MinCalls) the tuner
	// gives one level back, never below BASE. 0 (the default) disables
	// stepping down: the ladder stays monotone-until-reset.
	IdleRounds int
	// StepDownFrac is the idle hysteresis band (default 0.5): only
	// rounds under this fraction of the SLO count as comfortably idle,
	// so a shard hovering just inside the SLO parks Steady instead of
	// oscillating relax/tighten around the threshold.
	StepDownFrac float64
}

func (c TunerConfig) withDefaults() TunerConfig {
	if c.SLONsPerCall <= 0 {
		c.SLONsPerCall = 1500
	}
	if c.MonitoredFracMax <= 0 {
		c.MonitoredFracMax = 0.05
	}
	if c.MaxLevel == policy.LevelNone {
		c.MaxLevel = policy.SocketRWLevel
	}
	if c.MinCalls == 0 {
		c.MinCalls = 64
	}
	if c.HoldRounds <= 0 {
		c.HoldRounds = 3
	}
	if c.StepDownFrac <= 0 {
		c.StepDownFrac = 0.5
	}
	return c
}

// Decision is one tuner round's outcome.
type Decision struct {
	Level   policy.Level
	Changed bool
	Phase   Phase
	Reason  string
}

// Tuner is the pure per-shard decision state machine. Not safe for
// concurrent use; the Controller drives one per shard.
type Tuner struct {
	cfg   TunerConfig
	level policy.Level
	phase Phase
	hold  int
	// idle counts consecutive comfortably-idle rounds toward a
	// step-down; any pressure, hold or divergence resets it.
	idle int
}

// NewTuner builds a tuner starting from the given level.
func NewTuner(cfg TunerConfig, start policy.Level) *Tuner {
	t := &Tuner{cfg: cfg.withDefaults(), level: start, phase: Stepping}
	t.clamp()
	return t
}

// Level reports the tuner's current position.
func (t *Tuner) Level() policy.Level { return t.level }

// clamp enforces the spectrum cap — the ratchet check. Runs after every
// decision so no code path, present or future, can step outside the
// configured spectrum.
func (t *Tuner) clamp() {
	if t.level > t.cfg.MaxLevel {
		t.level = t.cfg.MaxLevel
	}
}

// decide records the round's outcome, ratchet-checked.
func (t *Tuner) decide(prev policy.Level, phase Phase, reason string) Decision {
	t.clamp()
	return Decision{Level: t.level, Changed: t.level != prev, Phase: phase, Reason: reason}
}

// Step runs one observe -> decide -> ratchet-check round. The returned
// decision carries the level the caller should actuate (Changed reports
// whether it moved).
func (t *Tuner) Step(sig Signals) Decision {
	prev := t.level
	// Divergence always wins: reset to BASE plus a hold, before any SLO
	// consideration. Even a round that is also under MinCalls resets —
	// the verdict is a trust event, not a performance sample.
	if sig.Diverged {
		t.level = policy.BaseLevel
		t.phase = Hold
		t.hold = t.cfg.HoldRounds
		t.idle = 0
		return t.decide(prev, Hold, "divergence: conservative reset")
	}

	if t.phase == Hold {
		t.hold--
		t.idle = 0
		if t.hold > 0 {
			return t.decide(prev, Hold, fmt.Sprintf("holding (%d rounds left)", t.hold))
		}
		t.phase = Stepping
	}

	if sig.Calls < t.cfg.MinCalls {
		return t.decide(prev, t.phase, "insufficient traffic")
	}

	if sig.NsPerCall <= t.cfg.SLONsPerCall {
		t.phase = Steady
		// The reverse edge: sustained comfortably-idle rounds give one
		// level back per IdleRounds window. Rounds merely inside the SLO
		// (but above the StepDownFrac band) park Steady without counting
		// — the hysteresis that prevents relax/tighten oscillation.
		if t.cfg.IdleRounds > 0 && sig.NsPerCall <= t.cfg.StepDownFrac*t.cfg.SLONsPerCall {
			t.idle++
			if t.idle >= t.cfg.IdleRounds {
				t.idle = 0
				if t.level > policy.BaseLevel {
					t.level--
					return t.decide(prev, Steady, fmt.Sprintf("sustained idle: level -> %v", t.level))
				}
			}
		} else {
			t.idle = 0
		}
		return t.decide(prev, Steady, "within SLO")
	}

	// Outside the SLO: widening the spatial policy buys something only
	// while a meaningful share of calls still takes the monitored path.
	t.phase = Stepping
	t.idle = 0
	reason := "at spectrum cap"
	switch {
	case sig.MonitoredFrac <= t.cfg.MonitoredFracMax:
		reason = fmt.Sprintf("monitored frac %.2f: relaxation buys nothing", sig.MonitoredFrac)
	case t.level < t.cfg.MaxLevel:
		t.level++
		reason = fmt.Sprintf("monitored frac %.2f: level -> %v", sig.MonitoredFrac, t.level)
	}
	return t.decide(prev, Stepping, reason)
}

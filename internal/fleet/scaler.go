// The elastic pool sizer: a pure observe → decide state machine
// (mirroring Tuner's shape, DESIGN.md §12) that grows the shard pool
// when windowed admission pressure — shed/refused connections,
// admission-retry backoffs, in-flight saturation — crosses high water,
// and shrinks it via the drain+handoff machinery when sustained
// headroom crosses low water.
//
// Three rules keep the loop sound:
//
//   - Supervisor wins. A divergence quarantine or respawn in flight
//     (or a completed recovery inside the signal window) preempts scale
//     decisions and resets the hysteresis streaks: the self-healing
//     path is re-arranging the same capacity the scaler would reason
//     about, and a kill mid-scale-up must not double into a second
//     grow or a panic shrink.
//   - Hysteresis everywhere. Scale-up needs UpRounds consecutive
//     overloaded rounds, scale-down DownRounds consecutive idle rounds,
//     and every actuation starts a cooldown — so one burst buys one
//     shard, not a staircase, and the pool never flaps around a
//     threshold.
//   - Clamps are terminal, not errors. At MaxShards the pool stops
//     growing and admission degrades gracefully: typed backpressure
//     (*OverloadError with a retry-after hint) instead of queue
//     collapse. At MinShards the pool stops shrinking. Both hold the
//     streak armed so the decision log shows the pressure.
//
// Scaler has no clocks or locks (every transition unit-testable); the
// Controller (control.go) feeds it CounterWindow deltas over fleet
// Stats and actuates AddShard/RemoveShard.
package fleet

import "fmt"

// ScaleDecision is one scaler round's outcome.
type ScaleDecision int

// Scale decisions.
const (
	// ScaleHold: no pool change this round.
	ScaleHold ScaleDecision = iota
	// ScaleUp: add one shard.
	ScaleUp
	// ScaleDown: drain and retire one shard.
	ScaleDown
)

func (d ScaleDecision) String() string {
	switch d {
	case ScaleHold:
		return "hold"
	case ScaleUp:
		return "up"
	case ScaleDown:
		return "down"
	}
	return "?"
}

// ScalerConfig bounds the pool and sets the thresholds.
type ScalerConfig struct {
	// MinShards / MaxShards clamp the pool (defaults 1 / 8). The scaler
	// never decides past them.
	MinShards int
	MaxShards int

	// High-water thresholds — ANY of them overloaded arms scale-up.
	// All are evaluated over the host loop's signal window, not
	// since boot.

	// ShedHigh: windowed shed+refused connections (default 1 — a single
	// dropped client inside the window is already an SLO breach).
	ShedHigh uint64
	// AdmitWaitHigh: windowed admission backoff sleeps (default 8).
	// This is the pre-shed signal: retries burn before refusals happen,
	// so the pool can grow before a client is actually lost.
	AdmitWaitHigh uint64
	// InFlightFracHigh: in-flight connections over serving capacity
	// (serving shards × MaxConnsPerShard; default 0.85). Unused when
	// the fleet has no connection cap.
	InFlightFracHigh float64

	// Low-water thresholds — ALL of them idle arms scale-down.

	// InFlightFracLow (default 0.5): the *projected* in-flight fraction
	// with one shard fewer must stay under this — the shrink must not
	// immediately re-trip the high water.
	InFlightFracLow float64

	// Hysteresis streaks and cooldowns, in decision rounds.

	// UpRounds: consecutive overloaded rounds before a scale-up
	// (default 2 — growing is cheap and urgent).
	UpRounds int
	// DownRounds: consecutive idle rounds before a scale-down (default
	// 8 — shrinking is deliberate; a lull is not decay).
	DownRounds int
	// UpCooldown / DownCooldown: rounds to hold after an actuation
	// (defaults 8 / 4), letting the new capacity's effect reach the
	// signals before the next decision.
	UpCooldown   int
	DownCooldown int
}

func (c ScalerConfig) withDefaults() ScalerConfig {
	if c.MinShards <= 0 {
		c.MinShards = 1
	}
	if c.MaxShards <= 0 {
		c.MaxShards = 8
	}
	if c.MaxShards < c.MinShards {
		c.MaxShards = c.MinShards
	}
	if c.ShedHigh == 0 {
		c.ShedHigh = 1
	}
	if c.AdmitWaitHigh == 0 {
		c.AdmitWaitHigh = 8
	}
	if c.InFlightFracHigh <= 0 {
		c.InFlightFracHigh = 0.85
	}
	if c.InFlightFracLow <= 0 {
		c.InFlightFracLow = 0.5
	}
	if c.UpRounds <= 0 {
		c.UpRounds = 2
	}
	if c.DownRounds <= 0 {
		c.DownRounds = 8
	}
	if c.UpCooldown <= 0 {
		c.UpCooldown = 8
	}
	if c.DownCooldown <= 0 {
		c.DownCooldown = 4
	}
	return c
}

// ScaleSignals is one observation round's input: windowed deltas and
// instantaneous occupancies derived from fleet Stats.
type ScaleSignals struct {
	// Serving is the current Serving shard count (the capacity
	// denominator and the clamp comparand).
	Serving int
	// Shed is the windowed shed+refused connection delta.
	Shed uint64
	// AdmitWaits is the windowed admission backoff-sleep delta.
	AdmitWaits uint64
	// InFlightFrac is in-flight connections over serving capacity; 0
	// when the fleet has no MaxConnsPerShard cap.
	InFlightFrac float64
	// Disrupted reports supervisor activity: a shard Quarantined or
	// Respawning right now, a recovery completed inside the window, or
	// a scale actuation still in flight. Preempts every decision.
	Disrupted bool
}

// ScaleStep is one scaler round's outcome.
type ScaleStep struct {
	Decision ScaleDecision
	Reason   string
}

// Scaler is the pure pool-sizing state machine. Not safe for concurrent
// use; the Controller drives one.
type Scaler struct {
	cfg      ScalerConfig
	high     int // consecutive overloaded rounds
	low      int // consecutive idle rounds
	cooldown int // rounds left before the next decision may fire
}

// NewScaler builds a scaler.
func NewScaler(cfg ScalerConfig) *Scaler {
	return &Scaler{cfg: cfg.withDefaults()}
}

// Config reports the scaler's effective (defaulted) configuration.
func (s *Scaler) Config() ScalerConfig { return s.cfg }

func hold(reason string) ScaleStep {
	return ScaleStep{Decision: ScaleHold, Reason: reason}
}

// Step runs one observe → decide round.
func (s *Scaler) Step(sig ScaleSignals) ScaleStep {
	// Supervisor wins: quarantine/respawn (or an actuation already in
	// flight) resets the streaks — the capacity picture is changing
	// under us, and half the pressure may be the disruption itself.
	if sig.Disrupted {
		s.high, s.low = 0, 0
		if s.cooldown > 0 {
			s.cooldown--
		}
		return hold("supervisor active: scale decisions preempted")
	}
	if s.cooldown > 0 {
		s.cooldown--
		return hold(fmt.Sprintf("cooldown (%d rounds left)", s.cooldown))
	}

	overloaded, overloadWhy := s.overloaded(sig)
	idle := s.idle(sig)
	switch {
	case overloaded:
		s.low = 0
		s.high++
		if s.high < s.cfg.UpRounds {
			return hold(fmt.Sprintf("overload streak %d/%d (%s)", s.high, s.cfg.UpRounds, overloadWhy))
		}
		if sig.Serving >= s.cfg.MaxShards {
			// Ceiling: stay armed (the log keeps showing the pressure) but
			// degrade gracefully — admission's typed backpressure is the
			// escape valve now, not pool growth.
			s.high = s.cfg.UpRounds
			return hold(fmt.Sprintf("at MaxShards=%d ceiling (%s): shedding with backpressure", s.cfg.MaxShards, overloadWhy))
		}
		s.high = 0
		s.cooldown = s.cfg.UpCooldown
		return ScaleStep{Decision: ScaleUp, Reason: overloadWhy}
	case idle:
		s.high = 0
		s.low++
		if s.low < s.cfg.DownRounds {
			return hold(fmt.Sprintf("idle streak %d/%d", s.low, s.cfg.DownRounds))
		}
		if sig.Serving <= s.cfg.MinShards {
			s.low = s.cfg.DownRounds
			return hold(fmt.Sprintf("at MinShards=%d floor", s.cfg.MinShards))
		}
		s.low = 0
		s.cooldown = s.cfg.DownCooldown
		return ScaleStep{Decision: ScaleDown, Reason: "sustained headroom"}
	default:
		// Between the waters: comfortable, but not shrinkably so.
		s.high, s.low = 0, 0
		return hold("steady")
	}
}

// overloaded reports whether any high-water threshold tripped, naming
// the first.
func (s *Scaler) overloaded(sig ScaleSignals) (bool, string) {
	switch {
	case sig.Shed >= s.cfg.ShedHigh:
		return true, fmt.Sprintf("shed %d conns in window", sig.Shed)
	case sig.AdmitWaits >= s.cfg.AdmitWaitHigh:
		return true, fmt.Sprintf("admission pressure: %d backoff waits in window", sig.AdmitWaits)
	case sig.InFlightFrac > 0 && sig.InFlightFrac >= s.cfg.InFlightFracHigh:
		return true, fmt.Sprintf("in-flight %.2f of capacity", sig.InFlightFrac)
	}
	return false, ""
}

// idle reports whether every low-water condition holds — including that
// the pool one shard smaller would still sit below high water.
func (s *Scaler) idle(sig ScaleSignals) bool {
	if sig.Shed != 0 || sig.AdmitWaits != 0 {
		return false
	}
	if sig.InFlightFrac > 0 {
		if sig.Serving <= 1 {
			return false // nothing to project onto
		}
		projected := sig.InFlightFrac * float64(sig.Serving) / float64(sig.Serving-1)
		if projected > s.cfg.InFlightFracLow {
			return false
		}
	}
	return true
}

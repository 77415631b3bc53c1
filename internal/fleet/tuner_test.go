package fleet

import (
	"testing"

	"remon/internal/policy"
)

// slowSignals is a round clearly outside the SLO with most calls still
// monitored — the tuner must want to relax.
func slowSignals() Signals {
	return Signals{Calls: 1000, NsPerCall: 100000, MonitoredFrac: 0.9}
}

// TestTunerStepsOneKnobPerRound walks the full relaxation ladder from
// BASE: the level moves exactly one step per over-SLO round and stops
// at the cap.
func TestTunerStepsOneKnobPerRound(t *testing.T) {
	tu := NewTuner(TunerConfig{}, policy.BaseLevel)
	prev := tu.Level()
	for round := 0; round < 16; round++ {
		dec := tu.Step(slowSignals())
		if !dec.Changed {
			break // spectrum cap reached
		}
		if dec.Level != prev+1 {
			t.Fatalf("round %d stepped %v -> %v, want one level", round, prev, dec.Level)
		}
		prev = dec.Level
	}
	if end := tu.Level(); end != policy.SocketRWLevel {
		t.Fatalf("ladder ended at %v, want SOCKET_RW", end)
	}
	// At the cap, continued pressure changes nothing — the ratchet.
	if dec := tu.Step(slowSignals()); dec.Changed {
		t.Fatalf("stepped past the spectrum cap: %+v", dec)
	}
	// Over the SLO with few monitored calls, relaxing buys nothing.
	low := NewTuner(TunerConfig{}, policy.BaseLevel)
	if dec := low.Step(Signals{Calls: 1000, NsPerCall: 100000, MonitoredFrac: 0.01}); dec.Changed {
		t.Fatalf("relaxed with nothing monitored: %+v", dec)
	}
}

// TestTunerDivergenceAlwaysWins: a divergence mid-ladder resets to BASE
// regardless of SLO state, and the hold keeps the tuner from
// re-relaxing for HoldRounds rounds.
func TestTunerDivergenceAlwaysWins(t *testing.T) {
	tu := NewTuner(TunerConfig{HoldRounds: 3}, policy.BaseLevel)
	for i := 0; i < 3; i++ {
		tu.Step(slowSignals())
	}
	if tu.Level() == policy.BaseLevel {
		t.Fatal("ladder never moved; test needs relaxed state")
	}

	sig := slowSignals()
	sig.Diverged = true
	dec := tu.Step(sig)
	if dec.Level != policy.BaseLevel {
		t.Fatalf("divergence did not reset: %v", dec.Level)
	}
	if dec.Phase != Hold {
		t.Fatalf("phase after divergence = %v, want hold", dec.Phase)
	}

	// A pressured round during the hold must not move the level.
	for i := 0; i < 2; i++ {
		if d := tu.Step(slowSignals()); d.Changed {
			t.Fatalf("hold round %d relaxed: %+v", i, d)
		}
	}
	// Hold expired: stepping resumes.
	if d := tu.Step(slowSignals()); !d.Changed {
		t.Fatalf("stepping did not resume after hold: %+v", d)
	}
}

// TestTunerDivergenceDuringIdle: the reset fires even on a round below
// MinCalls — a verdict is a trust event, not a performance sample.
func TestTunerDivergenceDuringIdle(t *testing.T) {
	tu := NewTuner(TunerConfig{}, policy.SocketRWLevel)
	dec := tu.Step(Signals{Calls: 0, Diverged: true})
	if dec.Level != policy.BaseLevel || !dec.Changed {
		t.Fatalf("idle divergence did not reset: %+v", dec)
	}
}

// TestTunerSteadyWithinSLO: a round at or under the SLO parks the level.
func TestTunerSteadyWithinSLO(t *testing.T) {
	tu := NewTuner(TunerConfig{SLONsPerCall: 2000}, policy.BaseLevel)
	dec := tu.Step(Signals{Calls: 1000, NsPerCall: 1500, MonitoredFrac: 0.5})
	if dec.Changed || dec.Phase != Steady {
		t.Fatalf("within-SLO round moved the level: %+v", dec)
	}
}

// TestTunerInsufficientTraffic: rounds under MinCalls decide nothing.
func TestTunerInsufficientTraffic(t *testing.T) {
	tu := NewTuner(TunerConfig{MinCalls: 100}, policy.BaseLevel)
	sig := slowSignals()
	sig.Calls = 10
	if dec := tu.Step(sig); dec.Changed {
		t.Fatalf("idle round stepped: %+v", dec)
	}
}

// TestTunerRespectsCaps: a tuner configured with a narrow spectrum
// clamps a too-relaxed starting position and never exceeds the cap.
func TestTunerRespectsCaps(t *testing.T) {
	tu := NewTuner(TunerConfig{MaxLevel: policy.NonsocketROLevel}, policy.SocketRWLevel)
	if lv := tu.Level(); lv != policy.NonsocketROLevel {
		t.Fatalf("start position not clamped: %v", lv)
	}
	for i := 0; i < 16; i++ {
		tu.Step(slowSignals())
	}
	if lv := tu.Level(); lv > policy.NonsocketROLevel {
		t.Fatalf("stepped past the cap: %v", lv)
	}
}

// idleSignals is a comfortably-idle round: real traffic, service time
// far under the SLO.
func idleSignals() Signals {
	return Signals{Calls: 1000, NsPerCall: 500}
}

// TestTunerStepsDownWhenIdle walks the reverse ladder: with IdleRounds
// enabled, sustained comfortably-idle rounds give back one level per
// window and stop at BASE.
func TestTunerStepsDownWhenIdle(t *testing.T) {
	tu := NewTuner(TunerConfig{SLONsPerCall: 2000, IdleRounds: 2}, policy.SocketRWLevel)
	prev := tu.Level()
	steps := 0
	for round := 0; round < 32; round++ {
		dec := tu.Step(idleSignals())
		if !dec.Changed {
			continue
		}
		if dec.Level != prev-1 {
			t.Fatalf("round %d stepped %v -> %v, want one level down", round, prev, dec.Level)
		}
		prev = dec.Level
		steps++
	}
	if got := tu.Level(); got != policy.BaseLevel {
		t.Fatalf("reverse ladder ended at %v, want BASE", got)
	}
	if steps != int(policy.SocketRWLevel-policy.BaseLevel) {
		t.Fatalf("reverse ladder took %d steps", steps)
	}
	// BASE is the floor: more idle rounds change nothing.
	for i := 0; i < 8; i++ {
		if dec := tu.Step(idleSignals()); dec.Changed {
			t.Fatalf("stepped below BASE: %+v", dec)
		}
	}
}

// TestTunerStepDownHysteresis: rounds inside the SLO but above the
// StepDownFrac band park Steady without counting toward a step-down —
// the band that prevents relax/tighten oscillation at the threshold.
func TestTunerStepDownHysteresis(t *testing.T) {
	tu := NewTuner(TunerConfig{SLONsPerCall: 2000, IdleRounds: 2, StepDownFrac: 0.5}, policy.NonsocketROLevel)
	// 1500 is within the SLO (2000) but above the band (1000).
	nearSLO := Signals{Calls: 1000, NsPerCall: 1500}
	for i := 0; i < 8; i++ {
		if dec := tu.Step(nearSLO); dec.Changed {
			t.Fatalf("near-SLO round %d tightened: %+v", i, dec)
		}
	}
	// Alternating idle/near-SLO never completes the streak either.
	for i := 0; i < 8; i++ {
		if dec := tu.Step(idleSignals()); dec.Changed {
			t.Fatalf("alternating round %d tightened: %+v", i, dec)
		}
		if dec := tu.Step(nearSLO); dec.Changed {
			t.Fatalf("alternating round %d tightened: %+v", i, dec)
		}
	}
	// Two consecutive idle rounds do.
	tu.Step(idleSignals())
	if dec := tu.Step(idleSignals()); !dec.Changed || dec.Level != policy.BaseLevel {
		t.Fatalf("sustained idle did not give back a level: %+v", dec)
	}
	// Disabled by default: IdleRounds 0 never steps down.
	tu2 := NewTuner(TunerConfig{SLONsPerCall: 2000}, policy.NonsocketROLevel)
	for i := 0; i < 8; i++ {
		if dec := tu2.Step(idleSignals()); dec.Changed {
			t.Fatalf("IdleRounds=0 tuner tightened: %+v", dec)
		}
	}
}

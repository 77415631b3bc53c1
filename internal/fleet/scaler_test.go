package fleet

import (
	"strings"
	"testing"
	"time"
)

// scalerForTest builds a Scaler with small, explicit hysteresis so the
// decision-table tests read as round-by-round scripts.
func scalerForTest() *Scaler {
	return NewScaler(ScalerConfig{
		MinShards: 2, MaxShards: 4,
		ShedHigh: 1, AdmitWaitHigh: 4,
		InFlightFracHigh: 0.8, InFlightFracLow: 0.5,
		UpRounds: 2, DownRounds: 3,
		UpCooldown: 2, DownCooldown: 2,
	})
}

// steadySig sits between the waters: under the high water, but one
// shard fewer would carry 0.6*serving/(serving-1) > InFlightFracLow.
func steadySig(serving int) ScaleSignals {
	return ScaleSignals{Serving: serving, InFlightFrac: 0.6}
}

func overloadSig(serving int) ScaleSignals {
	return ScaleSignals{Serving: serving, Shed: 3}
}

func idleSig(serving int) ScaleSignals {
	return ScaleSignals{Serving: serving, InFlightFrac: 0.2}
}

func TestScalerUpHysteresisAndCooldown(t *testing.T) {
	s := scalerForTest()

	// Round 1: overloaded, but one round is not a streak.
	if st := s.Step(overloadSig(2)); st.Decision != ScaleHold {
		t.Fatalf("round 1: want hold, got %v (%s)", st.Decision, st.Reason)
	}
	// Round 2: streak complete -> scale up.
	st := s.Step(overloadSig(2))
	if st.Decision != ScaleUp {
		t.Fatalf("round 2: want up, got %v (%s)", st.Decision, st.Reason)
	}
	if !strings.Contains(st.Reason, "shed") {
		t.Fatalf("round 2: reason should name the tripped signal, got %q", st.Reason)
	}
	// Rounds 3-4: cooldown holds even under continued overload — one
	// burst buys one shard, not a staircase.
	for i := 0; i < 2; i++ {
		if st := s.Step(overloadSig(3)); st.Decision != ScaleHold || !strings.Contains(st.Reason, "cooldown") {
			t.Fatalf("cooldown round %d: want cooldown hold, got %v (%s)", i, st.Decision, st.Reason)
		}
	}
	// Rounds 5-6: streak must rebuild from zero after cooldown.
	if st := s.Step(overloadSig(3)); st.Decision != ScaleHold {
		t.Fatalf("post-cooldown round 1: want hold, got %v", st.Decision)
	}
	if st := s.Step(overloadSig(3)); st.Decision != ScaleUp {
		t.Fatalf("post-cooldown round 2: want up, got %v (%s)", st.Decision, st.Reason)
	}
}

func TestScalerSteadyResetsStreak(t *testing.T) {
	s := scalerForTest()
	s.Step(overloadSig(2)) // streak 1/2
	s.Step(steadySig(2))   // reset
	if st := s.Step(overloadSig(2)); st.Decision != ScaleHold {
		t.Fatalf("streak should have reset on the steady round, got %v (%s)", st.Decision, st.Reason)
	}
}

func TestScalerCeilingHoldsArmed(t *testing.T) {
	s := scalerForTest()
	s.Step(overloadSig(4))
	st := s.Step(overloadSig(4)) // streak complete, but Serving == MaxShards
	if st.Decision != ScaleHold || !strings.Contains(st.Reason, "ceiling") {
		t.Fatalf("at ceiling: want degradation hold, got %v (%s)", st.Decision, st.Reason)
	}
	// The streak stays armed: the round after capacity frees (a shard
	// retires, Serving drops below max) fires immediately.
	if st := s.Step(overloadSig(3)); st.Decision != ScaleUp {
		t.Fatalf("below ceiling with armed streak: want up, got %v (%s)", st.Decision, st.Reason)
	}
}

func TestScalerDownHysteresisAndFloor(t *testing.T) {
	s := scalerForTest()
	// DownRounds=3: two idle rounds hold, the third fires.
	for i := 0; i < 2; i++ {
		if st := s.Step(idleSig(3)); st.Decision != ScaleHold {
			t.Fatalf("idle round %d: want hold, got %v (%s)", i, st.Decision, st.Reason)
		}
	}
	if st := s.Step(idleSig(3)); st.Decision != ScaleDown {
		t.Fatalf("idle round 3: want down, got %v (%s)", st.Decision, st.Reason)
	}
	// Cooldown, then at MinShards the pool holds forever.
	s.Step(idleSig(2))
	s.Step(idleSig(2))
	for i := 0; i < 4; i++ {
		st := s.Step(idleSig(2))
		if st.Decision != ScaleHold {
			t.Fatalf("at floor round %d: want hold, got %v (%s)", i, st.Decision, st.Reason)
		}
	}
}

func TestScalerProjectedShrinkBlocksScaleDown(t *testing.T) {
	s := scalerForTest()
	// InFlightFrac 0.4 with 3 serving projects to 0.6 on 2 shards —
	// above InFlightFracLow 0.5, so the shrink would re-trip pressure.
	sig := ScaleSignals{Serving: 3, InFlightFrac: 0.4}
	for i := 0; i < 6; i++ {
		if st := s.Step(sig); st.Decision != ScaleHold {
			t.Fatalf("round %d: projected shrink should block scale-down, got %v (%s)", i, st.Decision, st.Reason)
		}
	}
}

func TestScalerDisruptionPreempts(t *testing.T) {
	s := scalerForTest()
	s.Step(overloadSig(2)) // streak 1/2
	st := s.Step(ScaleSignals{Serving: 2, Shed: 10, Disrupted: true})
	if st.Decision != ScaleHold || !strings.Contains(st.Reason, "supervisor") {
		t.Fatalf("disrupted: want supervisor hold, got %v (%s)", st.Decision, st.Reason)
	}
	// Both streaks were reset: the next overload round starts from 1/2.
	if st := s.Step(overloadSig(2)); st.Decision != ScaleHold {
		t.Fatalf("post-disruption: streaks should have reset, got %v (%s)", st.Decision, st.Reason)
	}
	if st := s.Step(overloadSig(2)); st.Decision != ScaleUp {
		t.Fatalf("post-disruption round 2: want up, got %v (%s)", st.Decision, st.Reason)
	}
}

func TestScalerDefaults(t *testing.T) {
	cfg := NewScaler(ScalerConfig{}).Config()
	if cfg.MinShards != 1 || cfg.MaxShards != 8 {
		t.Fatalf("pool clamps: got [%d,%d]", cfg.MinShards, cfg.MaxShards)
	}
	if cfg.ShedHigh != 1 || cfg.AdmitWaitHigh != 8 {
		t.Fatalf("high waters: got shed=%d waits=%d", cfg.ShedHigh, cfg.AdmitWaitHigh)
	}
	if cfg.UpRounds != 2 || cfg.DownRounds != 8 || cfg.UpCooldown != 8 || cfg.DownCooldown != 4 {
		t.Fatalf("hysteresis: got %d/%d cooldowns %d/%d", cfg.UpRounds, cfg.DownRounds, cfg.UpCooldown, cfg.DownCooldown)
	}
	if cfg.MaxShards != 8 {
		t.Fatalf("MaxShards default: got %d", cfg.MaxShards)
	}
	// MaxShards below MinShards clamps up, never inverts.
	c2 := NewScaler(ScalerConfig{MinShards: 4, MaxShards: 2}).Config()
	if c2.MaxShards != 4 {
		t.Fatalf("inverted clamp: got max=%d", c2.MaxShards)
	}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

package fleet

import (
	"testing"
	"time"

	"remon/internal/model"
	"remon/internal/policy"
)

// slowSignals is a round clearly outside the SLO with every pressure
// signal lit — the tuner must want to relax something.
func slowSignals() Signals {
	return Signals{
		Calls:         1000,
		NsPerCall:     100000,
		MonitoredFrac: 0.9,
		WakesPerCall:  1.0,
		LagWaitRate:   0.1,
		LagHeadroom:   0,
	}
}

// TestTunerStepsOneKnobPerRound walks the full relaxation ladder from
// the conservative corner and checks the fixed priority order: policy
// level first, then the lag window, then the epoch.
func TestTunerStepsOneKnobPerRound(t *testing.T) {
	tu := NewTuner(TunerConfig{}, ConservativeKnobs())
	prev := tu.Knobs()
	for round := 0; round < 64; round++ {
		dec := tu.Step(slowSignals())
		if !dec.Changed {
			break // spectrum cap reached
		}
		cur := dec.Knobs
		moved := 0
		if cur.Level != prev.Level {
			moved++
		}
		if cur.MaxLag != prev.MaxLag {
			moved++
		}
		if cur.Epoch != prev.Epoch {
			moved++
		}
		if moved != 1 {
			t.Fatalf("round %d moved %d knobs: %+v -> %+v", round, moved, prev, cur)
		}
		// Priority: lag may not move while level has headroom; epoch may
		// not move while lag has headroom (with all signals lit).
		if cur.MaxLag != prev.MaxLag && prev.Level != policy.SocketRWLevel {
			t.Fatalf("round %d stepped lag before level capped: %+v", round, cur)
		}
		if cur.Epoch != prev.Epoch && prev.MaxLag != 64 {
			t.Fatalf("round %d stepped epoch before lag capped: %+v", round, cur)
		}
		prev = cur
	}
	end := tu.Knobs()
	if end.Level != policy.SocketRWLevel || end.MaxLag != 64 || end.Epoch != 16 {
		t.Fatalf("ladder ended at %+v, want fully relaxed {SOCKET_RW 64 16}", end)
	}
	// At the cap, continued pressure changes nothing — the ratchet.
	if dec := tu.Step(slowSignals()); dec.Changed {
		t.Fatalf("stepped past the spectrum cap: %+v", dec)
	}
}

// TestTunerDivergenceAlwaysWins: a divergence mid-ladder resets to the
// conservative corner regardless of SLO state, and the hold keeps the
// tuner from re-relaxing for HoldRounds rounds.
func TestTunerDivergenceAlwaysWins(t *testing.T) {
	tu := NewTuner(TunerConfig{HoldRounds: 3}, ConservativeKnobs())
	for i := 0; i < 6; i++ {
		tu.Step(slowSignals())
	}
	if tu.Knobs() == ConservativeKnobs() {
		t.Fatal("ladder never moved; test needs relaxed state")
	}

	sig := slowSignals()
	sig.Diverged = true
	dec := tu.Step(sig)
	if dec.Knobs != ConservativeKnobs() {
		t.Fatalf("divergence did not reset: %+v", dec.Knobs)
	}
	if dec.Phase != Hold {
		t.Fatalf("phase after divergence = %v, want hold", dec.Phase)
	}

	// Even a within-SLO, pressure-free round during the hold must not
	// move knobs — and neither must a pressured one.
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
	tu := NewTuner(TunerConfig{}, Knobs{Level: policy.SocketRWLevel, MaxLag: 64, Epoch: 16})
	dec := tu.Step(Signals{Calls: 0, Diverged: true})
	if dec.Knobs != ConservativeKnobs() {
		t.Fatalf("idle divergence did not reset: %+v", dec.Knobs)
	}
}

// TestTunerSteadyWithinSLO: a round at or under the SLO parks the knobs.
func TestTunerSteadyWithinSLO(t *testing.T) {
	tu := NewTuner(TunerConfig{SLONsPerCall: 2000}, Knobs{Level: policy.BaseLevel, MaxLag: 8, Epoch: 4})
	dec := tu.Step(Signals{Calls: 1000, NsPerCall: 1500, MonitoredFrac: 0.5, WakesPerCall: 1})
	if dec.Changed || dec.Phase != Steady {
		t.Fatalf("within-SLO round moved knobs: %+v", dec)
	}
}

// TestTunerInsufficientTraffic: rounds under MinCalls decide nothing.
func TestTunerInsufficientTraffic(t *testing.T) {
	tu := NewTuner(TunerConfig{MinCalls: 100}, ConservativeKnobs())
	sig := slowSignals()
	sig.Calls = 10
	if dec := tu.Step(sig); dec.Changed {
		t.Fatalf("idle round stepped: %+v", dec)
	}
}

// TestTunerRespectsCaps: a tuner configured with a narrow spectrum
// clamps a too-relaxed starting position and never exceeds the caps.
func TestTunerRespectsCaps(t *testing.T) {
	cfg := TunerConfig{MaxLevel: policy.NonsocketROLevel, MaxMaxLag: 16, MaxEpoch: 4}
	tu := NewTuner(cfg, Knobs{Level: policy.SocketRWLevel, MaxLag: 64, Epoch: 16})
	k := tu.Knobs()
	if k.Level != policy.NonsocketROLevel || k.MaxLag != 16 || k.Epoch != 4 {
		t.Fatalf("start position not clamped: %+v", k)
	}
	for i := 0; i < 32; i++ {
		tu.Step(slowSignals())
	}
	k = tu.Knobs()
	if k.Level > policy.NonsocketROLevel || k.MaxLag > 16 || k.Epoch > 4 {
		t.Fatalf("stepped past caps: %+v", k)
	}
}

// idleSignals is a comfortably-idle round: real traffic, service time
// far under the SLO, no pressure anywhere.
func idleSignals() Signals {
	return Signals{Calls: 1000, NsPerCall: 500, LagHeadroom: 1}
}

// TestTunerStepsDownWhenIdle walks the reverse ladder: with IdleRounds
// enabled, sustained comfortably-idle rounds re-tighten one knob per
// window in reverse priority — epoch, then lag, then level — and stop
// at the conservative corner.
func TestTunerStepsDownWhenIdle(t *testing.T) {
	tu := NewTuner(
		TunerConfig{SLONsPerCall: 2000, IdleRounds: 2},
		Knobs{Level: policy.SocketRWLevel, MaxLag: 64, Epoch: 16},
	)
	prev := tu.Knobs()
	var ladder []Knobs
	for round := 0; round < 64; round++ {
		dec := tu.Step(idleSignals())
		if !dec.Changed {
			continue
		}
		cur := dec.Knobs
		moved := 0
		if cur.Level != prev.Level {
			moved++
		}
		if cur.MaxLag != prev.MaxLag {
			moved++
		}
		if cur.Epoch != prev.Epoch {
			moved++
		}
		if moved != 1 {
			t.Fatalf("round %d moved %d knobs: %+v -> %+v", round, moved, prev, cur)
		}
		// Reverse priority: lag may not tighten while epoch is above 1;
		// level may not tighten while lag is above 0.
		if cur.MaxLag != prev.MaxLag && prev.Epoch != 1 {
			t.Fatalf("round %d tightened lag before epoch floored: %+v", round, cur)
		}
		if cur.Level != prev.Level && prev.MaxLag != 0 {
			t.Fatalf("round %d tightened level before lag floored: %+v", round, cur)
		}
		prev = cur
		ladder = append(ladder, cur)
	}
	if got := tu.Knobs(); got != ConservativeKnobs() {
		t.Fatalf("reverse ladder ended at %+v, want the conservative corner", got)
	}
	if len(ladder) == 0 {
		t.Fatal("ladder never moved")
	}
	// The corner is the floor: more idle rounds change nothing.
	for i := 0; i < 8; i++ {
		if dec := tu.Step(idleSignals()); dec.Changed {
			t.Fatalf("stepped below the conservative corner: %+v", dec)
		}
	}
}

// TestTunerStepDownHysteresis: rounds inside the SLO but above the
// StepDownFrac band park Steady without counting toward a step-down —
// the band that prevents relax/tighten oscillation at the threshold.
func TestTunerStepDownHysteresis(t *testing.T) {
	tu := NewTuner(
		TunerConfig{SLONsPerCall: 2000, IdleRounds: 2, StepDownFrac: 0.5},
		Knobs{Level: policy.BaseLevel, MaxLag: 0, Epoch: 4},
	)
	// 1500 is within the SLO (2000) but above the band (1000).
	nearSLO := Signals{Calls: 1000, NsPerCall: 1500, LagHeadroom: 1}
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
	if dec := tu.Step(idleSignals()); !dec.Changed || dec.Knobs.Epoch != 1 {
		t.Fatalf("sustained idle did not give back the epoch: %+v", dec)
	}
	// Disabled by default: IdleRounds 0 never steps down.
	tu2 := NewTuner(TunerConfig{SLONsPerCall: 2000}, Knobs{Level: policy.BaseLevel, MaxLag: 0, Epoch: 4})
	for i := 0; i < 8; i++ {
		if dec := tu2.Step(idleSignals()); dec.Changed {
			t.Fatalf("IdleRounds=0 tuner tightened: %+v", dec)
		}
	}
}

// TestControllerLagGrantLandsLive: on a fleet booted at MaxLag 0 the
// tuner's lag grant must reach the serving replica set it was granted
// to — no rotation, no respawn: the window lands at generation 0.
func TestControllerLagGrantLandsLive(t *testing.T) {
	cfg := quickCfg(2)
	cfg.MaxLag = 0
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ctl := f.StartController(ControllerConfig{
		Interval: 2 * time.Millisecond,
		Tuner:    TunerConfig{SLONsPerCall: 1, MinCalls: 16},
	})
	defer ctl.Close()

	deadline := time.Now().Add(15 * time.Second)
	for {
		f.DriveClients(DriveConfig{Conns: 8, RequestsPerConn: 8, ThinkTime: model.Microsecond})
		st, gen := f.ShardState(0)
		if gen != 0 {
			t.Fatalf("shard 0 respawned (gen %d) to land a lag grant; events: %+v", gen, ctl.Events())
		}
		lag, err := f.ShardLag(0)
		if st == Serving && err == nil && lag > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lag grant never landed live (state=%v gen=%d lag=%d, knobs=%+v); events: %+v",
				st, gen, lag, ctl.ShardKnobs(0), ctl.Events())
		}
	}
}

// TestControllerRelaxesLiveFleet runs the closed loop against a real
// fleet under load: starting from the conservative corner, the
// controller must step the shards' policy level up through the live
// reload path.
func TestControllerRelaxesLiveFleet(t *testing.T) {
	base := policy.BaseLevel
	cfg := quickCfg(2)
	cfg.Policy = &base
	cfg.EpochSize = 1
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ctl := f.StartController(ControllerConfig{
		Interval: 2 * time.Millisecond,
		// Unreachable SLO: everything about this workload is slower, so
		// the loop should climb the whole ladder.
		Tuner: TunerConfig{SLONsPerCall: 1, MinCalls: 16},
	})
	defer ctl.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		f.DriveClients(DriveConfig{Conns: 8, RequestsPerConn: 8, ThinkTime: model.Microsecond})
		lv, err := f.ShardPolicy(0)
		if err != nil {
			t.Fatal(err)
		}
		if lv == policy.SocketRWLevel {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("controller never relaxed shard 0 past %v; events: %+v", lv, ctl.Events())
		}
	}
	// The decision log recorded the climb.
	if len(ctl.Events()) == 0 {
		t.Fatal("no tune events recorded")
	}
	// Epoch knob also actuated live (lag may need a rotation, so only
	// the boot record is guaranteed — check the tuner's position).
	if k := ctl.ShardKnobs(0); k.Level != policy.SocketRWLevel {
		t.Fatalf("tuner position %+v disagrees with live level", k)
	}
}

// TestControllerResetsOnDivergence injects a divergence under a running
// controller: the supervisor respawns the shard conservatively and the
// controller's tuner must follow to the conservative corner (and log
// the reset) instead of fighting the respawn.
func TestControllerResetsOnDivergence(t *testing.T) {
	cfg := quickCfg(2)
	cfg.EpochSize = 4
	cfg.MaxLag = 16
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ctl := f.StartController(ControllerConfig{
		Interval: 2 * time.Millisecond,
		Tuner:    TunerConfig{SLONsPerCall: 1, MinCalls: 16, HoldRounds: 1000000},
	})
	defer ctl.Close()

	if err := f.InjectDivergence(1); err != nil {
		t.Fatal(err)
	}
	if !f.WaitRecoveriesDriving(1, 20*time.Second, DriveConfig{}) {
		t.Fatal("divergence recovery never completed")
	}

	// The controller observes the respawn within a few rounds and resets
	// its tuner; the huge hold keeps it there for the assertion window.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ctl.ShardKnobs(1) == ConservativeKnobs() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tuner never reset after divergence: %+v, events %+v",
				ctl.ShardKnobs(1), ctl.Events())
		}
		time.Sleep(2 * time.Millisecond)
	}
	found := false
	for _, ev := range ctl.Events() {
		if ev.Shard == 1 && ev.Phase == Hold {
			found = true
		}
	}
	if !found {
		t.Fatalf("no hold-phase reset event logged: %+v", ctl.Events())
	}
	// The live shard runs at the conservative posture (RespawnPolicy).
	if lv, _ := f.ShardPolicy(1); lv != policy.BaseLevel {
		t.Fatalf("shard 1 at %v after divergence, want BASE", lv)
	}
}

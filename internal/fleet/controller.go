// The self-tuning control plane: a per-shard closed loop that watches
// the shard's telemetry deltas (wake rate, RB lag pressure,
// monitored-call mix) against a latency SLO and steps the relaxation
// knobs — policy level, master-ahead lag window, epoch size — through
// the fleet's existing live-reload paths. The decision logic lives in
// Tuner, a pure state machine (observe -> decide -> actuate ->
// ratchet-check) with no clocks or locks, so every transition is unit
// testable; Controller is the thin host-time loop around it.
//
// Two rules keep the loop sound (DESIGN.md §11):
//
//   - Divergence always wins. A shard whose verdict bit flipped is
//     reset to the conservative knob set immediately, regardless of how
//     far the SLO loop had relaxed it — the same precedence the fleet's
//     RespawnPolicy enforces structurally. The SLO loop then holds off
//     (HoldRounds) before re-stepping, so a flapping shard cannot be
//     re-relaxed between attacks.
//   - Relaxation is monotone per round and capped. The tuner steps ONE
//     knob per decision (level first — it buys the most, then lag, then
//     epoch) and never beyond the configured caps, mirroring the IK-B
//     GrantableEver ratchet: the spectrum of states the controller can
//     reach is fixed up front, not discovered at runtime.
package fleet

import (
	"fmt"
	"sync"
	"time"

	"remon/internal/core"
	"remon/internal/policy"
	"remon/internal/telemetry"
)

// Knobs is one shard's tunable position: the three relaxation axes the
// controller may move.
type Knobs struct {
	// Level is the spatial relaxation level (which calls may take the
	// IP-MON fast path).
	Level policy.Level
	// MaxLag is the master-ahead replication window (temporal
	// relaxation; 0 = lockstep publication).
	MaxLag int
	// Epoch is the divergence-checking batch window (1 = immediate).
	Epoch int
}

// ConservativeKnobs is the reset position: BASE spatial policy,
// lockstep publication, immediate verification — the same posture a
// diverged shard respawns into.
func ConservativeKnobs() Knobs {
	return Knobs{Level: policy.BaseLevel, MaxLag: 0, Epoch: 1}
}

// Signals is one observation round's input to the tuner: rates derived
// from telemetry deltas over the controller interval.
type Signals struct {
	// Calls is the number of monitored+unmonitored calls the shard
	// completed this round; rounds below TunerConfig.MinCalls are
	// ignored (an idle shard teaches nothing).
	Calls uint64
	// NsPerCall is the shard's service time per call this round — the
	// SLO-bearing signal. The unit is the harness's choice as long as
	// it matches TunerConfig.SLONsPerCall: the live Controller feeds
	// deterministic virtual ns, the autotune bench feeds host ns.
	NsPerCall float64
	// MonitoredFrac is the fraction of calls that took the monitored
	// (lockstep) path rather than IP-MON.
	MonitoredFrac float64
	// WakesPerCall is the slave wakeups per call (RB signalling
	// pressure; batching headroom remains while it is high).
	WakesPerCall float64
	// LagWaitRate is the master lag-budget stalls per call (the signal
	// that the MaxLag window is too small for the offered load).
	LagWaitRate float64
	// LagHeadroom is the remaining fraction of the MaxLag window.
	LagHeadroom float64
	// Diverged reports that the shard produced a divergence verdict
	// since the last round. It preempts everything else.
	Diverged bool
}

// Phase is the tuner's control state.
type Phase int

// Tuner phases.
const (
	// Stepping: outside the SLO, actively moving one knob per round.
	Stepping Phase = iota
	// Steady: within the SLO; knobs parked.
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
	// SLONsPerCall is the service-time target, in whatever ns figure
	// the harness feeds Signals.NsPerCall; rounds at or under it are
	// Steady.
	SLONsPerCall float64
	// MonitoredFracMax: while more than this fraction of calls are
	// monitored, stepping the policy level up is the first move.
	MonitoredFracMax float64
	// WakesPerCallMax: while slave wakeups per call exceed it, epoch
	// batching still has headroom.
	WakesPerCallMax float64
	// MaxLevel / MaxMaxLag / MaxEpoch cap the spectrum (the ratchet:
	// the tuner can never step past them).
	MaxLevel policy.Level
	MaxMaxLag int
	MaxEpoch  int
	// MinCalls gates decisions: rounds with fewer calls are no-ops.
	MinCalls uint64
	// HoldRounds is how many rounds a divergence freezes relaxation.
	HoldRounds int
	// IdleRounds enables the reverse edge: after this many consecutive
	// comfortably-idle rounds (service time at or under
	// StepDownFrac*SLONsPerCall, with traffic above MinCalls) the tuner
	// re-tightens one knob, in reverse priority — epoch first (giving
	// back verification batching costs the least), then lag, then level
	// — and never past the conservative corner. 0 (the default)
	// disables stepping down: the ladder stays monotone-until-reset,
	// the pre-PR-8 behaviour.
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
	if c.WakesPerCallMax <= 0 {
		c.WakesPerCallMax = 0.25
	}
	if c.MaxLevel == policy.LevelNone {
		c.MaxLevel = policy.SocketRWLevel
	}
	if c.MaxMaxLag <= 0 {
		c.MaxMaxLag = 64
	}
	if c.MaxEpoch <= 0 {
		c.MaxEpoch = 16
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
	Knobs   Knobs
	Changed bool
	Phase   Phase
	Reason  string
}

// Tuner is the pure per-shard decision state machine. Not safe for
// concurrent use; the Controller drives one per shard.
type Tuner struct {
	cfg   TunerConfig
	knobs Knobs
	phase Phase
	hold  int
	// idle counts consecutive comfortably-idle rounds toward a
	// step-down; any pressure, hold or divergence resets it.
	idle int
}

// NewTuner builds a tuner starting from the given knob position.
func NewTuner(cfg TunerConfig, start Knobs) *Tuner {
	t := &Tuner{cfg: cfg.withDefaults(), knobs: start, phase: Stepping}
	t.clamp()
	return t
}

// Knobs reports the tuner's current position.
func (t *Tuner) Knobs() Knobs { return t.knobs }

// clamp enforces the spectrum caps — the ratchet check. Runs after
// every decision so no code path, present or future, can step outside
// the configured spectrum.
func (t *Tuner) clamp() {
	if t.knobs.Level > t.cfg.MaxLevel {
		t.knobs.Level = t.cfg.MaxLevel
	}
	if t.knobs.MaxLag > t.cfg.MaxMaxLag {
		t.knobs.MaxLag = t.cfg.MaxMaxLag
	}
	if t.knobs.Epoch > t.cfg.MaxEpoch {
		t.knobs.Epoch = t.cfg.MaxEpoch
	}
	if t.knobs.Epoch < 1 {
		t.knobs.Epoch = 1
	}
	if t.knobs.MaxLag < 0 {
		t.knobs.MaxLag = 0
	}
}

// Step runs one observe -> decide -> actuate-plan -> ratchet-check
// round. The returned decision carries the knob position the caller
// should actuate (Changed reports whether it moved).
func (t *Tuner) Step(sig Signals) Decision {
	// Divergence always wins: conservative reset plus a hold, before any
	// SLO consideration. Even a round that is also under MinCalls resets
	// — the verdict is a trust event, not a performance sample.
	if sig.Diverged {
		prev := t.knobs
		t.knobs = ConservativeKnobs()
		t.phase = Hold
		t.hold = t.cfg.HoldRounds
		t.idle = 0
		t.clamp()
		return Decision{
			Knobs:   t.knobs,
			Changed: prev != t.knobs,
			Phase:   Hold,
			Reason:  "divergence: conservative reset",
		}
	}

	if t.phase == Hold {
		t.hold--
		t.idle = 0
		if t.hold > 0 {
			return Decision{Knobs: t.knobs, Phase: Hold, Reason: fmt.Sprintf("holding (%d rounds left)", t.hold)}
		}
		t.phase = Stepping
	}

	if sig.Calls < t.cfg.MinCalls {
		return Decision{Knobs: t.knobs, Phase: t.phase, Reason: "insufficient traffic"}
	}

	if sig.NsPerCall <= t.cfg.SLONsPerCall {
		t.phase = Steady
		// The reverse edge: sustained comfortably-idle rounds give one
		// knob back per IdleRounds window. Rounds merely inside the SLO
		// (but above the StepDownFrac band) park Steady without counting
		// — the hysteresis that prevents relax/tighten oscillation.
		if t.cfg.IdleRounds > 0 && sig.NsPerCall <= t.cfg.StepDownFrac*t.cfg.SLONsPerCall {
			t.idle++
			if t.idle >= t.cfg.IdleRounds {
				t.idle = 0
				if dec, ok := t.stepDown(); ok {
					return dec
				}
			}
		} else {
			t.idle = 0
		}
		return Decision{Knobs: t.knobs, Phase: Steady, Reason: "within SLO"}
	}

	// Outside the SLO: step exactly one knob, in fixed priority order.
	t.phase = Stepping
	t.idle = 0
	prev := t.knobs
	reason := "at spectrum cap"
	switch {
	// Level first: while a meaningful share of calls still takes the
	// monitored path, widening the spatial policy buys the most.
	case sig.MonitoredFrac > t.cfg.MonitoredFracMax && t.knobs.Level < t.cfg.MaxLevel:
		t.knobs.Level++
		reason = fmt.Sprintf("monitored frac %.2f: level -> %v", sig.MonitoredFrac, t.knobs.Level)
	// Lag next: masters stalling on the lag budget (or running with no
	// headroom) want a wider master-ahead window. 0 -> 8, then double.
	// Lockstep publication (MaxLag 0) never reports lag waits — the
	// master blocks inside the publish itself — so the bootstrap off 0
	// is unconditional once the level axis is exhausted.
	case (t.knobs.MaxLag == 0 || sig.LagWaitRate > 0 || sig.LagHeadroom < 0.25) && t.knobs.MaxLag < t.cfg.MaxMaxLag:
		if t.knobs.MaxLag == 0 {
			t.knobs.MaxLag = 8
			reason = fmt.Sprintf("lockstep publication: granting lag window -> %d", t.knobs.MaxLag)
		} else {
			t.knobs.MaxLag *= 2
			reason = fmt.Sprintf("lag pressure (waits %.3f/call, headroom %.2f): maxlag -> %d", sig.LagWaitRate, sig.LagHeadroom, t.knobs.MaxLag)
		}
	// Epoch last: high wake rates mean verification still runs
	// per-call; batch it. 1 -> 4, then quadruple.
	case sig.WakesPerCall > t.cfg.WakesPerCallMax && t.knobs.Epoch < t.cfg.MaxEpoch:
		if t.knobs.Epoch < 4 {
			t.knobs.Epoch = 4
		} else {
			t.knobs.Epoch *= 4
		}
		reason = fmt.Sprintf("wakes %.2f/call: epoch -> %d", sig.WakesPerCall, t.knobs.Epoch)
	}
	t.clamp()
	return Decision{Knobs: t.knobs, Changed: t.knobs != prev, Phase: Stepping, Reason: reason}
}

// stepDown re-tightens exactly one knob — the relaxation ladder's
// reverse edge, in reverse priority: epoch first (giving back
// verification batching costs the least throughput), then the lag
// window, then the policy level (the most valuable relaxation,
// surrendered last). The conservative corner is the floor; at it,
// stepDown reports false and the tuner simply stays Steady.
func (t *Tuner) stepDown() (Decision, bool) {
	prev := t.knobs
	var reason string
	switch {
	case t.knobs.Epoch > 1:
		if t.knobs.Epoch <= 4 {
			t.knobs.Epoch = 1
		} else {
			t.knobs.Epoch /= 4
		}
		reason = fmt.Sprintf("sustained idle: epoch -> %d", t.knobs.Epoch)
	case t.knobs.MaxLag > 0:
		if t.knobs.MaxLag <= 8 {
			t.knobs.MaxLag = 0
		} else {
			t.knobs.MaxLag /= 2
		}
		reason = fmt.Sprintf("sustained idle: maxlag -> %d", t.knobs.MaxLag)
	case t.knobs.Level > policy.BaseLevel:
		t.knobs.Level--
		reason = fmt.Sprintf("sustained idle: level -> %v", t.knobs.Level)
	default:
		return Decision{}, false
	}
	t.clamp()
	return Decision{Knobs: t.knobs, Changed: t.knobs != prev, Phase: Steady, Reason: reason}, true
}

// ControllerConfig parameterises the fleet control loop.
type ControllerConfig struct {
	Tuner TunerConfig
	// Interval is the host-time observation period (default 10ms — the
	// virtual workloads burn host time fast).
	Interval time.Duration
	// RotateForLag lets the controller rotate (DrainShard) a shard whose
	// replica set was booted at MaxLag 0 when the tuner wants a lag
	// window: the lockstep publication protocol cannot flip live, so
	// without rotation the new window only lands at the next organic
	// respawn. The rotation is driven from the tuner's *standing grant*
	// every round — not one-shot from a knob-change decision — so a
	// rotation preempted by a verdict, or a grant that arrived while the
	// shard was mid-respawn, retries until the window is live. Runs
	// async, at most once in flight per shard.
	RotateForLag bool
	// SignalWindow is how many observation rounds the per-shard signal
	// deltas span (default 4, via CounterWindow): rates fed to the tuner
	// are windowed, so one quiet round does not erase sustained pressure
	// and one spike does not register as a trend.
	SignalWindow int
}

func (c ControllerConfig) withDefaults() ControllerConfig {
	c.Tuner = c.Tuner.withDefaults()
	if c.Interval <= 0 {
		c.Interval = 10 * time.Millisecond
	}
	if c.SignalWindow <= 0 {
		c.SignalWindow = 4
	}
	return c
}

// TuneEvent is one recorded controller decision.
type TuneEvent struct {
	Shard  int
	Gen    int
	At     time.Time
	Phase  Phase
	Knobs  Knobs
	Reason string
}

// shardLoop is the controller's per-shard observation state: the tuner
// plus ring-windowed samplers over the shard's cumulative telemetry
// counters (a generation bump resets them — the fresh replica set's
// counters restart from zero).
type shardLoop struct {
	tuner *Tuner
	gen   int
	mon   *CounterWindow // Monitor.MonitoredCalls
	unmon *CounterWindow // IPMon.Unmonitored
	wakes *CounterWindow // RB.Wakes
	lagW  *CounterWindow // RB.LagWaits
	vns   *CounterWindow // VirtualNs
	// rotating marks a RotateForLag drain in flight; guarded by the
	// controller's mu on both set and clear.
	rotating bool
}

func newShardLoop(cfg ControllerConfig, start Knobs, gen int) *shardLoop {
	return &shardLoop{
		tuner: NewTuner(cfg.Tuner, start),
		gen:   gen,
		mon:   NewCounterWindow(cfg.SignalWindow),
		unmon: NewCounterWindow(cfg.SignalWindow),
		wakes: NewCounterWindow(cfg.SignalWindow),
		lagW:  NewCounterWindow(cfg.SignalWindow),
		vns:   NewCounterWindow(cfg.SignalWindow),
	}
}

// observeSnap appends one telemetry snapshot to every signal window.
func (l *shardLoop) observeSnap(snap core.TelemetrySnapshot) {
	l.mon.Observe(snap.Monitor.MonitoredCalls)
	l.unmon.Observe(snap.IPMon.Unmonitored)
	l.wakes.Observe(snap.RB.Wakes)
	l.lagW.Observe(snap.RB.LagWaits)
	l.vns.Observe(snap.VirtualNs)
}

// resetWindows re-baselines after a generation bump.
func (l *shardLoop) resetWindows() {
	l.mon.Reset()
	l.unmon.Reset()
	l.wakes.Reset()
	l.lagW.Reset()
	l.vns.Reset()
}

// Controller drives one Tuner per shard against live fleet telemetry.
type Controller struct {
	f   *Fleet
	cfg ControllerConfig

	stop chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	loops  []*shardLoop
	events []TuneEvent

	rounds    *telemetry.Counter
	actuation *telemetry.Counter
	resets    *telemetry.Counter
}

// StartController begins closed-loop tuning of every shard. The loop
// owns the SetShardPolicy/SetShardLag/SetShardEpoch paths for the
// fleet's lifetime; mixing manual knob changes with a running
// controller is undefined (last writer wins). Close stops it.
func (f *Fleet) StartController(cfg ControllerConfig) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{f: f, cfg: cfg, stop: make(chan struct{})}
	for idx, s := range f.pool() {
		c.loopFor(idx, s)
	}
	c.wg.Add(1)
	go c.run()
	return c
}

// loopFor resolves (lazily creating) the per-shard loop for idx. Pool
// growth after StartController — the autoscaler appending shards — gets
// a fresh tuner seeded from the new shard's boot knobs on the first
// round that sees it.
func (c *Controller) loopFor(idx int, s *shard) *shardLoop {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.loops) <= idx {
		c.loops = append(c.loops, nil)
	}
	if c.loops[idx] == nil {
		s.mu.Lock()
		start := Knobs{Level: s.level, MaxLag: s.maxLag, Epoch: s.epoch}
		gen := int(s.gen.Load())
		s.mu.Unlock()
		c.loops[idx] = newShardLoop(c.cfg, start, gen)
	}
	return c.loops[idx]
}

// RegisterTelemetry adds the controller's own series to reg.
func (c *Controller) RegisterTelemetry(reg *telemetry.Registry) {
	c.rounds = reg.Counter("remon_controller_rounds_total", "controller observation rounds", nil)
	c.actuation = reg.Counter("remon_controller_actuations_total", "knob changes applied", nil)
	c.resets = reg.Counter("remon_controller_resets_total", "divergence-forced conservative resets", nil)
}

// Events returns a copy of the decision log entries that changed knobs
// or reset a shard.
func (c *Controller) Events() []TuneEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]TuneEvent(nil), c.events...)
}

// ShardKnobs reports a shard tuner's current position (zero Knobs for
// an index the controller has not yet observed).
func (c *Controller) ShardKnobs(idx int) Knobs {
	c.mu.Lock()
	defer c.mu.Unlock()
	if idx < 0 || idx >= len(c.loops) || c.loops[idx] == nil {
		return Knobs{}
	}
	return c.loops[idx].tuner.Knobs()
}

// Close stops the control loop (the fleet keeps its last knob set).
func (c *Controller) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.wg.Wait()
}

func (c *Controller) run() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.round()
		}
	}
}

// round observes every shard, steps its tuner, and actuates changes.
// The pool snapshot is re-taken every round, so shards the autoscaler
// appends join the control loop within one interval.
func (c *Controller) round() {
	if c.rounds != nil {
		c.rounds.Inc()
	}
	for idx, s := range c.f.pool() {
		loop := c.loopFor(idx, s)

		sig, gen, ok := c.observe(s, loop)
		if !ok {
			continue
		}
		// Step and log under one c.mu hold: ShardKnobs and Events read
		// from other goroutines, and a reader that sees the new tuner
		// position must also see the event that explains it.
		c.mu.Lock()
		dec := loop.tuner.Step(sig)
		if dec.Changed || sig.Diverged {
			c.events = append(c.events, TuneEvent{
				Shard: idx, Gen: gen, At: time.Now(),
				Phase: dec.Phase, Knobs: dec.Knobs, Reason: dec.Reason,
			})
		}
		c.mu.Unlock()
		if sig.Diverged && c.resets != nil {
			c.resets.Inc()
		}
		if dec.Changed {
			c.actuate(idx, dec)
		}
		c.maybeRotateForLag(idx, loop)
	}
}

// observe samples one shard's telemetry and derives the round's
// signals. A generation bump since the last round means the supervisor
// respawned the shard; if its last verdict was a divergence, that is
// the Diverged signal (the controller never races the supervisor — it
// reacts to the completed recovery, the supervisor's RespawnPolicy
// already made the shard conservative structurally).
func (c *Controller) observe(s *shard, loop *shardLoop) (Signals, int, bool) {
	s.mu.Lock()
	state, gen := s.state.Load(), int(s.gen.Load())
	diverged := s.lastVerdict.Diverged
	mvee := s.mvee
	var snap core.TelemetrySnapshot
	if mvee != nil && (state == Serving || state == Draining) {
		snap = mvee.Telemetry()
	}
	s.mu.Unlock()
	if mvee == nil || (state != Serving && state != Draining) {
		return Signals{}, gen, false
	}

	if gen != loop.gen {
		// Respawn happened. Re-baseline the signal windows against the
		// fresh replica set (its counters restart from zero — letting the
		// old samples age out would read as a huge wraparound delta) and
		// surface the divergence, if that is what killed the previous
		// generation, exactly once.
		loop.gen = gen
		loop.resetWindows()
		loop.observeSnap(snap)
		return Signals{Diverged: diverged}, gen, diverged
	}
	loop.observeSnap(snap)
	if loop.mon.Samples() < 2 {
		return Signals{}, gen, false
	}

	calls := loop.mon.Delta() + loop.unmon.Delta()
	if calls == 0 {
		return Signals{Calls: 0}, gen, true
	}
	monitored := loop.mon.Delta()
	wakes := loop.wakes.Delta()
	lagWaits := loop.lagW.Delta()
	vns := float64(loop.vns.Delta()) / float64(calls)

	sig := Signals{
		Calls:         calls,
		NsPerCall:     vns,
		MonitoredFrac: float64(monitored) / float64(calls),
		WakesPerCall:  float64(wakes) / float64(calls),
		LagWaitRate:   float64(lagWaits) / float64(calls),
		LagHeadroom:   1,
	}
	if snap.MaxLag > 0 {
		used := float64(snap.RB.CurLag) / float64(snap.MaxLag)
		if used > 1 {
			used = 1
		}
		sig.LagHeadroom = 1 - used
	}
	return sig, gen, true
}

// actuate applies a decision through the fleet's live-reload paths.
// Errors are tolerated (a shard mid-respawn rejects reloads; the next
// round re-observes and the boot-knob records still carry the change).
func (c *Controller) actuate(idx int, dec Decision) {
	if c.actuation != nil {
		c.actuation.Inc()
	}
	_ = c.f.SetShardPolicy(idx, policy.LevelRules(dec.Knobs.Level))
	_ = c.f.SetShardEpoch(idx, dec.Knobs.Epoch)
	_ = c.f.SetShardLag(idx, dec.Knobs.MaxLag)
}

// maybeRotateForLag rotates a lockstep-booted shard whose tuner holds a
// standing lag grant. A shard booted at MaxLag 0 runs the lockstep
// publication protocol, which cannot flip live — only a rotation
// (drain + respawn at the recorded boot knobs) lands the window. Driving
// the rotate from the grant state every round (rather than one-shot
// from a Changed decision, the pre-PR-8 gap) means a rotation lost to a
// concurrent verdict, a closing fleet, or a grant that arrived while
// the shard was mid-respawn is retried until the window is actually
// live. The in-flight flag is read and written under c.mu (the old
// actuate-path read was unsynchronised against the goroutine's clear).
func (c *Controller) maybeRotateForLag(idx int, loop *shardLoop) {
	if !c.cfg.RotateForLag || loop.tuner.Knobs().MaxLag == 0 {
		return
	}
	if st, _ := c.f.ShardState(idx); st != Serving {
		return
	}
	live, err := c.f.ShardLag(idx)
	if err != nil || live != 0 {
		return
	}
	c.mu.Lock()
	if loop.rotating {
		c.mu.Unlock()
		return
	}
	loop.rotating = true
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = c.f.DrainShard(idx)
		c.mu.Lock()
		loop.rotating = false
		c.mu.Unlock()
	}()
}

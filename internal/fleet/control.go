// The fleet's control loop: one host-time goroutine that, once per
// Interval, observes the fleet (one Stats pass plus each tuned shard's
// telemetry), evaluates one precedence rule — divergence and the
// supervisor win — and feeds it to the pure state machines it was asked
// to run: a Tuner per shard over its policy level (tuner.go) and the
// pool Scaler (scaler.go). A level change actuates inline through
// SetShardPolicy. A pool change runs off the loop, so a drain's grace
// window never stalls the tuners; while it is in flight the precedence
// rule holds the scaler.
package fleet

import (
	"sync"
	"time"

	"remon/internal/core"
	"remon/internal/policy"
)

// ControlConfig names the state machines the loop runs and paces it.
type ControlConfig struct {
	// Tuner, when set, runs one Tuner per shard over its policy level.
	Tuner *TunerConfig
	// Scaler, when set, runs the pool Scaler.
	Scaler *ScalerConfig
	// Interval is the host-time observation period (default 10ms — the
	// virtual workloads burn host time fast).
	Interval time.Duration
	// Window is how many observation rounds every counter delta spans
	// (default 4): one quiet round does not erase sustained pressure and
	// one spike does not register as a trend.
	Window int
}

// Event is one recorded control decision. A tuner event names its shard
// (Shard >= 0): a level change or a divergence reset. A pool event has
// Shard -1: a scale-up, a scale-down, or a hold at the MaxShards
// ceiling — the moments graceful degradation was the chosen answer.
type Event struct {
	At       time.Time
	Shard    int
	Gen      int
	Phase    Phase
	Level    policy.Level
	Decision ScaleDecision
	// Serving is the serving count a pool decision was made against.
	Serving int
	Reason  string
}

// tunedShard is one shard's tuner plus windows over its cumulative
// telemetry counters. A generation bump resets the windows: the fresh
// replica set's counters restart from zero.
type tunedShard struct {
	tuner       *Tuner
	gen         int
	divergences int            // the shard's Divergences the tuner has reacted to
	mon         *CounterWindow // Monitor.MonitoredCalls
	unmon       *CounterWindow // IPMon.Unmonitored
	vns         *CounterWindow // VirtualNs
}

// Controller is the fleet's one control loop.
type Controller struct {
	f      *Fleet
	cfg    ControlConfig
	scaler *Scaler // nil unless cfg.Scaler is set

	stop chan struct{}
	wg   sync.WaitGroup

	// Pool windows, owned by the loop goroutine.
	shed  *CounterWindow // ConnsShed + ConnsRefused
	waits *CounterWindow // AdmitWaits
	recov *CounterWindow // Recoveries

	mu     sync.Mutex
	tuned  []*tunedShard // by shard index; nil until first seen
	busy   bool          // a pool change in flight
	events []Event
}

// StartControl begins closed-loop control of the fleet. The loop owns
// SetShardPolicy (with a tuner) and AddShard/RemoveShard (with a
// scaler) for the fleet's lifetime; mixing manual changes with a running
// loop is undefined (last writer wins). Close stops it; the fleet keeps
// its last levels and pool size.
func (f *Fleet) StartControl(cfg ControlConfig) *Controller {
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Millisecond
	}
	if cfg.Window <= 0 {
		cfg.Window = 4
	}
	c := &Controller{
		f:     f,
		cfg:   cfg,
		stop:  make(chan struct{}),
		shed:  NewCounterWindow(cfg.Window),
		waits: NewCounterWindow(cfg.Window),
		recov: NewCounterWindow(cfg.Window),
	}
	if cfg.Scaler != nil {
		c.scaler = NewScaler(*cfg.Scaler)
	}
	if cfg.Tuner != nil {
		// Seed every shard's tuner now, so a divergence that lands before
		// the first tick still moves a count the tuner has seen.
		c.mu.Lock()
		for _, sh := range f.Stats().Shards {
			c.tunedLocked(sh)
		}
		c.mu.Unlock()
	}
	c.wg.Add(1)
	go c.run()
	return c
}

// Events returns a copy of the decision log.
func (c *Controller) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// ShardLevel reports a shard tuner's current position; false for an
// index the loop has no tuner for.
func (c *Controller) ShardLevel(idx int) (policy.Level, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if idx < 0 || idx >= len(c.tuned) || c.tuned[idx] == nil {
		return policy.LevelNone, false
	}
	return c.tuned[idx].tuner.Level(), true
}

// Close stops the loop and waits for any pool change in flight.
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

// round observes the fleet once and steps every configured machine.
// The precedence rule is evaluated here, once: the pool is disrupted
// while a shard is quarantined or respawning, a recovery sits inside
// the window, a pool change is in flight, or a tuner saw this round
// that a divergence replaced its shard. Each tuner gets its own shard's
// divergence; the scaler gets the disruption.
func (c *Controller) round() {
	st := c.f.Stats()
	c.shed.Observe(st.ConnsShed + st.ConnsRefused)
	c.waits.Observe(st.AdmitWaits)
	c.recov.Observe(uint64(st.Recoveries))

	c.mu.Lock()
	disrupted := c.busy || c.recov.Delta() > 0
	c.mu.Unlock()
	for _, sh := range st.Shards {
		switch sh.State {
		case Quarantined, Respawning:
			disrupted = true
		case Serving, Draining:
			if c.cfg.Tuner != nil && c.tune(sh) {
				disrupted = true
			}
		}
	}
	if c.scaler != nil {
		c.scale(st, disrupted)
	}
}

// tunedLocked resolves (lazily creating) a shard's tuner, seeded at the
// shard's live level. Shards the scaler appends join within one round.
func (c *Controller) tunedLocked(sh ShardInfo) *tunedShard {
	for len(c.tuned) <= sh.Index {
		c.tuned = append(c.tuned, nil)
	}
	if c.tuned[sh.Index] == nil {
		c.tuned[sh.Index] = &tunedShard{
			tuner:       NewTuner(*c.cfg.Tuner, sh.Policy),
			gen:         sh.Gen,
			divergences: sh.Divergences,
			mon:         NewCounterWindow(c.cfg.Window),
			unmon:       NewCounterWindow(c.cfg.Window),
			vns:         NewCounterWindow(c.cfg.Window),
		}
	}
	return c.tuned[sh.Index]
}

// tune samples one serving shard, steps its tuner and actuates a level
// change. It reports whether the shard was found replaced by a
// divergence: its divergence count moved since the tuner last looked.
// The tuner reacts to the completed recovery and never races the
// supervisor, whose RespawnPolicy already made the shard conservative;
// a rotation or scale-up only bumps the generation.
func (c *Controller) tune(sh ShardInfo) (diverged bool) {
	snap, ok := c.f.shardTelemetry(sh.Index, sh.Gen)
	if !ok {
		return false
	}
	c.mu.Lock()
	ts := c.tunedLocked(sh)
	sig := Signals{Diverged: sh.Divergences != ts.divergences}
	ts.divergences = sh.Divergences
	if sh.Gen != ts.gen {
		// Re-baseline the windows against the fresh replica set.
		ts.gen = sh.Gen
		ts.mon.Reset()
		ts.unmon.Reset()
		ts.vns.Reset()
	}
	ts.mon.Observe(snap.Monitor.MonitoredCalls)
	ts.unmon.Observe(snap.IPMon.Unmonitored)
	ts.vns.Observe(snap.VirtualNs)
	if !sig.Diverged && ts.mon.Samples() < 2 {
		c.mu.Unlock()
		return false
	}
	if !sig.Diverged {
		sig.Calls = ts.mon.Delta() + ts.unmon.Delta()
		if sig.Calls > 0 {
			sig.NsPerCall = float64(ts.vns.Delta()) / float64(sig.Calls)
			sig.MonitoredFrac = float64(ts.mon.Delta()) / float64(sig.Calls)
		}
	}
	// Step and log under one c.mu hold: a reader that sees the new
	// tuner position also sees the event that explains it.
	dec := ts.tuner.Step(sig)
	if dec.Changed || sig.Diverged {
		c.events = append(c.events, Event{
			At: time.Now(), Shard: sh.Index, Gen: sh.Gen,
			Phase: dec.Phase, Level: dec.Level, Reason: dec.Reason,
		})
	}
	c.mu.Unlock()
	if dec.Changed {
		// A shard mid-respawn rejects the reload; the next round
		// re-observes it.
		_ = c.f.SetShardPolicy(sh.Index, policy.LevelRules(dec.Level))
	}
	return sig.Diverged
}

// shardTelemetry samples shard idx's live replica set if it still runs
// generation gen.
func (f *Fleet) shardTelemetry(idx, gen int) (core.TelemetrySnapshot, bool) {
	s, err := f.shardAt(idx)
	if err != nil {
		return core.TelemetrySnapshot{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mvee == nil || int(s.gen.Load()) != gen {
		return core.TelemetrySnapshot{}, false
	}
	return s.mvee.Telemetry(), true
}

// scale steps the pool scaler and starts the change it decides.
func (c *Controller) scale(st Stats, disrupted bool) {
	inFlight := 0
	for _, sh := range st.Shards {
		if sh.State == Serving {
			inFlight += sh.InFlight
		}
	}
	sig := ScaleSignals{
		Serving:    st.ServingShards,
		Shed:       c.shed.Delta(),
		AdmitWaits: c.waits.Delta(),
		Disrupted:  disrupted,
	}
	if cap := c.f.cfg.MaxConnsPerShard; cap > 0 && st.ServingShards > 0 {
		sig.InFlightFrac = float64(inFlight) / float64(st.ServingShards*cap)
	}
	step := c.scaler.Step(sig)
	var change func()
	switch step.Decision {
	case ScaleUp:
		change = func() { _, _ = c.f.AddShard() }
	case ScaleDown:
		victim := pickVictim(st)
		if victim < 0 {
			return
		}
		change = func() { _ = c.f.RemoveShard(victim) }
	default:
		// Only ceiling holds are logged: they are the degradation
		// decisions an operator wants to see.
		if sig.Serving < c.scaler.cfg.MaxShards || c.scaler.high < c.scaler.cfg.UpRounds {
			return
		}
	}
	c.mu.Lock()
	c.events = append(c.events, Event{
		At: time.Now(), Shard: -1, Decision: step.Decision, Serving: sig.Serving, Reason: step.Reason,
	})
	if change != nil {
		c.busy = true
	}
	c.mu.Unlock()
	if change == nil {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		change()
		c.mu.Lock()
		c.busy = false
		c.mu.Unlock()
	}()
}

// pickVictim chooses the scale-down target: the serving shard with the
// fewest in-flight connections (cheapest drain), highest index on ties
// (so repeated shrinks walk the pool back the way it grew).
func pickVictim(st Stats) int {
	victim, best := -1, -1
	for _, sh := range st.Shards {
		if sh.State != Serving {
			continue
		}
		if victim < 0 || sh.InFlight < best || (sh.InFlight == best && sh.Index > victim) {
			victim, best = sh.Index, sh.InFlight
		}
	}
	return victim
}

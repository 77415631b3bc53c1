package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"remon/internal/apps"
	"remon/internal/core"
	"remon/internal/fleet"
	"remon/internal/model"
	"remon/internal/policy"
	"remon/internal/telemetry"
	"remon/internal/vkernel"
	"remon/internal/vnet"
)

const (
	fleetShards      = 2
	fleetReqSize     = 32
	fleetRespSize    = 64
	fleetReqsPerConn = 2
	fleetCompute     = 2 * model.Microsecond // per request; fleet.Config's default, stated for the native baseline
	fleetWindow      = 2
	fleetConnTimeout = 2 * time.Second
	// fleetRate is the offered load in connections per second: well under
	// the knee, so the workload measures latency, not backlog.
	fleetRate = 3000.0
	// fleetLockstepTimeout is the shards' watchdog (a shard serves many
	// connections per rendezvous, so it gets more slack than a single run).
	fleetLockstepTimeout = 500 * time.Millisecond
	fleetWarmupConns     = 300
	fleetTick            = 100 * time.Millisecond
)

// fleetWorkload drives a 2-shard x 2-replica fleet with the open-loop
// generator; an operation is one connection of two pipelined requests,
// timed from its due time.
type fleetWorkload struct {
	seed uint64
	req  []byte
	tr   *tracer

	f   *fleet.Fleet
	reg *telemetry.Registry

	nativeNs float64 // virtual service time per request, native server
	newNs    int64   // host time of the last fleet.New
	closeNs  int64

	last campaignResult // the measured phase
}

// campaignResult is what one generator campaign did and what the fleet's
// layers counted meanwhile.
type campaignResult struct {
	gen      genResult
	sum      counterSet
	stats    fleet.Stats // deltas
	recovery []time.Duration
	okConns  int
	okHostNs int64
}

func newFleetWorkload(seed uint64) *fleetWorkload {
	rng := model.NewRNG(seed ^ 0xF1EE7)
	req := make([]byte, fleetReqSize)
	for i := range req {
		req[i] = byte(rng.Uint64())
	}
	return &fleetWorkload{seed: seed, req: req}
}

func (w *fleetWorkload) setTracer(t *tracer) { w.tr = t }

func (w *fleetWorkload) genConfig(net *vnet.Network, addr string, arrivals []time.Duration, window int, tr *tracer) genConfig {
	return genConfig{
		net: net, addr: addr, arrivals: arrivals, req: w.req,
		respSize: fleetRespSize, reqsPerConn: fleetReqsPerConn, window: window,
		timeout: fleetConnTimeout, tick: fleetTick, tr: tr,
	}
}

func (w *fleetWorkload) setup() error {
	if err := w.nativeBaseline(); err != nil {
		return err
	}
	lv := policy.SocketRWLevel
	t0 := time.Now()
	f, err := fleet.New(fleet.Config{
		Shards:   fleetShards,
		Replicas: replicas,
		// The respawn level equals the serving level, so the configuration
		// measured is the same before and after a false-verdict respawn.
		Policy:            &lv,
		RespawnPolicy:     &lv,
		SpliceLoops:       1,
		RequestSize:       fleetReqSize,
		ResponseSize:      fleetRespSize,
		ComputePerRequest: fleetCompute,
		MaxConnsPerShard:  4096,
		DisableRouteLog:   true,
		LockstepTimeout:   fleetLockstepTimeout,
		Seed:              w.seed,
	})
	w.newNs = int64(time.Since(t0))
	if err != nil {
		return fmt.Errorf("fleet.New: %w", err)
	}
	w.f = f
	w.reg = telemetry.NewRegistry()
	f.RegisterTelemetry(w.reg)
	warm := arrivalSchedule(w.seed+1, fleetRate, time.Duration(float64(fleetWarmupConns)/fleetRate*float64(time.Second)))
	runGenerator(w.genConfig(f.FrontNetwork(), f.FrontAddr(), warm, fleetWindow, nil), func(batch) {})
	return nil
}

// nativeBaseline measures the virtual service time per request of the
// same protocol on one unmonitored epoll server, driven by the same
// generator: the denominator of virt_overhead_x.
func (w *fleetWorkload) nativeBaseline() error {
	net := vnet.New(vnet.GigabitLocal)
	k := vkernel.New(net)
	m, err := core.New(core.Config{Mode: core.ModeNative, Seed: w.seed, Kernel: k})
	if err != nil {
		return fmt.Errorf("native baseline: %w", err)
	}
	const addr = "bench-native:80"
	prog := apps.Server(apps.ServerConfig{
		Name: "bench-native", Addr: addr,
		RequestSize: fleetReqSize, ResponseSize: fleetRespSize,
		ComputePerRequest: fleetCompute,
		TotalConnections:  fleetWarmupConns, Style: apps.StyleEpoll,
	})
	done := make(chan *core.Report, 1)
	go func() { done <- m.Run(prog) }()
	for deadline := time.Now().Add(unwindWait); !net.HasListener(addr) && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	arr := arrivalSchedule(w.seed+2, fleetRate, time.Duration(float64(fleetWarmupConns)/fleetRate*float64(time.Second)))
	a := newAgg()
	// apps.Server answers once per read, so the baseline keeps one request
	// outstanding; the fleet's own server answers every request of a
	// coalesced read and is driven with fleetWindow.
	res := runGenerator(w.genConfig(net, addr, arr, 1, nil), a.add)
	var rep *core.Report
	select {
	case rep = <-done:
	case <-time.After(unwindWait):
		m.Shutdown("benchmark deadline")
		return fmt.Errorf("native baseline: server did not exit")
	}
	if a.failed() > 0 || res.answered == 0 {
		return fmt.Errorf("native baseline: %d of %d connections failed", a.failed(), a.attempted)
	}
	w.nativeNs = float64(rep.Duration) / float64(res.answered)
	return nil
}

func (w *fleetWorkload) teardown() {
	if w.f != nil {
		t0 := time.Now()
		w.f.Close()
		w.closeNs = int64(time.Since(t0))
		w.f = nil
	}
}

func (w *fleetWorkload) measure(until time.Time, e *emitter) {
	w.last = w.campaign(fleetRate, time.Until(until), w.tr, e.ops)
	g := w.last.gen
	if v := w.last.sum.f("mvee.virtual_ns"); v > 0 && g.answered > 0 {
		e.ops(batch{VirtX: []float64{v / float64(g.answered) / w.nativeNs}})
	}
	if g.wrong || g.sent != g.answered+g.lost {
		e.ops(batch{Fail: map[string]int{kindWrong: 1}})
	}
	if late := percentileInt64(g.lateNs, 0.99); late > 5e6 {
		e.send(msg{T: "note", Note: fmt.Sprintf("generator ran late (p99 %.1f ms): open-loop numbers are suspect", late/1e6)})
	}
}

// campaign offers rate connections per second for dur and records what
// the fleet's layers did meanwhile.
func (w *fleetWorkload) campaign(rate float64, dur time.Duration, tr *tracer, sink func(batch)) campaignResult {
	var r campaignResult
	before, statsBefore := w.scrape(), w.f.Stats()
	recBefore := len(w.f.RecoveryLatencies())
	arr := arrivalSchedule(w.seed, rate, dur)
	r.gen = runGenerator(w.genConfig(w.f.FrontNetwork(), w.f.FrontAddr(), arr, fleetWindow, tr), func(b batch) {
		r.okConns += len(b.OK)
		for _, d := range b.OK {
			r.okHostNs += d
		}
		sink(b)
	})
	r.sum = counterSet{}
	r.sum.addDelta(before, w.scrape())
	after := w.f.Stats()
	r.stats = fleet.Stats{
		ConnsRefused: after.ConnsRefused - statsBefore.ConnsRefused,
		ConnsShed:    after.ConnsShed - statsBefore.ConnsShed,
		Failovers:    after.Failovers - statsBefore.Failovers,
		Recoveries:   after.Recoveries - statsBefore.Recoveries,
		AdmitWaits:   after.AdmitWaits - statsBefore.AdmitWaits,
	}
	r.recovery = w.f.RecoveryLatencies()[recBefore:]
	return r
}

// promLayers maps the telemetry plane's metric prefixes to layer names.
var promLayers = []struct{ prefix, layer string }{
	{"remon_ghumvee_", "ghumvee"},
	{"remon_ikb_", "ikb"},
	{"remon_ipmon_", "ipmon"},
	{"remon_rb_", "rb"},
	{"remon_mvee_", "mvee"},
}

// scrape reads the shards' counters through the telemetry registry (the
// fleet exposes its MVEEs no other way), summed over shards.
func (w *fleetWorkload) scrape() counterSet {
	c := counterSet{}
	for _, line := range strings.Split(w.reg.PromText(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil || v < 0 {
			continue
		}
		for _, pl := range promLayers {
			if strings.HasPrefix(name, pl.prefix) {
				c.into(pl.layer)(strings.TrimPrefix(name, pl.prefix), uint64(v))
			}
		}
	}
	return c
}

func (w *fleetWorkload) layers(out map[string]float64) {
	r := w.last
	calls := r.sum.f("ikb.intercepted_total")
	counterLayers(out, r.sum, calls, float64(r.okHostNs))
	out["core.calls_per_op"] = ratio(calls, float64(r.okConns))
	out["fleet.new_ms"] = float64(w.newNs) / 1e6
	out["fleet.close_ms"] = float64(w.closeNs) / 1e6
	out["fleet.recoveries"] = float64(r.stats.Recoveries)
	out["fleet.failovers"] = float64(r.stats.Failovers)
	out["fleet.conns_refused"] = float64(r.stats.ConnsRefused)
	out["fleet.conns_shed"] = float64(r.stats.ConnsShed)
	out["fleet.admit_waits"] = float64(r.stats.AdmitWaits)
	rec := make([]float64, len(r.recovery))
	for i, d := range r.recovery {
		rec[i] = float64(d) / 1e6
	}
	out["fleet.recovery_p50_ms"] = median(rec)
	out["fleet.goroutines_peak"] = float64(r.gen.goroutinesPeak)
	out["gen.late_p50_ms"] = percentileInt64(r.gen.lateNs, 0.50) / 1e6
	out["gen.late_p99_ms"] = percentileInt64(r.gen.lateNs, 0.99) / 1e6
	out["gen.active_at_end"] = float64(r.gen.activeAtEnd)
}

// probes measures the idle fleet: one connection at a time from connect to
// first response, and a telemetry scrape.
func (w *fleetWorkload) probes(out map[string]float64) {
	const admits = 400
	net, addr := w.f.FrontNetwork(), w.f.FrontAddr()
	buf := make([]byte, fleetRespSize)
	t0 := time.Now()
	for i := 0; i < admits; i++ {
		c, vnow, err := net.Connect(addr, 0)
		if err != nil {
			continue
		}
		if _, err := c.Send(w.req, vnow); err == nil {
			_, _, _ = c.Recv(buf, true)
		}
		c.Close()
	}
	out["fleet.probe_admit_us"] = float64(time.Since(t0)) / admits / 1e3
	const scrapes = 200
	t0 = time.Now()
	for i := 0; i < scrapes; i++ {
		_ = w.reg.PromText()
	}
	out["telemetry.probe_scrape_ms"] = float64(time.Since(t0)) / scrapes / 1e6
}

// rampSteps are the offered rates of the traced run's knee search.
var rampSteps = []float64{1500, 3000, 6000}

// rampLimitMs is the latency limit of the knee search.
const rampLimitMs = 5.0

// ramp offers each step for stepDur and reports the p90 at each, and the
// highest step that met the limit with no failures and no more
// connections in flight when its schedule ended than the limit allows at
// that rate (Little's law, with a factor two of slack).
func (w *fleetWorkload) ramp(stepDur time.Duration, out map[string]float64, e *emitter) {
	maxOK := 0.0
	for _, rate := range rampSteps {
		a := newAgg()
		res := w.campaign(rate, stepDur, nil, func(b batch) {
			a.add(b)
			e.ops(b) // ramp connections are attempted operations too
		})
		p90 := a.latencyMs(0.90)
		out[fmt.Sprintf("fleet.ramp_p90_ms.r%d", int(rate))] = p90
		backlog := float64(res.gen.activeAtEnd) > 2*rate*rampLimitMs/1e3+1
		if p90 <= rampLimitMs && a.failed() == 0 && !backlog {
			maxOK = rate
		}
	}
	out["fleet.ramp_max_ok_rate"] = maxOK
}

func percentileInt64(xs []int64, p float64) float64 {
	fs := make([]float64, len(xs))
	for i, v := range xs {
		fs[i] = float64(v)
	}
	return percentile(fs, p)
}

package gen

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"remon/internal/core"
	"remon/internal/fleet"
	"remon/internal/libc"
	"remon/internal/loadgen"
	"remon/internal/policy"
	"remon/internal/vkernel"
	"remon/internal/workload"
)

// Cell is one configuration-grid coordinate.
type Cell struct {
	Level  policy.Level
	MaxLag int
	// Shards is the number of concurrent, independently seeded MVEE
	// instances the trace replays through in this cell. Every instance
	// must be defeated with identical detail — RB layout diversification
	// and token minting differ per seed, so any seed-dependent state
	// leaking into a verdict shows up as a cross-shard mismatch.
	Shards int
}

func (c Cell) String() string {
	return fmt.Sprintf("%s/lag=%d/shards=%d", c.Level, c.MaxLag, c.Shards)
}

// Grid is the full acceptance grid: policy-level{BASE..SOCKET_RW} ×
// MaxLag{0,8,64} × shard{1,4} — 30 cells.
func Grid() []Cell {
	return buildGrid(
		[]policy.Level{policy.BaseLevel, policy.NonsocketROLevel, policy.NonsocketRWLevel, policy.SocketROLevel, policy.SocketRWLevel},
		[]int{0, 8, 64}, []int{1, 4})
}

// SmallGrid is the CI-smoke slice: the two relaxation extremes plus the
// non-socket write level, the lag extremes, single shard — 6 cells. It
// keeps the cross-lag detail comparison meaningful while staying cheap.
func SmallGrid() []Cell {
	return buildGrid(
		[]policy.Level{policy.BaseLevel, policy.NonsocketRWLevel, policy.SocketRWLevel},
		[]int{0, 64}, []int{1})
}

func buildGrid(levels []policy.Level, lags, shards []int) []Cell {
	var cells []Cell
	for _, l := range levels {
		for _, lag := range lags {
			for _, sh := range shards {
				cells = append(cells, Cell{Level: l, MaxLag: lag, Shards: sh})
			}
		}
	}
	return cells
}

// CellResult is one (trace, cell) outcome.
type CellResult struct {
	Trace   string
	Class   Class
	Variant int
	Cell    Cell
	// Defeated: the attack was caught the way the trace's expectation
	// predicate demands — divergence verdict from the predicted monitor
	// layer, or token violations on a healthy run — identically in every
	// shard instance of the cell.
	Defeated bool
	// Detail is the canonical verdict detail (identical across shard
	// instances when Defeated).
	Detail string
	// IPMonCaught: the in-process monitor filed the divergence.
	IPMonCaught bool
	// DetectionCalls is how many trace ops the compromised master got
	// past the injection point before the run ended — the run-ahead
	// exposure, in calls.
	DetectionCalls int64
}

// instanceSeed diversifies the per-shard MVEE seeds the way the fleet
// does (fleet.buildShard: Seed + idx*0x10001).
func instanceSeed(shard int) uint64 { return 0xA11CE + uint64(shard)*0x10001 }

// runInstance replays tr through one standalone MVEE at the cell's
// coordinates.
func runInstance(tr *Trace, c Cell, shard int) (defeated bool, detail string, ipmon bool, detect int64) {
	cfg := core.Config{
		Mode:       core.ModeReMon,
		Replicas:   2,
		Policy:     c.Level,
		Partitions: 8,
		MaxLag:     c.MaxLag,
		Seed:       instanceSeed(shard),
	}
	m, err := core.New(cfg)
	if err != nil {
		return false, "core.New: " + err.Error(), false, 0
	}

	ops := tr.Ops
	if tr.Probe != nil {
		// Materialise the probe closure against this instance's broker:
		// every replica forges the same Context and completes with the
		// same guessed token, so the denied completions rendezvous
		// identically and the run stays healthy.
		spec := *tr.Probe
		broker := m.Broker
		ops = append([]workload.TraceOp(nil), tr.Ops...)
		ops[tr.TamperIndex].Probe = func(env *libc.Env) {
			call := &vkernel.Call{Num: spec.Nr}
			forged := broker.ForgeContext(env.T, call, spec.Token)
			env.T.SetInIPMon(true)
			forged.CompleteWithToken(spec.Token, call)
			env.T.SetInIPMon(false)
		}
	}

	counts := &workload.TraceCounts{}
	rep := m.Run(workload.TraceProgram(ops, counts))
	m.Close()

	for _, s := range rep.IPMon {
		if s.Divergences > 0 {
			ipmon = true
		}
	}
	detect = counts.Executed(0) - int64(tr.TamperIndex) - 1
	if detect < 0 {
		detect = 0
	}

	if tr.Probe != nil {
		defeated = !rep.Verdict.Diverged &&
			rep.Broker.TokenViolations == uint64(cfg.Replicas)
		detail = fmt.Sprintf("token-violations=%d, grant-denied=%d, diverged=%v",
			rep.Broker.TokenViolations, rep.Broker.GrantDenied, rep.Verdict.Diverged)
		return defeated, detail, ipmon, detect
	}
	defeated = rep.Verdict.Diverged && ipmon == tr.WantIPMon(c.Level)
	detail = fmt.Sprintf("ipmon-detected=%v, %s", ipmon, rep.Verdict.Reason)
	return defeated, detail, ipmon, detect
}

// RunCell replays tr through every shard instance of the cell and folds
// the instances into one result: defeated only if every instance is
// defeated AND every instance produced bit-identical detail.
func RunCell(tr *Trace, c Cell) CellResult {
	res := CellResult{Trace: tr.Name, Class: tr.Class, Variant: tr.Variant, Cell: c, Defeated: true}
	shards := c.Shards
	if shards <= 0 {
		shards = 1
	}
	for s := 0; s < shards; s++ {
		defeated, detail, ipmon, detect := runInstance(tr, c, s)
		if s == 0 {
			res.Detail = detail
			res.IPMonCaught = ipmon
			res.DetectionCalls = detect
		} else if detail != res.Detail {
			res.Defeated = false
			res.Detail = fmt.Sprintf("cross-shard detail mismatch: shard0=%q shard%d=%q", res.Detail, s, detail)
			return res
		}
		if !defeated {
			res.Defeated = false
			res.Detail = detail
		}
	}
	return res
}

// RunMatrix replays every trace through every cell, fanning instances
// out over a bounded worker pool. Results come back in deterministic
// (trace-major, cell-minor) order regardless of scheduling.
func RunMatrix(traces []*Trace, cells []Cell) []CellResult {
	type job struct{ ti, ci int }
	jobs := make(chan job)
	out := make([]CellResult, len(traces)*len(cells))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				out[j.ti*len(cells)+j.ci] = RunCell(traces[j.ti], cells[j.ci])
			}
		}()
	}
	for ti := range traces {
		for ci := range cells {
			jobs <- job{ti, ci}
		}
	}
	close(jobs)
	wg.Wait()
	return out
}

// RunFleetClass replays one trace's tamper payload through a live fleet
// shard: the generated exfiltration bytes are spliced over a served
// response by the compromised master, and the shard must be quarantined
// with the slave's comparison filing the verdict. This is the
// fleet-path leg of the matrix — the standalone grid proves the verdict
// algebra, this proves the same payload is caught end-to-end through
// the balancer, a live server program, and the quarantine lifecycle.
func RunFleetClass(tr *Trace, shards int, level policy.Level) CellResult {
	res := CellResult{
		Trace: tr.Name, Class: tr.Class, Variant: tr.Variant,
		Cell: Cell{Level: level, Shards: shards},
	}
	lv := level
	f, err := fleet.New(fleet.Config{
		Shards: shards, Replicas: 2, Policy: &lv,
		RequestSize: 32, ResponseSize: 128,
		LockstepTimeout: 5 * time.Second,
	})
	if err != nil {
		res.Detail = "fleet.New: " + err.Error()
		return res
	}
	defer f.Close()

	payload := tr.TamperPayload
	if len(payload) == 0 {
		payload = []byte(tr.Name)
	}
	// Closed-loop clients: conns connections of reqs round trips each.
	reqSize, respSize := f.RequestShape()
	drive := func(conns, reqs int) {
		loadgen.Burst(f.FrontNetwork(), f.FrontAddr(), loadgen.Shape{
			RequestsPerConn: reqs, Window: 1, RequestSize: reqSize, ResponseSize: respSize,
		}, conns)
	}
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		drive(4*shards, 40)
	}()
	time.Sleep(2 * time.Millisecond)
	if err := f.InjectTamper(0, payload); err != nil {
		res.Detail = "InjectTamper: " + err.Error()
		<-loadDone
		return res
	}
	recovered := f.WaitRecoveriesDriving(1, 30*time.Second, func() { drive(8, 2) })
	<-loadDone

	verdict := f.Stats().Shards[0].LastVerdict
	res.Defeated = recovered && verdict.Diverged
	res.IPMonCaught = verdict.Diverged
	res.Detail = fmt.Sprintf("fleet: recovered=%v verdict=%q", recovered, verdict.Reason)
	return res
}

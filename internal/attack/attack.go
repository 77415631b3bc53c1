// Package attack implements the security experiments backing §4's
// analysis: concrete attack scenarios executed against live ReMon
// instances, each expected to be detected (divergence), neutralised
// (token revocation, shm rejection) or rendered statistically infeasible
// (RB guessing). The same scenarios run against the VARAN-like baseline
// demonstrate the security gap §6 describes.
package attack

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"remon/internal/core"
	"remon/internal/fleet"
	"remon/internal/ikb"
	"remon/internal/libc"
	"remon/internal/loadgen"
	"remon/internal/mem"
	"remon/internal/policy"
	"remon/internal/varan"
	"remon/internal/vkernel"
)

// Outcome is one scenario's result.
type Outcome struct {
	Name     string
	Detected bool
	Detail   string
}

func (o Outcome) String() string {
	verdict := "DEFEATED "
	if !o.Detected {
		verdict = "SURVIVED!"
	}
	return fmt.Sprintf("%-34s %s  %s", o.Name, verdict, o.Detail)
}

// remonCfg is the standard 2-replica ReMon deployment attacks run against.
func remonCfg() core.Config {
	return remonCfgAt(policy.SocketRWLevel, 0)
}

// remonCfgAt parameterises the deployment by relaxation level and
// master-ahead lag window — the per-instance axes of the golden verdict
// matrix.
func remonCfgAt(level policy.Level, maxLag int) core.Config {
	return core.Config{
		Mode: core.ModeReMon, Replicas: 2, Policy: level,
		Partitions: 8, MaxLag: maxLag,
	}
}

// DivergentWriteMonitored simulates a compromised master issuing a
// sensitive call with attacker-controlled arguments (the replicas, being
// diversified, cannot be compromised consistently — §4 property iii).
// Expected: GHUMVEE's lockstep comparison detects the divergence. The CP
// monitor path has neither a relaxation level nor a lag window, so the
// scenario takes no matrix coordinates.
func DivergentWriteMonitored() Outcome {
	rep, err := core.RunProgram(core.Config{Mode: core.ModeGHUMVEE, Replicas: 2}, func(env *libc.Env) {
		payload := []byte("GET /index.html")
		if env.T.Proc.ReplicaIndex == 0 {
			payload = []byte("/bin/sh -c pwn!") // hijacked master
		}
		fd, _ := env.Open("/tmp/attack1", vkernel.OCreat|vkernel.ORdwr, 0o644)
		env.Write(fd, payload)
		env.Close(fd)
	})
	if err != nil {
		return Outcome{Name: "divergent write (monitored)", Detail: err.Error()}
	}
	return Outcome{
		Name:     "divergent write (monitored)",
		Detected: rep.Verdict.Diverged,
		Detail:   rep.Verdict.Reason,
	}
}

// DivergentWriteUnmonitored runs the same attack through IP-MON's
// unmonitored path: the slave's in-process argument comparison must catch
// it and crash intentionally (§3.3).
func DivergentWriteUnmonitored() Outcome {
	return DivergentWriteUnmonitoredAt(policy.SocketRWLevel, 0)
}

// DivergentWriteUnmonitoredAt parameterises the divergent file write by
// relaxation level: from NONSOCKET_RW up the write runs unmonitored and
// the slave's in-process comparison must catch it; below that the write
// stays on the lockstep path and GHUMVEE must catch it instead. Either
// way the attack is detected — which monitor does the catching is the
// only level-dependent part of the verdict.
func DivergentWriteUnmonitoredAt(level policy.Level, maxLag int) Outcome {
	rep, err := core.RunProgram(remonCfgAt(level, maxLag), func(env *libc.Env) {
		payload := []byte("benign-file-write-content-xyz")
		if env.T.Proc.ReplicaIndex == 0 {
			payload = []byte("malicious-exfiltrated-secret!")
		}
		fd, _ := env.Open("/tmp/attack2", vkernel.OCreat|vkernel.ORdwr, 0o644)
		env.Write(fd, payload)
		env.Close(fd)
	})
	if err != nil {
		return Outcome{Name: "divergent write (unmonitored)", Detail: err.Error()}
	}
	var ipmonCaught bool
	for _, s := range rep.IPMon {
		if s.Divergences > 0 {
			ipmonCaught = true
		}
	}
	wantIPMon := level >= policy.NonsocketRWLevel
	return Outcome{
		Name:     "divergent write (unmonitored)",
		Detected: rep.Verdict.Diverged && ipmonCaught == wantIPMon,
		Detail:   fmt.Sprintf("ipmon-detected=%v, %s", ipmonCaught, rep.Verdict.Reason),
	}
}

// DivergentSyscallSequence simulates a hijacked master executing an extra
// sensitive syscall (classic payload behaviour).
func DivergentSyscallSequence() Outcome {
	return DivergentSyscallSequenceAt(policy.SocketRWLevel, 0)
}

// DivergentSyscallSequenceAt is the level/lag-parameterised variant.
func DivergentSyscallSequenceAt(level policy.Level, maxLag int) Outcome {
	rep, err := core.RunProgram(remonCfgAt(level, maxLag), func(env *libc.Env) {
		env.Getpid()
		if env.T.Proc.ReplicaIndex == 0 {
			// Payload: open a sensitive file only in the master.
			env.Open("/etc/shadow-equivalent", vkernel.OCreat|vkernel.ORdonly, 0o600)
		}
		fd, _ := env.Open("/tmp/attack3", vkernel.OCreat|vkernel.ORdwr, 0o644)
		env.Write(fd, []byte("after"))
		env.Close(fd)
	})
	if err != nil {
		return Outcome{Name: "divergent syscall sequence", Detail: err.Error()}
	}
	return Outcome{
		Name:     "divergent syscall sequence",
		Detected: rep.Verdict.Diverged,
		Detail:   rep.Verdict.Reason,
	}
}

// TokenForgery attempts to complete an unmonitored syscall with a guessed
// authorization token (§3.1): the attacker calls the IK-B verifier
// directly with a forged 64-bit value. Expected: IK-B revokes and forces
// the ptrace path, recording the violation.
func TokenForgery() Outcome { return TokenForgeryAt(policy.SocketRWLevel, 0) }

// TokenForgeryAt is the level/lag-parameterised variant.
func TokenForgeryAt(level policy.Level, maxLag int) Outcome {
	// The forged completion deliberately desynchronises the lockstep
	// group: the run only ends when the rendezvous watchdog fires. The
	// scenario has no legitimate blocking at all, so run this instance
	// with a short per-monitor watchdog instead of idling 10 wall-clock
	// seconds (and instead of racing other live MVEEs on a global).
	cfg := remonCfgAt(level, maxLag)
	cfg.LockstepTimeout = 250 * time.Millisecond

	m, err := core.New(cfg)
	if err != nil {
		return Outcome{Name: "token forgery", Detail: err.Error()}
	}
	defer m.Close()
	var violation bool
	rep := m.Run(func(env *libc.Env) {
		if env.T.Proc.ReplicaIndex == 0 {
			// The attacker fabricates a Context as if IK-B had granted a
			// token, then tries to complete a write through the verifier
			// with a guessed value.
			forged := &ikb.Context{
				Broker: m.Broker,
				Thread: env.T,
				Call:   &vkernel.Call{Num: vkernel.SysGetpid},
				Token:  0xDEADBEEF12345678,
			}
			env.T.SetInIPMon(true) // attacker even fakes the entry marker
			forged.CompleteWithToken(0xDEADBEEF12345678, forged.Call)
			env.T.SetInIPMon(false)
		}
		env.Getpid()
	})
	violation = rep.Broker.TokenViolations > 0
	return Outcome{
		Name:     "token forgery",
		Detected: violation,
		Detail:   fmt.Sprintf("token violations recorded: %d", rep.Broker.TokenViolations),
	}
}

// StaleTokenReplay: a replica holds a live IK-B grant (IK-B has minted
// the token and handed the call to IP-MON) and the attacker, in control
// at that instant, issues a different syscall from outside IP-MON's
// entry point. Expected: IK-B revokes the outstanding token and records
// a violation (§3.1, "if the first system call executed after a token
// has been granted does not originate from within IP-MON itself").
func StaleTokenReplay() Outcome { return StaleTokenReplayAt(policy.SocketRWLevel, 0) }

// StaleTokenReplayAt is the level/lag-parameterised variant. Every
// replica re-registers its IP-MON behind a hijacked entry point (in
// lockstep: registration is monitored); the hijacked getpid issues
// getppid while its token is live, then restarts as a monitored call.
func StaleTokenReplayAt(level policy.Level, maxLag int) Outcome {
	const name = "stale token replay"
	m, err := core.New(remonCfgAt(level, maxLag))
	if err != nil {
		return Outcome{Name: name, Detail: err.Error()}
	}
	defer m.Close()
	var caught atomic.Int32 // replicas whose foreign call revoked and recorded
	rep := m.Run(func(env *libc.Env) {
		ip := m.IPMons[env.T.Proc.ReplicaIndex]
		mask := ip.UnmonitoredMask()
		hijacked := false
		m.Broker.StageRegistration(env.T.Proc, &ikb.Registration{
			Mask: mask, RBBase: ip.RBBase, Barrier: ip.FlushThread,
			Entry: func(ctx *ikb.Context) vkernel.Result {
				if hijacked || ctx.Call.Num != vkernel.SysGetpid {
					return ip.Entry(ctx)
				}
				hijacked = true
				before := m.Broker.Stats()
				ctx.Thread.Syscall(vkernel.SysGetppid)
				if after := m.Broker.Stats(); after.TokensRevoked > before.TokensRevoked &&
					after.TokenViolations > before.TokenViolations {
					caught.Add(1)
				}
				return ctx.ForwardToMonitor()
			},
		})
		env.T.Syscall(vkernel.SysIPMonRegister, uint64(mask.Count()), m.Cfg.RBSize, 1)
		env.Getpid()
	})
	return Outcome{
		Name:     name,
		Detected: int(caught.Load()) == m.Cfg.Replicas,
		Detail: fmt.Sprintf("live token revoked at a foreign call in %d/%d replicas (token violations: %d)",
			caught.Load(), m.Cfg.Replicas, rep.Broker.TokenViolations),
	}
}

// SharedMemoryChannel: replicas request a System V segment to build the
// unmonitored bidirectional channel §2.1 forbids. Expected: EPERM.
func SharedMemoryChannel() Outcome { return SharedMemoryChannelAt(policy.SocketRWLevel, 0) }

// SharedMemoryChannelAt is the level/lag-parameterised variant (shmget
// is sensitive at every level).
func SharedMemoryChannelAt(level policy.Level, maxLag int) Outcome {
	var errsMu sync.Mutex
	var errs []vkernel.Errno
	rep, err := core.RunProgram(remonCfgAt(level, maxLag), func(env *libc.Env) {
		r := env.T.Syscall(vkernel.SysShmget, 42, 1<<16, 0)
		errsMu.Lock()
		errs = append(errs, r.Errno)
		errsMu.Unlock()
	})
	if err != nil {
		return Outcome{Name: "shared-memory channel", Detail: err.Error()}
	}
	rejected := rep.Monitor.ShmRejected > 0
	for _, e := range errs {
		if e != vkernel.EPERM {
			rejected = false
		}
	}
	return Outcome{
		Name:     "shared-memory channel",
		Detected: rejected && !rep.Verdict.Diverged,
		Detail:   fmt.Sprintf("rejections=%d", rep.Monitor.ShmRejected),
	}
}

// RBDisclosureViaProcMaps scans the maps the replica can read for any
// region whose address matches the true RB mapping (§3.1's filtering).
func RBDisclosureViaProcMaps() Outcome {
	return RBDisclosureViaProcMapsAt(policy.SocketRWLevel, 0)
}

// RBDisclosureViaProcMapsAt is the level/lag-parameterised variant
// (special-file reads are force-forwarded for filtering at every level).
func RBDisclosureViaProcMapsAt(level policy.Level, maxLag int) Outcome {
	m, err := core.New(remonCfgAt(level, maxLag))
	if err != nil {
		return Outcome{Name: "RB disclosure via /proc/maps", Detail: err.Error()}
	}
	defer m.Close()
	bases := m.RBBases()
	// Both replica goroutines report their findings; atomics keep the
	// harness itself race-free.
	var leaked atomic.Bool
	var capturedLen atomic.Int64
	rep := m.Run(func(env *libc.Env) {
		path := fmt.Sprintf("/proc/%d/maps", env.Getpid())
		fd, errno := env.Open(path, vkernel.ORdonly, 0)
		if errno != 0 {
			return
		}
		var sb strings.Builder
		buf := make([]byte, 1024)
		for {
			n, errno := env.Read(fd, buf)
			if errno != 0 || n == 0 {
				break
			}
			sb.Write(buf[:n])
		}
		env.Close(fd)
		content := sb.String()
		capturedLen.Store(int64(len(content)))
		idx := env.T.Proc.ReplicaIndex
		if idx >= 0 && idx < len(bases) {
			addr := fmt.Sprintf("%012x", uint64(bases[idx]))
			if strings.Contains(content, addr) {
				leaked.Store(true)
			}
		}
	})
	return Outcome{
		Name:     "RB disclosure via /proc/maps",
		Detected: !leaked.Load() && !rep.Verdict.Diverged && capturedLen.Load() > 0,
		Detail:   fmt.Sprintf("maps bytes read=%d, RB address leaked=%v", capturedLen.Load(), leaked.Load()),
	}
}

// RBPointerLeakScan sweeps every mapped private region of each replica
// for the 8-byte little-endian encoding of the RB base address — the
// §3.1 register-only discipline means it must never appear in process
// memory.
func RBPointerLeakScan() Outcome { return RBPointerLeakScanAt(policy.SocketRWLevel, 0) }

// RBPointerLeakScanAt is the level/lag-parameterised variant.
func RBPointerLeakScanAt(level policy.Level, maxLag int) Outcome {
	m, err := core.New(remonCfgAt(level, maxLag))
	if err != nil {
		return Outcome{Name: "RB pointer leak scan", Detail: err.Error()}
	}
	defer m.Close()
	rep := m.Run(func(env *libc.Env) {
		// Exercise a healthy mix of unmonitored calls so IP-MON state is
		// warm before the scan.
		fd, _ := env.Open("/tmp/leakscan", vkernel.OCreat|vkernel.ORdwr, 0o644)
		for i := 0; i < 50; i++ {
			env.Write(fd, []byte("data"))
			env.TimeNow()
		}
		env.Close(fd)
	})
	if rep.Verdict.Diverged {
		return Outcome{Name: "RB pointer leak scan", Detail: "run diverged"}
	}
	for i, p := range m.Procs() {
		base := m.RBBases()[i]
		var needle [8]byte
		for b := 0; b < 8; b++ {
			needle[b] = byte(uint64(base) >> (8 * uint(b)))
		}
		for _, r := range p.Mem.Regions() {
			if r.Shared() != nil {
				continue // the RB itself; contents are entry data
			}
			data, err := p.Mem.ReadBytes(r.Start, int(r.Size))
			if err != nil {
				continue
			}
			for off := 0; off+8 <= len(data); off++ {
				match := true
				for b := 0; b < 8; b++ {
					if data[off+b] != needle[b] {
						match = false
						break
					}
				}
				if match {
					return Outcome{
						Name:   "RB pointer leak scan",
						Detail: fmt.Sprintf("RB pointer found in replica %d region %s", i, r.Name),
					}
				}
			}
		}
	}
	return Outcome{
		Name:     "RB pointer leak scan",
		Detected: true,
		Detail:   "RB base absent from all private replica memory",
	}
}

// RBGuessingEntropy reports the analytical guessing odds of §4: a 16 MiB
// RB randomised within the mmap span gives ~24 bits of entropy per
// replica; it also samples layouts to confirm bases differ per replica.
func RBGuessingEntropy(samples int) Outcome {
	if samples <= 0 {
		samples = 32
	}
	distinct := map[mem.Addr]bool{}
	for s := 0; s < samples; s++ {
		m, err := core.New(core.Config{
			Mode: core.ModeReMon, Replicas: 2, Policy: policy.BaseLevel,
			Seed: uint64(s + 1),
		})
		if err != nil {
			return Outcome{Name: "RB guessing entropy", Detail: err.Error()}
		}
		for _, b := range m.RBBases() {
			distinct[b] = true
		}
		m.Close()
	}
	// With 24+ bits of entropy, collisions across a few dozen samples are
	// essentially impossible.
	want := samples * 2
	ok := len(distinct) >= want-1
	return Outcome{
		Name:     "RB guessing entropy",
		Detected: ok,
		Detail: fmt.Sprintf("%d/%d sampled RB bases distinct; 16MiB RB in 2^28-page span = ~24 bits/replica",
			len(distinct), want),
	}
}

// VaranMissesDivergentWrite shows the baseline's gap (§6): the same
// unmonitored divergent write that ReMon's IP-MON catches passes through
// the reliability-oriented design unflagged.
func VaranMissesDivergentWrite() Outcome {
	m, err := varan.New(varan.Config{Replicas: 2})
	if err != nil {
		return Outcome{Name: "baseline contrast (VARAN-like)", Detail: err.Error()}
	}
	rep := m.Run(func(env *libc.Env) {
		payload := []byte("benign-file-write-content-xyz")
		if env.T.Proc.ReplicaIndex == 0 {
			payload = []byte("malicious-exfiltrated-secret!")
		}
		fd, _ := env.Open("/tmp/attack-varan", vkernel.OCreat|vkernel.ORdwr, 0o644)
		env.Write(fd, payload)
		env.Close(fd)
	})
	// "Detected" here means: the experiment demonstrated the gap (the
	// attack was NOT caught by the baseline).
	return Outcome{
		Name:     "baseline contrast (VARAN-like)",
		Detected: !rep.Diverged,
		Detail:   fmt.Sprintf("attack flagged by baseline: %v (ReMon catches it; §6)", rep.Diverged),
	}
}

// DCLIntegrity verifies the Disjoint Code Layout property across a fresh
// replica set (§4, "Diversified Replicas").
func DCLIntegrity() Outcome {
	m, err := core.New(remonCfg())
	if err != nil {
		return Outcome{Name: "disjoint code layouts", Detail: err.Error()}
	}
	defer m.Close()
	var spaces []*mem.AddressSpace
	for _, p := range m.Procs() {
		spaces = append(spaces, p.Mem)
	}
	if err := mem.DisjointCodeLayouts(spaces...); err != nil {
		return Outcome{Name: "disjoint code layouts", Detail: err.Error()}
	}
	return Outcome{
		Name:     "disjoint code layouts",
		Detected: true,
		Detail:   "no executable region shared between replicas",
	}
}

// MasterRunAheadWindow measures how many unmonitored calls a compromised
// master can issue before the slave's comparison catches the divergence —
// the window §4 discusses, bounded by the RB capacity.
func MasterRunAheadWindow(rbSize uint64) Outcome {
	return MasterRunAheadWindowAt(rbSize, policy.SocketRWLevel, 0)
}

// MasterRunAheadWindowAt is the level/lag-parameterised variant. Below
// NONSOCKET_RW the "unmonitored spray" degenerates: every write is
// lockstepped and the very first one is caught — the run-ahead window of
// §4 exists only where relaxation does.
func MasterRunAheadWindowAt(rbSize uint64, level policy.Level, maxLag int) Outcome {
	calls := 0
	rep, err := core.RunProgram(core.Config{
		Mode: core.ModeReMon, Replicas: 2, Policy: level,
		RBSize: rbSize, Partitions: 1, MaxLag: maxLag,
	}, func(env *libc.Env) {
		fd, _ := env.Open("/tmp/runahead", vkernel.OCreat|vkernel.ORdwr, 0o644)
		if env.T.Proc.ReplicaIndex == 0 {
			// Compromised master: spray divergent writes as fast as the
			// RB lets it.
			for i := 0; i < 1000; i++ {
				if _, errno := env.Write(fd, []byte("evil")); errno != 0 {
					return
				}
				calls++
			}
			return
		}
		// The slave executes the benign sequence and trips on entry #1.
		for i := 0; i < 1000; i++ {
			if _, errno := env.Write(fd, []byte("good")); errno != 0 {
				return
			}
		}
	})
	if err != nil {
		return Outcome{Name: "master run-ahead window", Detail: err.Error()}
	}
	return Outcome{
		Name:     "master run-ahead window",
		Detected: rep.Verdict.Diverged,
		Detail: fmt.Sprintf("master issued %d unmonitored calls before shutdown (RB %d KiB)",
			calls, rbSize/1024),
	}
}

// FleetShardCompromise runs the fleet-scale containment scenario: four
// MVEE shards serve concurrent client streams behind the virtual
// balancer while one shard's master replica is compromised (it tampers
// with an unmonitored response). Expected: the slave's IP-MON comparison
// catches the divergence, the supervisor quarantines and respawns only
// that shard, and every stream routed to the other three shards
// completes with zero errors — per-instance isolation at fleet scale.
func FleetShardCompromise() Outcome {
	const name = "fleet shard compromise"
	f, err := fleet.New(fleet.Config{
		Shards: 4, Replicas: 2,
		RequestSize: 32, ResponseSize: 128,
		LockstepTimeout: 5 * time.Second,
	})
	if err != nil {
		return Outcome{Name: name, Detail: err.Error()}
	}
	defer f.Close()

	// Closed-loop clients: conns connections of reqs round trips each.
	reqSize, respSize := f.RequestShape()
	drive := func(conns, reqs int) []loadgen.ConnReport {
		return loadgen.Burst(f.FrontNetwork(), f.FrontAddr(), loadgen.Shape{
			RequestsPerConn: reqs, Window: 1, RequestSize: reqSize, ResponseSize: respSize,
		}, conns)
	}
	loadDone := make(chan []loadgen.ConnReport, 1)
	go func() { loadDone <- drive(24, 40) }()
	time.Sleep(2 * time.Millisecond)
	if err := f.InjectDivergence(0); err != nil {
		return Outcome{Name: name, Detail: err.Error()}
	}
	// Drive small bursts while waiting so the armed injection is
	// guaranteed to meet traffic even if the background load finishes
	// early.
	recovered := f.WaitRecoveriesDriving(1, 30*time.Second, func() { drive(8, 2) })
	out := <-loadDone

	healthyErrors, healthyShards := 0, map[int]bool{}
	for _, r := range out {
		if shard, _, ok := f.RouteOf(r.Addr); ok && shard != 0 {
			healthyErrors += r.Lost
			healthyShards[shard] = true
		}
	}
	verdict := f.Stats().Shards[0].LastVerdict
	detected := recovered && verdict.Diverged && healthyErrors == 0 && len(healthyShards) >= 3
	return Outcome{
		Name:     name,
		Detected: detected,
		Detail: fmt.Sprintf("verdict=%q recovered=%v healthy-shard errors=%d (across %d shards)",
			verdict.Reason, recovered, healthyErrors, len(healthyShards)),
	}
}

// DetailStable reports whether a scenario's Detail string is
// deterministic for a fixed (level, lag) cell. The "master run-ahead
// window" scenarios (including the budgeted RB-size sweep variants)
// report the host-scheduling-dependent run-ahead depth, so only their
// verdicts — never their details — participate in golden comparisons.
// Every other suite scenario, and every trace the generator
// (internal/attack/gen) emits, must keep its detail bit-identical across
// lag and shard settings.
func DetailStable(name string) bool {
	return !strings.HasPrefix(name, "master run-ahead window")
}

// RunSuiteAt executes every single-instance scenario of the suite under
// one (relaxation level, lag window) cell — the golden-verdict-matrix
// row; maxLag 0 is lockstep publication.
// Excluded by construction: the VARAN baseline contrast (no ReMon
// instance), the analytic entropy and DCL checks (no policy axis), and
// the fleet scenario (covered separately; seconds per run).
func RunSuiteAt(level policy.Level, maxLag int) []Outcome {
	return RunSuiteAtBudget(level, maxLag, SuiteBudget{})
}

// SuiteBudget bounds the multi-instance scenarios a golden-matrix cell
// runs on top of the fixed single-instance set. The zero value is the
// historical cell (one 1 MiB run-ahead window, no entropy sampling);
// FullBudget opts matrix runs into the sweeps that used to live only in
// RunAll.
type SuiteBudget struct {
	// EntropySamples, when positive, appends RBGuessingEntropy with that
	// many sampled layouts (each sample is a full MVEE construction).
	EntropySamples int
	// RunAheadRBSizes sweeps MasterRunAheadWindowAt over these RB sizes;
	// nil runs the single default 1 MiB window under the historical
	// name. Swept entries are renamed per size so golden comparisons can
	// track each cell independently.
	RunAheadRBSizes []uint64
}

// FullBudget is the RunAll-scale budget: the entropy check plus a
// two-point run-ahead RB sweep.
func FullBudget() SuiteBudget {
	return SuiteBudget{EntropySamples: 16, RunAheadRBSizes: []uint64{256 << 10, 1 << 20}}
}

// RunSuiteAtBudget is RunSuiteAt with the multi-instance scenarios
// folded in behind the cell budget.
func RunSuiteAtBudget(level policy.Level, maxLag int, b SuiteBudget) []Outcome {
	out := []Outcome{
		DivergentWriteMonitored(),
		DivergentWriteUnmonitoredAt(level, maxLag),
		DivergentSyscallSequenceAt(level, maxLag),
		TokenForgeryAt(level, maxLag),
		StaleTokenReplayAt(level, maxLag),
		SharedMemoryChannelAt(level, maxLag),
		RBDisclosureViaProcMapsAt(level, maxLag),
		RBPointerLeakScanAt(level, maxLag),
	}
	if len(b.RunAheadRBSizes) == 0 {
		out = append(out, MasterRunAheadWindowAt(1<<20, level, maxLag))
	} else {
		for _, sz := range b.RunAheadRBSizes {
			o := MasterRunAheadWindowAt(sz, level, maxLag)
			o.Name = fmt.Sprintf("master run-ahead window (rb=%dKiB)", sz>>10)
			out = append(out, o)
		}
	}
	if b.EntropySamples > 0 {
		out = append(out, RBGuessingEntropy(b.EntropySamples))
	}
	return out
}

// RunAll executes the full suite: the golden-matrix cell at its standard
// SOCKET_RW coordinates under the full budget (entropy sampling and the
// run-ahead RB sweep included), plus the scenarios with no policy axis.
func RunAll() []Outcome {
	out := RunSuiteAtBudget(policy.SocketRWLevel, 0, FullBudget())
	return append(out,
		DCLIntegrity(),
		VaranMissesDivergentWrite(),
		FleetShardCompromise(),
	)
}

// Package core is ReMon's orchestration layer and the library's primary
// public surface: it builds a set of diversified replica processes, wires
// the three components of Figure 2 — GHUMVEE (CP monitor), IP-MON
// (in-process monitor) and IK-B (in-kernel broker) — and runs replica
// programs under a chosen monitoring mode and relaxation policy.
//
// Three run modes cover the paper's design space:
//
//   - ModeNative: one process, no monitoring (the baseline of every
//     normalised figure).
//   - ModeGHUMVEE: the CP monitor alone, every syscall lockstepped (the
//     "no IP-MON" bars of Figures 3–5).
//   - ModeReMon: the full hybrid — IK-B routes unmonitored calls to
//     IP-MON under a spatial (and optionally temporal) relaxation policy,
//     everything else to GHUMVEE.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"remon/internal/ghumvee"
	"remon/internal/ikb"
	"remon/internal/ipmon"
	"remon/internal/libc"
	"remon/internal/mem"
	"remon/internal/model"
	"remon/internal/policy"
	"remon/internal/rb"
	"remon/internal/rr"
	"remon/internal/vkernel"
	"remon/internal/vnet"
)

// Mode selects the monitoring architecture.
type Mode int

// Run modes.
const (
	ModeNative Mode = iota
	ModeGHUMVEE
	ModeReMon
)

func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModeGHUMVEE:
		return "ghumvee"
	case ModeReMon:
		return "remon"
	}
	return "?"
}

// TemporalConfig enables the probabilistic temporal exemption policy.
type TemporalConfig struct {
	MinApprovals int
	ExemptProb   float64
	// WindowCalls bounds the exemption window in invocations since the
	// last approval (0 = unbounded).
	WindowCalls int
}

// Config parameterises an MVEE instance.
type Config struct {
	Mode     Mode
	Replicas int
	// Policy is the initial global relaxation level (Table 1).
	Policy policy.Level
	// PolicyRules, when set, is the full layered initial rule set (global
	// default < per-fd-class rule < per-fd override) and takes precedence
	// over Policy. Either way the rules land in a dynamic policy.Engine
	// that SetPolicy can hot-reload mid-traffic.
	PolicyRules *policy.Rules
	Temporal    *TemporalConfig
	// RBSize is the replication buffer size (default 16 MiB, §4).
	RBSize uint64
	// Partitions is the number of per-logical-thread RB partitions
	// (default 8).
	Partitions int
	// Seed drives layout diversification and token minting.
	Seed uint64
	// Kernel reuses an existing kernel (so servers under the MVEE and
	// native clients share a network); nil creates a fresh one.
	Kernel *vkernel.Kernel
	// Network is used when a fresh kernel is created.
	Network *vnet.Network

	// LockstepTimeout overrides the GHUMVEE rendezvous watchdog for this
	// instance (0 keeps ghumvee.DefaultLockstepTimeout). Per-instance
	// state: concurrent MVEEs — a fleet — can run different watchdogs.
	LockstepTimeout time.Duration
	// EpochSize sets GHUMVEE's divergence-checking window: batchable
	// monitored calls accumulate and verify together at epoch boundaries
	// (ghumvee.DefaultEpochSize is the recommended batching value; 0 or 1
	// keeps immediate per-call verification). Virtual-time metrics are
	// identical either way — only host-side monitor work is batched.
	EpochSize int
	// MaxLag is the starting lag window of the replication buffer
	// (DESIGN.md §9); MVEE.SetMaxLag changes it live. At N > 0 the master
	// completes checked, policy-batchable fast-path calls without waiting
	// for slave consumption, staging up to rb.DefaultGroupCommit
	// completed entries per writtenSeq release-store and running at most
	// N entries ahead of the slowest slave's consumed counter. 0 (the
	// default) publishes every entry at Reserve. Overflow goes to the
	// GHUMVEE arbiter at every window. Verdicts and per-replica results
	// are bit-identical across settings; only host-side publication and
	// waiting are batched.
	MaxLag int
	// OnVerdict, when set, is invoked exactly once if the monitor
	// declares divergence — the fleet supervisor's quarantine trigger.
	// It runs on the declaring goroutine after replica teardown has been
	// initiated; it must return promptly and must not re-enter the MVEE.
	OnVerdict func(ghumvee.Verdict)

	// Ablation knobs (DESIGN.md §5).
	// AblateAlwaysWake disables §3.7's wake suppression.
	AblateAlwaysWake bool
	// AblateBlocking forces the slave wait strategy: nil = file-map
	// prediction, true = always futex, false = always spin.
	AblateBlocking *bool
}

// MVEE is one monitored replica set.
type MVEE struct {
	Cfg     Config
	Kernel  *vkernel.Kernel
	Monitor *ghumvee.Monitor // nil for ModeNative
	Broker  *ikb.Broker      // nil for ModeNative
	IPMons  []*ipmon.IPMon   // ModeReMon only

	procs []*vkernel.Process
	// rbuf is atomic so lock-free observers (the fleet balancer's
	// least-loaded scoring reads RBStats through a published admission
	// snapshot) never race Close's release; rb.Stats itself is all
	// atomic loads, safe even on a segment already recycled.
	rbuf    atomic.Pointer[rb.Buffer]
	rbBases []mem.Addr
	rrLog   *rr.Log
	agents  []*rr.Agent
	engine  *policy.Engine // shared relaxation engine (ModeReMon)

	mu       sync.Mutex
	nextLtid []int // per replica
	threads  []*vkernel.Thread
	baseTime model.Duration
}

// Report summarises one Run.
type Report struct {
	Mode     Mode
	Replicas int
	Policy   policy.Level
	// Duration is the run's virtual wall-clock: the maximum final thread
	// clock minus the start time.
	Duration model.Duration
	// Syscalls is the number of user syscalls issued during the run.
	Syscalls uint64
	Verdict  ghumvee.Verdict
	Monitor  ghumvee.Stats
	Broker   ikb.Stats
	IPMon    []ipmon.Stats
	// RB snapshots the replication buffer's cumulative counters (wakes,
	// group commits, lag waits) — host-side figures.
	RB rb.Stats
}

// New constructs an MVEE.
func New(cfg Config) (*MVEE, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Mode == ModeNative {
		cfg.Replicas = 1
	}
	if cfg.RBSize == 0 {
		cfg.RBSize = 16 << 20
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x5EED0001
	}
	k := cfg.Kernel
	if k == nil {
		k = vkernel.New(cfg.Network)
	}
	m := &MVEE{
		Cfg:      cfg,
		Kernel:   k,
		nextLtid: make([]int, cfg.Replicas),
	}

	for i := 0; i < cfg.Replicas; i++ {
		p := k.NewProcess(fmt.Sprintf("replica-%d", i), cfg.Seed+uint64(i)*0x9E37, i)
		m.procs = append(m.procs, p)
		m.registerProcMaps(p)
	}

	if cfg.Mode == ModeNative {
		return m, nil
	}

	m.Monitor = ghumvee.New(k, m.procs)
	m.Monitor.SetLockstepTimeout(cfg.LockstepTimeout)
	m.Monitor.SetEpochSize(cfg.EpochSize)
	if cfg.OnVerdict != nil {
		m.Monitor.SetVerdictHandler(cfg.OnVerdict)
	}
	m.Broker = ikb.New(k, m.Monitor)
	m.Broker.SetApprover(m.Monitor)
	k.SetInterceptor(m.Broker)

	if cfg.Mode == ModeReMon {
		if err := m.setupIPMon(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// registerProcMaps exposes /proc/<pid>/maps as a monitored special file
// whose content is filtered: the RB, IP-MON arenas and file map never
// appear (§3.1).
func (m *MVEE) registerProcMaps(p *vkernel.Process) {
	path := fmt.Sprintf("/proc/%d", p.PID)
	if err := m.Kernel.FS.MkdirAll(path, 0o555); err != nil {
		return
	}
	proc := p
	_ = m.Kernel.FS.AddSpecial(path+"/maps", func(pid int) []byte {
		return []byte(proc.Mem.MapsText("rb", "ipmon", "filemap"))
	})
}

// setupIPMon performs §3.5's arbitrated initialisation: GHUMVEE creates
// the shared RB segment, every replica attaches it at a randomised,
// per-replica address, and each replica's IP-MON instance is built.
// The registration syscall itself is issued by each replica at Run time.
func (m *MVEE) setupIPMon() error {
	m.Monitor.SetAllowShm(true)
	defer m.Monitor.SetAllowShm(false)

	// Master creates the segment (arbitrated by GHUMVEE).
	initThreads := make([]*vkernel.Thread, len(m.procs))
	for i, p := range m.procs {
		initThreads[i] = p.NewThread(nil)
	}
	r := initThreads[0].RawSyscall(vkernel.SysShmget, 0, m.Cfg.RBSize, 0)
	if !r.Ok() {
		return fmt.Errorf("core: shmget RB: %v", r.Errno)
	}
	shmID := int(r.Val)
	seg := m.Kernel.ShmSegment(shmID)

	// Every replica attaches at a kernel-randomised address; the mapping
	// is named "rb" so the maps filter hides it.
	m.rbBases = make([]mem.Addr, len(m.procs))
	for i, p := range m.procs {
		reg, err := p.Mem.MapShared(seg, mem.ProtRead|mem.ProtWrite, "rb")
		if err != nil {
			return fmt.Errorf("core: mapping RB into replica %d: %v", i, err)
		}
		m.rbBases[i] = reg.Start
	}
	for _, t := range initThreads {
		t.ExitThread(0)
	}

	buf, err := rb.New(seg, len(m.procs), m.Cfg.Partitions, m.Monitor)
	if err != nil {
		return err
	}
	buf.SetMaxLag(m.Cfg.MaxLag)
	m.rbuf.Store(buf)
	m.Monitor.AttachRB(buf)
	if m.Cfg.AblateAlwaysWake {
		buf.SetAlwaysWake(true)
	}

	// One engine for the whole replica set: hot reloads are published
	// once and every replica's IP-MON pins versions per stream, so the
	// replicas' monitored/unmonitored decisions stay in lockstep. A
	// broken initial rule set fails construction outright — silently
	// degrading to LevelNone would lockstep every call.
	rules := policy.LevelRules(m.Cfg.Policy)
	if m.Cfg.PolicyRules != nil {
		rules = *m.Cfg.PolicyRules
	}
	if err := rules.Validate(); err != nil {
		return fmt.Errorf("core: invalid policy rules: %w", err)
	}
	m.engine = policy.NewEngine(rules)

	var temporal *policy.Temporal
	for i, p := range m.procs {
		if m.Cfg.Temporal != nil {
			// All replicas share one seed: the decision stream must be
			// identical across replicas (policy.Temporal's contract).
			temporal = policy.NewTemporal(m.Cfg.Temporal.MinApprovals,
				m.Cfg.Temporal.ExemptProb, m.Cfg.Temporal.WindowCalls, m.Cfg.Seed)
		}
		ip := ipmon.New(ipmon.Config{
			Replica:          i,
			Proc:             p,
			Buf:              buf,
			RBBase:           m.rbBases[i],
			FileMap:          m.Monitor.FileMap(),
			Shadow:           m.Monitor.EpollShadow(),
			Engine:           m.engine,
			Temporal:         temporal,
			LtidOf:           m.ltidOf,
			BlockingOverride: m.Cfg.AblateBlocking,
		})
		m.IPMons = append(m.IPMons, ip)
	}
	return nil
}

// PolicyEngine exposes the shared relaxation engine (nil outside
// ModeReMon).
func (m *MVEE) PolicyEngine() *policy.Engine { return m.engine }

// SetPolicy hot-reloads the relaxation rules while traffic is live: the
// new snapshot is published atomically and each logical-thread stream
// adopts it at its next replication-buffer handoff, so master and slave
// replicas never disagree about a call's routing. Safe to call
// concurrently with Run.
func (m *MVEE) SetPolicy(rules policy.Rules) (*policy.Snapshot, error) {
	if m.engine == nil {
		return nil, fmt.Errorf("core: SetPolicy requires ModeReMon")
	}
	return m.engine.Install(rules)
}

// SetPolicyLevel is SetPolicy for the common single-layer case.
func (m *MVEE) SetPolicyLevel(l policy.Level) (*policy.Snapshot, error) {
	return m.SetPolicy(policy.LevelRules(l))
}

// SetMaxLag sets the master-ahead lag window while traffic is live; any
// n >= 0 applies, 0 included.
func (m *MVEE) SetMaxLag(n int) error {
	buf := m.rbuf.Load()
	if m.Cfg.Mode != ModeReMon || buf == nil {
		return fmt.Errorf("core: SetMaxLag requires an active ReMon instance")
	}
	if n < 0 {
		return fmt.Errorf("core: negative lag window %d", n)
	}
	buf.SetMaxLag(n)
	return nil
}

// MaxLag reports the live master-ahead lag window (0 = every entry
// published at Reserve).
func (m *MVEE) MaxLag() int {
	buf := m.rbuf.Load()
	if buf == nil {
		return 0
	}
	return buf.MaxLag()
}

// VirtualNow reports the instance's live virtual elapsed time: the
// maximum current thread clock minus the run's base. Thread clocks are
// atomic, so sampling mid-run is race-free; the value is the same
// critical-path figure Report.Duration freezes at run end. The
// telemetry plane divides its delta by the call-count delta to get live
// virtual ns/call — the controller's SLO signal.
func (m *MVEE) VirtualNow() model.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	var maxT model.Duration
	for _, t := range m.threads {
		if now := t.Clock.Now(); now > maxT {
			maxT = now
		}
	}
	return maxT - m.baseTime
}

// RBStats snapshots the replication buffer's counters (zero value
// outside ModeReMon).
func (m *MVEE) RBStats() rb.Stats {
	buf := m.rbuf.Load()
	if buf == nil {
		return rb.Stats{}
	}
	return buf.Stats()
}

// flushIPMon publishes t's staged group-commit entries at thread exit —
// the last hard barrier of a stream's life, guaranteeing slaves never
// starve on entries the master completed but had not yet published.
func (m *MVEE) flushIPMon(idx int, t *vkernel.Thread) {
	if m.Cfg.Mode == ModeReMon && idx < len(m.IPMons) {
		m.IPMons[idx].FlushThread(t)
	}
}

// ltidOf resolves a thread's logical id from its kernel-cached slot —
// lock-free; the seed's shared map put a global mutex acquisition on
// every IP-MON entry.
func (m *MVEE) ltidOf(t *vkernel.Thread) int {
	return t.Ltid()
}

// registerThread binds a thread to its logical id everywhere.
func (m *MVEE) registerThread(t *vkernel.Thread, ltid int) {
	t.SetLtid(ltid)
	m.mu.Lock()
	m.threads = append(m.threads, t)
	m.mu.Unlock()
	if m.Monitor != nil {
		m.Monitor.RegisterThread(t, ltid)
	}
}

// Run executes prog in every replica and reports the outcome. The same
// Program value runs once per replica; per-replica state must live in
// variables declared inside the program body (never captured from outside).
func (m *MVEE) Run(prog libc.Program) *Report {
	m.mu.Lock()
	m.baseTime = 0
	// Logical thread ids restart every run: spawn order is serialised by
	// the record/replay agent, so run N's k-th spawned thread gets the
	// same ltid in every replica — and the same ltid run N-1 used, which
	// keeps repeat runs on the partitioned RB fast path. (The seed let
	// ltids grow monotonically across runs, so every run after the first
	// overflowed the partition count and silently degraded to the
	// lockstep path — benchmarks that reuse an MVEE were measuring
	// GHUMVEE, not IP-MON.)
	for i := range m.nextLtid {
		m.nextLtid[i] = 0
	}
	m.mu.Unlock()

	if m.Cfg.Mode == ModeReMon && m.rrLog == nil {
		m.rrLog = rr.NewLog()
	}
	if m.Cfg.Mode == ModeGHUMVEE && m.rrLog == nil {
		m.rrLog = rr.NewLog()
	}
	m.agents = nil
	if m.rrLog != nil {
		for i := range m.procs {
			m.agents = append(m.agents, rr.NewAgent(m.rrLog, i == 0))
		}
	}

	startCalls := m.Kernel.UserSyscalls()
	var wg sync.WaitGroup
	for i := range m.procs {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			m.runReplica(idx, prog)
		}(i)
	}
	wg.Wait()
	if m.rrLog != nil {
		m.rrLog.Close()
		m.rrLog = nil
	}
	return m.report(startCalls)
}

// runReplica bootstraps one replica: main thread, hooks, optional IP-MON
// registration, program body, exit.
func (m *MVEE) runReplica(idx int, prog libc.Program) {
	p := m.procs[idx]
	t := p.NewThread(nil)
	m.registerThread(t, 0)

	hooks := &libc.Hooks{}
	if m.agents != nil {
		hooks.Agent = m.agents[idx]
	}
	hooks.Spawn = func(parent *libc.Env, fn libc.Program) *libc.ThreadHandle {
		return m.spawnThread(idx, parent, fn)
	}
	env := libc.NewEnv(t, 0, hooks)

	defer func() {
		if r := recover(); r != nil && r != libc.ErrKilled {
			panic(r)
		}
		if !t.Exited() {
			m.flushIPMon(idx, t)
			t.ExitThread(0)
		}
	}()

	if m.Cfg.Mode == ModeReMon {
		ip := m.IPMons[idx]
		mask := ip.UnmonitoredMask()
		// Kernel-side grant bound: the engine's install-history ratchet —
		// unless the temporal policy is active, which can legitimately
		// exempt calls above every installed spatial level (§3.4), so
		// only the static Table 1 bound applies.
		var grantable func(nr int) bool
		if m.Cfg.Temporal == nil {
			grantable = m.engine.GrantableEver
		}
		m.Broker.StageRegistration(p, &ikb.Registration{
			Mask:      mask,
			Entry:     ip.Entry,
			RBBase:    m.rbBases[idx],
			Grantable: grantable,
			// Hard barrier: any route to the CP monitor publishes this
			// thread's staged group-commit entries first (no-op for
			// slaves and for streams with nothing staged).
			Barrier: ip.FlushThread,
		})
		// The new registration syscall (§3.5): arguments carry the mask
		// cardinality and RB size so the lockstep comparison has
		// something to bite on.
		r := t.Syscall(vkernel.SysIPMonRegister, uint64((&mask).Count()), m.Cfg.RBSize, 1)
		if !r.Ok() {
			panic(fmt.Sprintf("core: ipmon_register failed in replica %d: %v", idx, r.Errno))
		}
	}

	prog(env)
	if !t.Exited() {
		env.Exit(0)
	}
}

// spawnThread creates the replica-local kernel thread for a logical
// thread spawn, assigning the same ltid in every replica (spawn order is
// serialised by the record/replay agent).
func (m *MVEE) spawnThread(idx int, parent *libc.Env, fn libc.Program) *libc.ThreadHandle {
	m.mu.Lock()
	m.nextLtid[idx]++
	ltid := m.nextLtid[idx]
	m.mu.Unlock()

	t := parent.T.Proc.NewThread(parent.T)
	t.Clock.Advance(model.CostThreadSpawn)
	m.registerThread(t, ltid)
	env := parent.ChildEnv(t, ltid)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil && r != libc.ErrKilled {
				panic(r)
			}
			if !t.Exited() {
				m.flushIPMon(idx, t)
				t.ExitThread(0)
			}
		}()
		fn(env)
	}()
	return libc.NewThreadHandle(&wg)
}

// report collects the run's outcome.
func (m *MVEE) report(startCalls uint64) *Report {
	rep := &Report{
		Mode:     m.Cfg.Mode,
		Replicas: m.Cfg.Replicas,
		Policy:   m.Cfg.Policy,
		Syscalls: m.Kernel.UserSyscalls() - startCalls,
	}
	m.mu.Lock()
	var maxT model.Duration
	for _, t := range m.threads {
		if now := t.Clock.Now(); now > maxT {
			maxT = now
		}
	}
	base := m.baseTime
	m.mu.Unlock()
	rep.Duration = maxT - base
	if m.Monitor != nil {
		rep.Verdict = m.Monitor.Verdict()
		rep.Monitor = m.Monitor.Stats()
	}
	if m.Broker != nil {
		rep.Broker = m.Broker.Stats()
	}
	for _, ip := range m.IPMons {
		rep.IPMon = append(rep.IPMon, ip.Stats())
	}
	if buf := m.rbuf.Load(); buf != nil {
		rep.RB = buf.Stats()
	}
	return rep
}

// MigrateRB re-randomises the replication buffer's virtual address in
// every replica — the extension §4 sketches: "we could extend IK-B to
// periodically move the RB to a different virtual address by modifying
// the replicas' page table entries. This would further decrease the
// chances of a successful guessing attack."
//
// The segment (and therefore all buffered entries, cursors and futex
// keys, which are segment-relative) is untouched; only the per-replica
// mapping address changes. Because the futex table keys shared memory by
// (segment, offset), parked waiters survive the move.
//
// Call it at a quiescent point — between Run invocations, or from a
// monitor-side maintenance hook — not while replica threads are inside
// IP-MON (the real system would perform the swap during a global ptrace
// stop).
func (m *MVEE) MigrateRB() error {
	buf := m.rbuf.Load()
	if m.Cfg.Mode != ModeReMon || buf == nil {
		return fmt.Errorf("core: MigrateRB requires an active ReMon instance")
	}
	seg := buf.Segment()
	for i, p := range m.procs {
		old := m.rbBases[i]
		reg, err := p.Mem.MapShared(seg, mem.ProtRead|mem.ProtWrite, "rb")
		if err != nil {
			return fmt.Errorf("core: remapping RB in replica %d: %v", i, err)
		}
		if err := p.Mem.Unmap(old); err != nil {
			return fmt.Errorf("core: unmapping old RB in replica %d: %v", i, err)
		}
		m.rbBases[i] = reg.Start
		m.IPMons[i].MigrateRB(reg.Start)
		m.Broker.UpdateRBBase(p, reg.Start)
	}
	return nil
}

// Shutdown tears a running MVEE down administratively: the fleet layer's
// shard retirement path (drain complete, rolling restart, fleet
// shutdown). The monitor is stopped first so the teardown's own replica
// crashes are not mistaken for divergence; then every replica thread is
// killed, which unwinds a Run in progress (its replica goroutines observe
// the dead threads at their next syscall and bail). Wait for Run to
// return, then Close. Idempotent; a no-op on divergence-terminated sets
// (their threads are already dead).
func (m *MVEE) Shutdown(reason string) {
	if m.Monitor != nil {
		m.Monitor.Stop(reason)
		return // Stop crashes all replica threads itself
	}
	for _, p := range m.procs {
		for _, t := range p.Threads() {
			t.Crash("mvee shutdown: " + reason)
		}
	}
}

// Close releases pooled resources — today the replication buffer's
// backing segment, which returns to the mem arena for the next MVEE.
// Call it only after the final Run has returned (no replica thread may
// touch the RB afterwards); the MVEE must not be used again. Pair every
// New with a Close: an unclosed MVEE's segment never returns to the
// arena, so a loop of New+Run without Close allocates a fresh segment
// per instance.
func (m *MVEE) Close() {
	if buf := m.rbuf.Swap(nil); buf != nil {
		m.Kernel.ReleaseShm(buf.Segment().ID)
	}
}

// Procs exposes the replica processes (attack harnesses need them).
func (m *MVEE) Procs() []*vkernel.Process {
	return append([]*vkernel.Process(nil), m.procs...)
}

// RBBases exposes the per-replica RB mapping addresses (attack harnesses
// probe for leaks of these).
func (m *MVEE) RBBases() []mem.Addr {
	return append([]mem.Addr(nil), m.rbBases...)
}

// RunProgram is the one-call convenience: build an MVEE with cfg, run
// prog and release the MVEE's pooled resources.
func RunProgram(cfg Config, prog libc.Program) (*Report, error) {
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	rep := m.Run(prog)
	m.Close()
	return rep, nil
}

// NativeThread creates an unmonitored process + thread + Env on an
// existing kernel — used for benchmark clients that drive a monitored
// server over the simulated network.
func NativeThread(k *vkernel.Kernel, name string, seed uint64) *libc.Env {
	p := k.NewProcess(name, seed, 9) // disjoint slot away from replicas
	t := p.NewThread(nil)
	return libc.NewEnv(t, 0, nil)
}

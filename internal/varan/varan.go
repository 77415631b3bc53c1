// Package varan implements an in-process, reliability-oriented MVEE
// baseline in the spirit of VARAN (Hosek & Cadar, ASPLOS'15) as described
// in the paper's §2 and Figure 1(b): every system call — sensitive or not
// — is replicated through a shared buffer by in-process agents; the master
// runs ahead of the slaves under loose synchronisation; there is no
// ptrace, no lockstep, no kernel broker and no authorization token.
//
// It exists for Table 2: the same workloads run under VARAN-style
// monitoring, GHUMVEE-style lockstep and ReMon, measured on the same
// simulated substrate. Its security shortcomings relative to ReMon — the
// master executes *sensitive* calls before any slave checks them, and the
// replication buffer is only protected by ASLR — are exactly the points
// §6 makes, and the attack suite demonstrates them.
package varan

import (
	"fmt"
	"sync"

	"remon/internal/fdmap"
	"remon/internal/ipmon"
	"remon/internal/libc"
	"remon/internal/mem"
	"remon/internal/model"
	"remon/internal/rb"
	"remon/internal/rr"
	"remon/internal/sysdesc"
	"remon/internal/vkernel"
	"remon/internal/vnet"
)

// Config parameterises a VARAN instance.
type Config struct {
	Replicas int
	// RingSize is the shared buffer size (VARAN uses shared ring
	// buffers; the linear-with-reset buffer stands in, self-arbitrated).
	RingSize   uint64
	Partitions int
	Seed       uint64
	Kernel     *vkernel.Kernel
	Network    *vnet.Network
}

// Stats counts agent activity.
type Stats struct {
	Replicated  uint64 // calls flowed through the ring
	LocalCalls  uint64 // process-local calls executed per replica
	Divergences uint64 // loose consistency violations observed
}

// Report summarises one run.
type Report struct {
	Duration model.Duration
	Syscalls uint64
	Diverged bool
	Stats    Stats
}

// selfArbiter resets a drained partition without any external monitor —
// the in-process design has no GHUMVEE to arbitrate (§3.2 contrast).
type selfArbiter struct{}

func (selfArbiter) ResetPartition(b *rb.Buffer, part int) {
	b.WaitDrained(part, nil)
	b.DoReset(part)
}

// MVEE is a VARAN-style replica set.
type MVEE struct {
	Cfg    Config
	Kernel *vkernel.Kernel

	procs  []*vkernel.Process
	buf    *rb.Buffer
	bases  []mem.Addr
	shadow *fdmap.EpollShadow
	rrLog  *rr.Log
	agents []*rr.Agent

	mu       sync.Mutex
	ltids    map[*vkernel.Thread]int
	nextLtid []int
	threads  []*vkernel.Thread
	writers  map[int]*masterCursor
	readers  map[[2]int]*rb.Reader // (replica, ltid)
	diverged bool
	stats    Stats
}

// masterCursor is the master's per-logical-thread publish state: the RB
// writer plus a reusable gather scratch buffer (one goroutine owns each
// ltid, so no locking).
type masterCursor struct {
	w       *rb.Writer
	scratch []byte
}

// New constructs the baseline MVEE.
func New(cfg Config) (*MVEE, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.RingSize == 0 {
		cfg.RingSize = 16 << 20
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x7A7A1
	}
	k := cfg.Kernel
	if k == nil {
		k = vkernel.New(cfg.Network)
	}
	m := &MVEE{
		Cfg:      cfg,
		Kernel:   k,
		ltids:    map[*vkernel.Thread]int{},
		nextLtid: make([]int, cfg.Replicas),
		writers:  map[int]*masterCursor{},
		readers:  map[[2]int]*rb.Reader{},
		shadow:   fdmap.NewEpollShadow(cfg.Replicas),
	}
	for i := 0; i < cfg.Replicas; i++ {
		p := k.NewProcess(fmt.Sprintf("varan-%d", i), cfg.Seed+uint64(i)*0x77, i)
		p.ReplicaIndex = i
		m.procs = append(m.procs, p)
	}
	// Shared ring setup: plain shm, ASLR-protected only (§6's critique).
	t0 := m.procs[0].NewThread(nil)
	r := t0.RawSyscall(vkernel.SysShmget, 0, cfg.RingSize, 0)
	if !r.Ok() {
		return nil, fmt.Errorf("varan: shmget: %v", r.Errno)
	}
	seg := k.ShmSegment(int(r.Val))
	for _, p := range m.procs {
		reg, err := p.Mem.MapShared(seg, mem.ProtRead|mem.ProtWrite, "varan-ring")
		if err != nil {
			return nil, err
		}
		m.bases = append(m.bases, reg.Start)
	}
	t0.ExitThread(0)
	buf, err := rb.New(seg, cfg.Replicas, cfg.Partitions, selfArbiter{})
	if err != nil {
		return nil, err
	}
	m.buf = buf
	k.SetInterceptor(m)
	return m, nil
}

func (m *MVEE) replicaOf(p *vkernel.Process) int {
	for i, rp := range m.procs {
		if rp == p {
			return i
		}
	}
	return -1
}

func (m *MVEE) ltidOf(t *vkernel.Thread) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ltids[t]
}

func (m *MVEE) writer(ltid int, base mem.Addr) *masterCursor {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.writers[ltid]
	if !ok {
		w = &masterCursor{w: m.buf.NewWriter(ltid%m.buf.Partitions(), base)}
		m.writers[ltid] = w
	}
	return w
}

func (m *MVEE) reader(replica, ltid int, base mem.Addr) *rb.Reader {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := [2]int{replica, ltid}
	r, ok := m.readers[key]
	if !ok {
		r = m.buf.NewReader(ltid%m.buf.Partitions(), replica, base)
		m.readers[key] = r
	}
	return r
}

// Intercept implements vkernel.Interceptor: the in-process replication
// agent. Note what is *missing* relative to ReMon: no policy check, no
// lockstep for sensitive calls, no token, no argument deep-comparison
// before the master's call executes.
func (m *MVEE) Intercept(t *vkernel.Thread, c *vkernel.Call, exec func(*vkernel.Call) vkernel.Result) vkernel.Result {
	idx := m.replicaOf(t.Proc)
	if idx < 0 {
		return exec(c)
	}
	d := sysdesc.Lookup(c.Num)
	// Rewritten-syscall trampoline cost (VARAN rewrites syscall
	// instructions into jumps to its agents).
	t.Clock.Advance(model.CostTokenCheck)

	if d != nil && d.Exec == sysdesc.AllReplicas {
		m.mu.Lock()
		m.stats.LocalCalls++
		m.mu.Unlock()
		return exec(c)
	}

	ltid := m.ltidOf(t)
	if c.Num == vkernel.SysEpollCtl {
		ipmon.RegisterEpollCookie(m.shadow, idx, t, c)
	}
	if idx == 0 {
		// Master: log, execute, publish — and run ahead. Payloads gather
		// into the cursor's reusable scratch (Reserve deep-copies the
		// input into the ring before the scratch is reused for output).
		cur := m.writer(ltid, m.bases[0])
		in := ipmon.PayloadIn(t, c, cur.scratch[:0])
		if in != nil {
			cur.scratch = in
		}
		outCap := ipmon.PayloadOutCap(c)
		res, err := cur.w.Reserve(t, c, rb.FlagMasterCall, in, outCap)
		if err != nil {
			// Oversized: execute unreplicated (the reliability-oriented
			// design tolerates small discrepancies).
			return exec(c)
		}
		r := exec(c)
		var errno vkernel.Errno
		if !r.Ok() {
			errno = r.Errno
		}
		out := ipmon.PayloadOut(t, c, r, m.shadow, 0, cur.scratch[:0])
		if out != nil {
			cur.scratch = out
		}
		res.Complete(t, r.Val, errno, out)
		m.mu.Lock()
		m.stats.Replicated++
		m.mu.Unlock()
		return r
	}
	// Slave: loose consistency check (call number only — VARAN "can even
	// allow small discrepancies", §6) and result consumption.
	ev, err := m.reader(idx, ltid, m.bases[idx]).Next(t)
	if err != nil || ev.Nr != c.Num {
		m.mu.Lock()
		m.stats.Divergences++
		m.diverged = true
		m.mu.Unlock()
		return vkernel.Result{Errno: vkernel.EPERM}
	}
	ret, errno, out := ev.WaitResults(t)
	r := vkernel.Result{Val: ret, Errno: errno}
	if r.Ok() {
		ipmon.ApplyPayloadOut(t, c, out, r, m.shadow, idx)
	}
	ev.Consume()
	return r
}

// Run executes prog in every replica.
func (m *MVEE) Run(prog libc.Program) *Report {
	m.rrLog = rr.NewLog()
	m.agents = nil
	for i := range m.procs {
		m.agents = append(m.agents, rr.NewAgent(m.rrLog, i == 0))
	}
	start := m.Kernel.UserSyscalls()
	var wg sync.WaitGroup
	for i := range m.procs {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			m.runReplica(idx, prog)
		}(i)
	}
	wg.Wait()
	m.rrLog.Close()

	rep := &Report{Syscalls: m.Kernel.UserSyscalls() - start}
	m.mu.Lock()
	for _, t := range m.threads {
		if now := t.Clock.Now(); now > rep.Duration {
			rep.Duration = now
		}
	}
	rep.Diverged = m.diverged
	rep.Stats = m.stats
	m.mu.Unlock()
	return rep
}

// Close returns the ring's backing segment to the mem arena. Call only
// after the final Run returned; the MVEE must not be used again.
func (m *MVEE) Close() {
	if m.buf != nil {
		m.Kernel.ReleaseShm(m.buf.Segment().ID)
		m.buf = nil
	}
}

func (m *MVEE) register(t *vkernel.Thread, ltid int) {
	m.mu.Lock()
	m.ltids[t] = ltid
	m.threads = append(m.threads, t)
	m.mu.Unlock()
}

func (m *MVEE) runReplica(idx int, prog libc.Program) {
	p := m.procs[idx]
	t := p.NewThread(nil)
	m.register(t, 0)
	hooks := &libc.Hooks{Agent: m.agents[idx]}
	hooks.Spawn = func(parent *libc.Env, fn libc.Program) *libc.ThreadHandle {
		m.mu.Lock()
		m.nextLtid[idx]++
		ltid := m.nextLtid[idx]
		m.mu.Unlock()
		nt := parent.T.Proc.NewThread(parent.T)
		nt.Clock.Advance(model.CostThreadSpawn)
		m.register(nt, ltid)
		env := parent.ChildEnv(nt, ltid)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil && r != libc.ErrKilled {
					panic(r)
				}
				if !nt.Exited() {
					nt.ExitThread(0)
				}
			}()
			fn(env)
		}()
		return libc.NewThreadHandle(&wg)
	}
	env := libc.NewEnv(t, 0, hooks)
	defer func() {
		if r := recover(); r != nil && r != libc.ErrKilled {
			panic(r)
		}
		if !t.Exited() {
			t.ExitThread(0)
		}
	}()
	prog(env)
	if !t.Exited() {
		env.Exit(0)
	}
}

// Package ghumvee implements the cross-process (CP) monitor of ReMon: a
// ptrace-style lockstep monitor in the GHUMVEE lineage (§2, §3). It
// supervises N diversified replicas, suspends them at monitored system
// call entries, deep-compares their arguments, lets only the master
// perform externally visible calls, replicates results to the slaves,
// defers asynchronous signals to equivalent states, rejects bidirectional
// shared memory, and arbitrates IP-MON's replication buffer resets.
//
// GHUMVEE can run standalone (every call monitored — the "no IP-MON"
// baseline of Figures 3–5) or as ReMon's CP half behind IK-B.
//
// The rendezvous engine (DESIGN.md §7) is a lock-free arrival ring per
// logical-thread group: replicas publish arrivals through the internal/mem
// atomic word API, the last arrival closes the round and acts as the
// monitor, waiters spin briefly and then park on per-slot channels that
// are woken individually (no broadcast herd), and each group re-arms one
// pooled watchdog timer instead of allocating a fresh one per call.
package ghumvee

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"remon/internal/fdmap"
	"remon/internal/mem"
	"remon/internal/model"
	"remon/internal/rb"
	"remon/internal/sysdesc"
	"remon/internal/vkernel"
)

// DefaultLockstepTimeout is the rendezvous watchdog default: if a
// lockstep group stays incomplete this long (host wall-clock) the replica
// set is declared desynchronised. It must comfortably exceed any
// legitimate blocking wait in the benchmarks. The timeout is per-monitor
// state (SetLockstepTimeout) — concurrent MVEEs, as a fleet creates, can
// run different watchdogs without racing on a package global.
const DefaultLockstepTimeout = 10 * time.Second

// Replica is one supervised variant.
type Replica struct {
	Index int
	Proc  *vkernel.Process
}

// Verdict describes how a run ended from the monitor's point of view.
type Verdict struct {
	Diverged bool
	Reason   string
	// Syscall is the call at which divergence was detected (if any).
	Syscall string
}

// Stats counts monitor activity.
type Stats struct {
	MonitoredCalls  uint64 // lockstep rendezvous performed
	MasterCalls     uint64 // calls executed by master only
	AllReplicaCalls uint64 // calls executed by every replica
	PtraceStops     uint64 // tracer stops charged
	BytesCompared   uint64 // cross-process argument bytes compared
	BytesReplicated uint64 // cross-process result bytes copied
	SignalsDeferred uint64
	ShmRejected     uint64
	RBResets        uint64
	Divergences     uint64
	// Wakeups counts targeted waiter wakes issued by round monitors (the
	// engine suppresses wakes for waiters still spinning).
	Wakeups uint64
}

// Emit reports the snapshot as (metric, value) pairs under the
// telemetry naming convention ("_total" marks cumulative counters).
// Plain func signature so this package never imports the registry.
func (s Stats) Emit(emit func(name string, v uint64)) {
	emit("monitored_calls_total", s.MonitoredCalls)
	emit("master_calls_total", s.MasterCalls)
	emit("all_replica_calls_total", s.AllReplicaCalls)
	emit("ptrace_stops_total", s.PtraceStops)
	emit("bytes_compared_total", s.BytesCompared)
	emit("bytes_replicated_total", s.BytesReplicated)
	emit("signals_deferred_total", s.SignalsDeferred)
	emit("shm_rejected_total", s.ShmRejected)
	emit("rb_resets_total", s.RBResets)
	emit("divergences_total", s.Divergences)
	emit("wakeups_total", s.Wakeups)
}

// atomicStats is the hot-path counter block; Stats() snapshots it.
type atomicStats struct {
	monitoredCalls  atomic.Uint64
	masterCalls     atomic.Uint64
	allReplicaCalls atomic.Uint64
	ptraceStops     atomic.Uint64
	bytesCompared   atomic.Uint64
	bytesReplicated atomic.Uint64
	signalsDeferred atomic.Uint64
	shmRejected     atomic.Uint64
	rbResets        atomic.Uint64
	divergences     atomic.Uint64
	wakeups         atomic.Uint64
}

// Monitor is the CP monitor instance for one replica set.
type Monitor struct {
	Kernel *vkernel.Kernel

	// Immutable after New: the replica set and the process index. Hot
	// paths read them without locks.
	replicas []*Replica
	byProc   map[*vkernel.Process]*Replica

	ltids  sync.Map // *vkernel.Thread -> *ring (the thread's lockstep group)
	groups sync.Map // ltid int -> *ring

	fileMap *fdmap.FileMap
	shadow  *fdmap.EpollShadow

	// Hot-path state: halted flags, watchdog duration and the abort
	// channel waiters select on.
	diverged  atomic.Bool
	stopped   atomic.Bool
	lockstep  atomic.Int64 // rendezvous watchdog, ns
	abort     chan struct{}
	abortOnce sync.Once

	at       atomicStats
	pendingN atomic.Int32 // len(pending) mirror for the fast path

	mu        sync.Mutex // cold state below
	rbuf      *rb.Buffer
	allowShm  bool // raised while GHUMVEE itself arbitrates RB setup (§3.5)
	verdict   Verdict
	onVerdict func(Verdict)
	pending   []int // deferred signals (§2.2, §3.8)
}

// New creates a monitor supervising the given replica processes
// (replicas[0] is the master).
func New(k *vkernel.Kernel, procs []*vkernel.Process) *Monitor {
	m := &Monitor{
		Kernel:  k,
		byProc:  map[*vkernel.Process]*Replica{},
		fileMap: fdmap.New(mem.NewSharedSegment(-1, fdmap.MapSize)),
		shadow:  fdmap.NewEpollShadow(len(procs)),
		abort:   make(chan struct{}),
	}
	m.lockstep.Store(int64(DefaultLockstepTimeout))
	for i, p := range procs {
		r := &Replica{Index: i, Proc: p}
		p.ReplicaIndex = i
		m.replicas = append(m.replicas, r)
		m.byProc[p] = r
		p.SetSignalGate(m.gateSignal)
	}
	k.AddExitHandler(m)
	return m
}

// FileMap exposes the monitor-maintained descriptor metadata (§3.6).
func (m *Monitor) FileMap() *fdmap.FileMap { return m.fileMap }

// EpollShadow exposes the fd<->cookie translation table (§3.9).
func (m *Monitor) EpollShadow() *fdmap.EpollShadow { return m.shadow }

// AttachRB wires the replication buffer so the monitor can arbitrate
// resets and raise the signals-pending flag (§3.2, §3.8).
func (m *Monitor) AttachRB(b *rb.Buffer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rbuf = b
}

// SetAllowShm temporarily permits shared-memory calls (GHUMVEE arbitrates
// the RB and file-map setup itself, §3.5).
func (m *Monitor) SetAllowShm(v bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.allowShm = v
}

// RegisterThread binds a replica thread to its logical thread id. Threads
// with equal ltids across replicas form one lockstep group; the ring is
// resolved here once so the lockstep fast path needs a single map load.
func (m *Monitor) RegisterThread(t *vkernel.Thread, ltid int) {
	m.ltids.Store(t, m.group(ltid))
}

// Stats returns a snapshot of the counters.
func (m *Monitor) Stats() Stats {
	return Stats{
		MonitoredCalls:  m.at.monitoredCalls.Load(),
		MasterCalls:     m.at.masterCalls.Load(),
		AllReplicaCalls: m.at.allReplicaCalls.Load(),
		PtraceStops:     m.at.ptraceStops.Load(),
		BytesCompared:   m.at.bytesCompared.Load(),
		BytesReplicated: m.at.bytesReplicated.Load(),
		SignalsDeferred: m.at.signalsDeferred.Load(),
		ShmRejected:     m.at.shmRejected.Load(),
		RBResets:        m.at.rbResets.Load(),
		Divergences:     m.at.divergences.Load(),
		Wakeups:         m.at.wakeups.Load(),
	}
}

// Verdict returns the current verdict.
func (m *Monitor) Verdict() Verdict {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.verdict
}

// Diverged reports whether divergence was detected.
func (m *Monitor) Diverged() bool {
	return m.diverged.Load()
}

// SetLockstepTimeout adjusts this monitor's rendezvous watchdog (0 is
// ignored; the default stays).
func (m *Monitor) SetLockstepTimeout(d time.Duration) {
	if d <= 0 {
		return
	}
	m.lockstep.Store(int64(d))
}

// LockstepTimeout reports the monitor's rendezvous watchdog.
func (m *Monitor) LockstepTimeout() time.Duration {
	return time.Duration(m.lockstep.Load())
}

// SetVerdictHandler registers a callback fired exactly once, when (and
// if) the monitor declares divergence. Fleet supervisors hang their
// quarantine path off it. The callback runs on the declaring goroutine
// after the replica set has been torn down; it must not call back into
// the monitor's lockstep machinery.
func (m *Monitor) SetVerdictHandler(fn func(Verdict)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onVerdict = fn
}

// halted reports whether lockstep processing should bail out — either a
// divergence verdict or an administrative Stop.
func (m *Monitor) halted() bool {
	return m.diverged.Load() || m.stopped.Load()
}

// signalAbort wakes every parked rendezvous waiter, exactly once, and
// disarms every group's watchdog: a round the teardown interrupted never
// completes, and its pending timer would keep the whole replica set
// reachable until the lockstep timeout fires. A waiter that arms after
// this sweep disarms itself (armWatchdog).
func (m *Monitor) signalAbort() {
	m.abortOnce.Do(func() {
		close(m.abort)
		m.groups.Range(func(_, g any) bool {
			g.(*ring).timer.Stop()
			return true
		})
	})
}

// Stop tears the replica set down administratively — the fleet layer's
// shard retirement path (drain complete, rolling restart, fleet
// shutdown). The reason lands in the thread crash records so a retired
// shard's post-mortem shows why. Unlike declareDivergence it records no
// verdict: replica crashes triggered by the teardown are expected, not
// an attack signal. Idempotent; safe concurrently with running replicas.
func (m *Monitor) Stop(reason string) {
	if reason == "" {
		reason = "administrative teardown"
	}
	m.mu.Lock()
	if m.stopped.Load() || m.diverged.Load() {
		m.mu.Unlock()
		return
	}
	m.stopped.Store(true)
	m.mu.Unlock()

	m.signalAbort()
	for _, r := range m.replicas {
		for _, t := range r.Proc.Threads() {
			t.Crash("mvee stop: " + reason)
		}
	}
}

// Stopped reports whether Stop was called.
func (m *Monitor) Stopped() bool { return m.stopped.Load() }

// group returns (creating on first use) the arrival ring for ltid.
func (m *Monitor) group(ltid int) *ring {
	if v, ok := m.groups.Load(ltid); ok {
		return v.(*ring)
	}
	g := newRing(m, len(m.replicas))
	if v, loaded := m.groups.LoadOrStore(ltid, g); loaded {
		g.timer.Stop()
		return v.(*ring)
	}
	return g
}

// replicaOf resolves the replica a thread belongs to.
func (m *Monitor) replicaOf(t *vkernel.Thread) *Replica {
	return m.byProc[t.Proc]
}

// ringOf resolves a thread's arrival ring (unregistered threads join
// group 0, matching the old engine's default ltid).
func (m *Monitor) ringOf(t *vkernel.Thread) *ring {
	if v, ok := m.ltids.Load(t); ok {
		return v.(*ring)
	}
	return m.group(0)
}

// MonitorCall is the lockstep path: every replica's thread for the same
// logical call arrives here; the last arrival acts as the monitor.
func (m *Monitor) MonitorCall(t *vkernel.Thread, c *vkernel.Call, exec func(*vkernel.Call) vkernel.Result) vkernel.Result {
	if m.halted() {
		return vkernel.Result{Errno: vkernel.EPERM}
	}
	rep := m.byProc[t.Proc]
	if rep == nil {
		// Not a supervised process (monitor used standalone on a foreign
		// thread): execute directly.
		return exec(c)
	}

	// Syscall-entry ptrace stop (§2: tracer stops cost two context
	// switches each).
	t.Clock.Advance(model.CostPtraceStop)
	m.at.ptraceStops.Add(1)

	g := m.ringOf(t)
	slot := &g.slots[rep.Index]
	a := &slot.arr
	a.t, a.c, a.exec = t, c, exec
	a.runOwn = false
	a.result = vkernel.Result{}
	slot.seq++
	r := slot.seq
	// The AddU32 read-modify-write publishes the slot's plain writes to
	// whichever arrival ends up as this round's monitor.
	if int(g.seg.AddU32(ringCntOff, 1)) < g.n {
		// Wait for the rest of the lockstep group. A replica that never
		// shows up (it was hijacked into a different syscall sequence, or
		// wedged) trips the rendezvous watchdog, armed by the first
		// waiter that outlives its spin budget — real GHUMVEE uses the
		// same timeout-based desynchronisation detection.
		if !g.awaitDone(m, slot, rep.Index, r) {
			return vkernel.Result{Errno: vkernel.EPERM}
		}
		result := a.result
		if a.runOwn {
			result = exec(c)
		}
		t.Clock.Advance(model.CostPtraceStop) // syscall-exit stop
		return result
	}

	// Last arrival: the round is closed (everyone showed up — the
	// watchdog stands down even if the master call blocks); act as the
	// monitor for this round.
	g.closed.Store(r)
	for i := range g.slots {
		g.collect[i] = &g.slots[i].arr
	}
	m.monitorRound(g.collect)
	g.completeRound(m, r, rep.Index)

	// The monitor goroutine doubles as this replica's thread.
	result := a.result
	if a.runOwn {
		result = exec(c)
	}
	t.Clock.Advance(model.CostPtraceStop)
	return result
}

// monitorRound performs one lockstep round: clock sync, comparison,
// execution, replication, signal delivery. Every call is verified before
// it runs, so a divergent call never executes.
func (m *Monitor) monitorRound(arrivals []*arrival) {
	master := arrivals[0]
	c := master.c
	d := sysdesc.Lookup(c.Num)

	// Lockstep: all replicas stop until the monitor has seen all of them
	// — their clocks meet at the latest arrival, plus the monitor's
	// serialized handling of each replica's stop (one monitor process
	// services N tracees in turn).
	maxT := model.Duration(0)
	for _, a := range arrivals {
		if now := a.t.Clock.Now(); now > maxT {
			maxT = now
		}
	}
	maxT += model.Duration(len(arrivals)) * model.CostMonitorDispatch
	for _, a := range arrivals {
		a.t.Clock.SyncTo(maxT)
	}

	m.at.monitoredCalls.Add(1)

	// Syscall-number equivalence comes first: comparing a slave's
	// arguments under the master's descriptor would read the wrong memory.
	for _, a := range arrivals[1:] {
		if a.c.Num != master.c.Num {
			m.declareDivergence(c, fmt.Sprintf("replica %d invoked %s, master invoked %s",
				m.replicaOf(a.t).Index, vkernel.SyscallName(a.c.Num), vkernel.SyscallName(master.c.Num)))
			failRound(arrivals)
			return
		}
	}

	if err := m.compareArgs(arrivals, d); err != nil {
		m.declareDivergence(c, err.Error())
		failRound(arrivals)
		return
	}

	// Policy interventions the CP monitor owns regardless of level.
	if d != nil && d.Special == sysdesc.SpecShm && !m.shmAllowed() {
		// §2.1: reject shared memory that could form unmonitored
		// bidirectional channels.
		m.at.shmRejected.Add(1)
		failRound(arrivals)
		return
	}

	if d != nil && d.Exec == sysdesc.AllReplicas {
		m.at.allReplicaCalls.Add(1)
		for _, a := range arrivals {
			a.runOwn = true
		}
		m.deliverDeferredSignals()
		return
	}

	// Master-call: execute in the master, replicate to slaves.
	m.at.masterCalls.Add(1)

	if d != nil && d.Special == sysdesc.SpecEpollCtl {
		m.recordEpollCookies(arrivals)
	}

	res := master.exec(c)
	for _, a := range arrivals {
		a.result = res
	}

	// Slaves' clocks ride the master's completion (lockstep: nobody
	// proceeds before the monitor resumes them).
	done := master.t.Clock.Now()
	for _, a := range arrivals[1:] {
		a.t.Clock.SyncTo(done)
	}

	if res.Ok() {
		m.replicateResults(arrivals, d, res)
		m.trackFDs(master, d, res)
	}
	m.deliverDeferredSignals()
}

// failRound marks every arrival rejected (EPERM).
func failRound(arrivals []*arrival) {
	for _, a := range arrivals {
		a.result = vkernel.Result{Errno: vkernel.EPERM}
	}
}

func (m *Monitor) shmAllowed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.allowShm
}

// compareArgs deep-compares the replicas' call arguments (the monitor's
// equivalence check; §1 "checking their arguments for equivalence").
func (m *Monitor) compareArgs(arrivals []*arrival, d *sysdesc.Desc) error {
	master := arrivals[0]
	if d == nil {
		// Conservative: compare raw registers.
		for _, a := range arrivals[1:] {
			for i := 0; i < 6; i++ {
				if a.c.Args[i] != master.c.Args[i] {
					return fmt.Errorf("%s: raw arg%d mismatch", vkernel.SyscallName(master.c.Num), i)
				}
			}
		}
		return nil
	}
	for i := 0; i < d.NArgs; i++ {
		spec := d.Args[i]
		switch spec.Type {
		case sysdesc.ArgInt, sysdesc.ArgFD:
			for _, a := range arrivals[1:] {
				a.t.Clock.Advance(model.CostMonitorCompare)
				if a.c.Args[i] != master.c.Args[i] {
					return fmt.Errorf("%s: arg%d %d != master %d",
						d.Name, i, a.c.Args[i], master.c.Args[i])
				}
			}
		case sysdesc.ArgPtrOpaque, sysdesc.ArgOutBuf:
			// Diversified addresses: only NULL/non-NULL equivalence.
			for _, a := range arrivals[1:] {
				if (a.c.Args[i] == 0) != (master.c.Args[i] == 0) {
					return fmt.Errorf("%s: arg%d NULL-ness differs", d.Name, i)
				}
			}
		case sysdesc.ArgPath:
			ms, err := readCString(master.t.Proc.Mem, mem.Addr(master.c.Args[i]))
			if err != nil {
				return fmt.Errorf("%s: master path arg%d unreadable", d.Name, i)
			}
			for _, a := range arrivals[1:] {
				ss, err := readCString(a.t.Proc.Mem, mem.Addr(a.c.Args[i]))
				if err != nil {
					return fmt.Errorf("%s: replica path arg%d unreadable", d.Name, i)
				}
				m.chargeCompare(a.t, len(ms))
				if ss != ms {
					return fmt.Errorf("%s: path %q != master %q", d.Name, ss, ms)
				}
			}
		case sysdesc.ArgInBuf, sysdesc.ArgInOutBuf:
			size := d.InBufSize(i, master.c)
			if size == 0 || master.c.Args[i] == 0 {
				continue
			}
			// §3.9: epoll_event carries a replica-specific pointer cookie
			// in its data field; only the events mask is comparable.
			if d.Special == sysdesc.SpecEpollCtl && size > 8 {
				size = 8
			}
			mbuf, err := master.t.Proc.Mem.ReadBytes(mem.Addr(master.c.Args[i]), size)
			if err != nil {
				return fmt.Errorf("%s: master buffer arg%d unreadable", d.Name, i)
			}
			for _, a := range arrivals[1:] {
				sbuf, err := a.t.Proc.Mem.ReadBytes(mem.Addr(a.c.Args[i]), size)
				if err != nil {
					return fmt.Errorf("%s: replica buffer arg%d unreadable", d.Name, i)
				}
				m.chargeCompare(a.t, size)
				for j := range mbuf {
					if mbuf[j] != sbuf[j] {
						return fmt.Errorf("%s: buffer arg%d differs at byte %d", d.Name, i, j)
					}
				}
			}
		case sysdesc.ArgIovec:
			// Gather each replica's iovec contents and compare.
			mdata, err := gatherIovec(master.t, master.c, i, spec.LenArg)
			if err != nil {
				return err
			}
			for _, a := range arrivals[1:] {
				sdata, err := gatherIovec(a.t, a.c, i, spec.LenArg)
				if err != nil {
					return err
				}
				m.chargeCompare(a.t, len(mdata))
				if len(mdata) != len(sdata) {
					return fmt.Errorf("%s: iovec size differs", d.Name)
				}
				for j := range mdata {
					if mdata[j] != sdata[j] {
						return fmt.Errorf("%s: iovec content differs", d.Name)
					}
				}
			}
		}
	}
	return nil
}

func (m *Monitor) chargeCompare(t *vkernel.Thread, n int) {
	t.Clock.Advance(model.CrossCopyCost(n))
	m.at.bytesCompared.Add(uint64(n))
}

// replicateResults copies the master's output buffers into each slave's
// memory (process_vm_writev style) and translates epoll cookies.
func (m *Monitor) replicateResults(arrivals []*arrival, d *sysdesc.Desc, res vkernel.Result) {
	if d == nil {
		return
	}
	master := arrivals[0]
	if d.Special == sysdesc.SpecEpollWait {
		m.replicateEpollEvents(arrivals, res)
		return
	}
	for i := 0; i < d.NArgs; i++ {
		spec := d.Args[i]
		if spec.Type != sysdesc.ArgOutBuf && spec.Type != sysdesc.ArgInOutBuf {
			continue
		}
		if master.c.Args[i] == 0 {
			continue
		}
		var payload []byte
		if spec.Rule == sysdesc.SizeCString {
			s, err := readCString(master.t.Proc.Mem, mem.Addr(master.c.Args[i]))
			if err != nil {
				continue
			}
			payload = append([]byte(s), 0)
		} else {
			size := d.OutBufSize(i, master.c, res.Val, res.Ok())
			if size == 0 {
				continue
			}
			buf, err := master.t.Proc.Mem.ReadBytes(mem.Addr(master.c.Args[i]), size)
			if err != nil {
				continue
			}
			payload = buf
		}
		for _, a := range arrivals[1:] {
			if a.c.Args[i] == 0 {
				continue
			}
			if err := a.t.Proc.Mem.Write(mem.Addr(a.c.Args[i]), payload); err == nil {
				a.t.Clock.Advance(model.CrossCopyCost(len(payload)))
				m.at.bytesReplicated.Add(uint64(len(payload)))
			}
		}
	}
}

// trackFDs refreshes the file map after descriptor-changing calls (§3.6).
func (m *Monitor) trackFDs(master *arrival, d *sysdesc.Desc, res vkernel.Result) {
	if d == nil {
		return
	}
	proc := master.t.Proc
	switch {
	case d.FDClosing:
		m.fileMap.Clear(int(master.c.Args[0]))
	case d.FDCreating:
		fd := int(res.Val)
		// dup2/dup3 return the target fd; pipe writes two fds into memory.
		if d.Nr == vkernel.SysPipe || d.Nr == vkernel.SysPipe2 ||
			d.Nr == vkernel.SysSocketpair {
			// Read the fd pair from master memory.
			addrIdx := 0
			if d.Nr == vkernel.SysSocketpair {
				addrIdx = 3
			}
			raw, err := proc.Mem.ReadBytes(mem.Addr(master.c.Args[addrIdx]), 8)
			if err != nil {
				return
			}
			fd1 := int(uint32(raw[0]) | uint32(raw[1])<<8 | uint32(raw[2])<<16 | uint32(raw[3])<<24)
			fd2 := int(uint32(raw[4]) | uint32(raw[5])<<8 | uint32(raw[6])<<16 | uint32(raw[7])<<24)
			m.recordFD(proc, fd1)
			m.recordFD(proc, fd2)
			return
		}
		m.recordFD(proc, fd)
	case d.Nr == vkernel.SysFcntl && master.c.Args[1] == vkernel.FSetFL:
		typ, _, open := m.fileMap.Lookup(int(master.c.Args[0]))
		if open {
			m.fileMap.Set(int(master.c.Args[0]), typ, master.c.Args[2]&vkernel.ONonblock != 0)
		}
	case d.Nr == vkernel.SysIoctl && master.c.Args[1] == vkernel.FIONBIO:
		typ, _, open := m.fileMap.Lookup(int(master.c.Args[0]))
		if open {
			m.fileMap.Set(int(master.c.Args[0]), typ, master.c.Args[2] != 0)
		}
	case d.Nr == vkernel.SysListen:
		// The socket became a listener; type byte stays "socket".
		m.recordFD(proc, int(master.c.Args[0]))
	}
}

func (m *Monitor) recordFD(proc *vkernel.Process, fd int) {
	f, errno := proc.FDs().Get(fd)
	if errno != vkernel.OK {
		return
	}
	special := f.Kind == vkernel.FDSpecial
	m.fileMap.Set(fd, fdmap.TypeFromKind(f.Kind, special), f.Nonblock())
}

// recordEpollCookies reads each replica's epoll_event struct and registers
// the fd<->cookie pair in the shadow map (§3.9).
func (m *Monitor) recordEpollCookies(arrivals []*arrival) {
	for _, a := range arrivals {
		rep := m.replicaOf(a.t)
		op := int(a.c.Args[1])
		fd := int(a.c.Args[2])
		switch op {
		case vkernel.EpollCtlAdd, vkernel.EpollCtlMod:
			raw, err := a.t.Proc.Mem.ReadBytes(mem.Addr(a.c.Args[3]), vkernel.EpollEventSize)
			if err != nil {
				continue
			}
			cookie := uint64(raw[8]) | uint64(raw[9])<<8 | uint64(raw[10])<<16 |
				uint64(raw[11])<<24 | uint64(raw[12])<<32 | uint64(raw[13])<<40 |
				uint64(raw[14])<<48 | uint64(raw[15])<<56
			m.shadow.Register(rep.Index, fd, cookie)
		case vkernel.EpollCtlDel:
			m.shadow.Unregister(rep.Index, fd)
		}
	}
}

// replicateEpollEvents translates the master's returned events for each
// slave: master cookie -> fd -> slave cookie (§3.9).
func (m *Monitor) replicateEpollEvents(arrivals []*arrival, res vkernel.Result) {
	master := arrivals[0]
	n := int(res.Val)
	if n <= 0 {
		return
	}
	raw, err := master.t.Proc.Mem.ReadBytes(mem.Addr(master.c.Args[1]), n*vkernel.EpollEventSize)
	if err != nil {
		return
	}
	for _, a := range arrivals[1:] {
		rep := m.replicaOf(a.t)
		out := make([]byte, len(raw))
		copy(out, raw)
		for e := 0; e < n; e++ {
			off := e*vkernel.EpollEventSize + 8
			cookie := uint64(raw[off]) | uint64(raw[off+1])<<8 | uint64(raw[off+2])<<16 |
				uint64(raw[off+3])<<24 | uint64(raw[off+4])<<32 | uint64(raw[off+5])<<40 |
				uint64(raw[off+6])<<48 | uint64(raw[off+7])<<56
			if fd, ok := m.shadow.FDForCookie(0, cookie); ok {
				if sc, ok := m.shadow.CookieForFD(rep.Index, fd); ok {
					out[off] = byte(sc)
					out[off+1] = byte(sc >> 8)
					out[off+2] = byte(sc >> 16)
					out[off+3] = byte(sc >> 24)
					out[off+4] = byte(sc >> 32)
					out[off+5] = byte(sc >> 40)
					out[off+6] = byte(sc >> 48)
					out[off+7] = byte(sc >> 56)
				}
			}
		}
		if err := a.t.Proc.Mem.Write(mem.Addr(a.c.Args[1]), out); err == nil {
			a.t.Clock.Advance(model.CrossCopyCost(len(out)))
			m.at.bytesReplicated.Add(uint64(len(out)))
		}
	}
}

// gateSignal is the kernel's signal delivery gate: the monitor discards
// the initial delivery and re-initiates it at the next equivalent state
// (§2.2). It also raises the RB signals-pending flag so a master running
// ahead through IP-MON re-enters monitored execution (§3.8).
func (m *Monitor) gateSignal(p *vkernel.Process, sig int) bool {
	rep := m.byProc[p]
	if rep == nil {
		return false
	}
	if rep.Index != 0 {
		// Outside-world signals target the master; a signal directed at a
		// slave is simply absorbed and re-delivered consistently.
		return true
	}
	m.mu.Lock()
	m.pending = append(m.pending, sig)
	m.pendingN.Store(int32(len(m.pending)))
	rbuf := m.rbuf
	m.mu.Unlock()
	m.at.signalsDeferred.Add(1)
	if rbuf != nil {
		rbuf.SetSignalsPending(true)
	}
	return true
}

// deliverDeferredSignals re-initiates deferred signals at a rendezvous —
// the point where all replicas rest in equivalent states.
func (m *Monitor) deliverDeferredSignals() {
	if m.pendingN.Load() == 0 {
		return
	}
	m.mu.Lock()
	if len(m.pending) == 0 {
		m.mu.Unlock()
		return
	}
	sigs := m.pending
	m.pending = nil
	m.pendingN.Store(0)
	rbuf := m.rbuf
	m.mu.Unlock()
	if rbuf != nil {
		rbuf.SetSignalsPending(false)
	}
	for _, sig := range sigs {
		for _, r := range m.replicas {
			r.Proc.QueueSignalDirect(sig)
		}
	}
}

// PendingSignals reports how many deferred signals await delivery.
func (m *Monitor) PendingSignals() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// declareDivergence records the verdict and tears the replica set down —
// "in case of divergence, execution is terminated to limit the effects of
// an attack" (§1).
func (m *Monitor) declareDivergence(c *vkernel.Call, reason string) {
	m.mu.Lock()
	if m.diverged.Load() || m.stopped.Load() {
		// Already handled — or an administrative Stop is tearing the set
		// down, in which case crashes are expected and not an attack.
		m.mu.Unlock()
		return
	}
	m.diverged.Store(true)
	m.at.divergences.Add(1)
	name := ""
	if c != nil {
		name = vkernel.SyscallName(c.Num)
	}
	m.verdict = Verdict{Diverged: true, Reason: reason, Syscall: name}
	verdict := m.verdict
	notify := m.onVerdict
	m.mu.Unlock()

	m.signalAbort()
	for _, r := range m.replicas {
		for _, t := range r.Proc.Threads() {
			t.Crash("mvee shutdown: " + reason)
		}
	}
	if notify != nil {
		notify(verdict)
	}
}

// ThreadExited implements vkernel.ExitHandler: an abnormal replica exit —
// including IP-MON's intentional crash on argument mismatch (§3.3) — is a
// divergence signal.
func (m *Monitor) ThreadExited(t *vkernel.Thread, code int, crashed bool) {
	if !crashed {
		return
	}
	rep := m.byProc[t.Proc]
	if rep == nil || m.diverged.Load() {
		return
	}
	m.declareDivergence(t.LastSyscall(), fmt.Sprintf("replica %d crashed (ptrace-stop SIGSEGV)", rep.Index))
}

// ApproveRegistration implements ikb.RegistrationApprover (§3.5):
// GHUMVEE may veto or shrink IP-MON's unmonitored-call set. The default
// policy accepts any mask from a healthy replica set.
func (m *Monitor) ApproveRegistration(p *vkernel.Process, mask *vkernel.SyscallMask) bool {
	return !m.halted()
}

// ResetPartition implements rb.Arbiter (§3.2): wait until every slave has
// drained the partition, then reset it. The wait is driven by the RB's
// drain notification, and teardown (divergence or administrative Stop)
// interrupts it through the monitor's abort channel — both signalAbort
// paths close it, so the old halted() polling is gone. Writers call it
// at every lag window.
func (m *Monitor) ResetPartition(b *rb.Buffer, part int) {
	b.WaitDrained(part, m.abort)
	b.DoReset(part)
	m.at.rbResets.Add(1)
}

// readCString reads a NUL-terminated string (max 4 KiB) from as.
func readCString(as *mem.AddressSpace, a mem.Addr) (string, error) {
	var out []byte
	var one [1]byte
	for len(out) < 4096 {
		if err := as.Read(a+mem.Addr(len(out)), one[:]); err != nil {
			return "", err
		}
		if one[0] == 0 {
			return string(out), nil
		}
		out = append(out, one[0])
	}
	return string(out), nil
}

// gatherIovec concatenates the buffer contents described by an iovec
// argument.
func gatherIovec(t *vkernel.Thread, c *vkernel.Call, argIdx, cntIdx int) ([]byte, error) {
	cnt := 1
	if cntIdx >= 0 {
		cnt = int(c.Args[cntIdx])
	}
	if cnt < 0 || cnt > 1024 {
		return nil, fmt.Errorf("ghumvee: iovec count %d out of range", cnt)
	}
	raw, err := t.Proc.Mem.ReadBytes(mem.Addr(c.Args[argIdx]), cnt*16)
	if err != nil {
		return nil, fmt.Errorf("ghumvee: iovec unreadable: %w", err)
	}
	var out []byte
	for i := 0; i < cnt; i++ {
		base := uint64(raw[i*16]) | uint64(raw[i*16+1])<<8 | uint64(raw[i*16+2])<<16 |
			uint64(raw[i*16+3])<<24 | uint64(raw[i*16+4])<<32 | uint64(raw[i*16+5])<<40 |
			uint64(raw[i*16+6])<<48 | uint64(raw[i*16+7])<<56
		length := uint64(raw[i*16+8]) | uint64(raw[i*16+9])<<8 | uint64(raw[i*16+10])<<16 |
			uint64(raw[i*16+11])<<24
		if length > 1<<22 {
			length = 1 << 22
		}
		buf, err := t.Proc.Mem.ReadBytes(mem.Addr(base), int(length))
		if err != nil {
			return nil, fmt.Errorf("ghumvee: iovec buffer unreadable: %w", err)
		}
		out = append(out, buf...)
	}
	return out, nil
}

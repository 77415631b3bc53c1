package vkernel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"remon/internal/mem"
	"remon/internal/model"
	"remon/internal/vfs"
	"remon/internal/vnet"
	"remon/internal/wait"
)

// Call is one in-flight system call.
type Call struct {
	Num  int
	Args [6]uint64
}

// Arg returns argument i (zero for out-of-range, like reading a garbage
// register).
func (c *Call) Arg(i int) uint64 {
	if i < 0 || i >= len(c.Args) {
		return 0
	}
	return c.Args[i]
}

func (c *Call) String() string {
	return fmt.Sprintf("%s(%#x, %#x, %#x)", SyscallName(c.Num), c.Args[0], c.Args[1], c.Args[2])
}

// Result is a completed system call's outcome.
type Result struct {
	Val   uint64
	Errno Errno
}

// Ret encodes the result the way user space sees it: the value on success,
// -errno on failure.
func (r Result) Ret() int64 {
	if r.Errno != 0 {
		return -int64(r.Errno)
	}
	return int64(r.Val)
}

// Ok reports success.
func (r Result) Ok() bool { return r.Errno == 0 }

// Interceptor is the syscall interposition hook. ReMon installs IK-B here;
// baselines install their own monitors or nothing. exec performs the raw
// kernel service for the (possibly modified) call. The interceptor runs on
// the calling thread's goroutine but may rendezvous with other threads —
// that is how lockstep monitoring is modelled.
type Interceptor interface {
	Intercept(t *Thread, c *Call, exec func(*Call) Result) Result
}

// ExitHandler observes thread exits (GHUMVEE uses this to detect replica
// crashes, which an IP-MON argument mismatch triggers intentionally, §3.3).
type ExitHandler interface {
	ThreadExited(t *Thread, code int, crashed bool)
}

// Hub is the readiness notification fan-out used by poll/select/epoll and
// blocking reads: any state change wakes every sleeper, and sleepers
// re-check their conditions. Simple and correct; the thundering herd is
// irrelevant at simulation scale.
type Hub struct {
	mu  sync.Mutex
	q   wait.Queue
	gen atomic.Uint64 // written under mu
}

// Notify wakes all sleepers.
func (h *Hub) Notify() {
	h.mu.Lock()
	h.gen.Add(1)
	h.q.WakeAll(0)
	h.mu.Unlock()
}

// Gen reports the current generation counter.
func (h *Hub) Gen() uint64 { return h.gen.Load() }

// WaitChange blocks until the generation moves past gen; vt is the
// sleeper's virtual time.
func (h *Hub) WaitChange(gen uint64, vt model.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.gen.Load() == gen {
		h.q.Park(&h.mu, "vkernel.ready", vt)
	}
}

// Kernel is the simulated operating system kernel.
type Kernel struct {
	FS  *vfs.FS
	Net *vnet.Network
	Hub *Hub

	mu      sync.Mutex
	procs   map[int]*Process
	nextPID int
	nextShm int
	shmSegs map[int]*mem.SharedSegment
	exitHs  []ExitHandler
	futex   *futexTable

	// intercept / traceFn are read on every user syscall; they are
	// published through atomics so the per-call fetch takes no lock.
	intercept atomic.Pointer[Interceptor]
	traceFn   atomic.Pointer[func(t *Thread, c *Call)]

	// randState is the lock-free kernel entropy pool (token minting):
	// an atomic splitmix64 counter, one RMW per draw instead of a
	// kernel-mutex round trip.
	randState atomic.Uint64

	userSyscalls atomic.Uint64
}

// SetTrace installs a callback observing every user-entry syscall (trace
// recording for debugging and the remon CLI's -trace flag). Pass nil to
// disable.
func (k *Kernel) SetTrace(fn func(t *Thread, c *Call)) {
	if fn == nil {
		k.traceFn.Store(nil)
		return
	}
	k.traceFn.Store(&fn)
}

// UserSyscalls reports the number of user-entry syscalls issued (the
// paper's "system call invocations"; monitor-internal RawSyscalls are not
// counted).
func (k *Kernel) UserSyscalls() uint64 { return k.userSyscalls.Load() }

// New creates a kernel with a fresh filesystem and the given network.
func New(net *vnet.Network) *Kernel {
	k := &Kernel{
		FS:      vfs.New(),
		Net:     net,
		Hub:     &Hub{},
		procs:   map[int]*Process{},
		nextPID: 1000,
		shmSegs: map[int]*mem.SharedSegment{},
		futex:   &futexTable{waiters: map[futexKey]*wait.Queue{}},
	}
	k.randState.Store(0xC0FFEE)
	if net != nil {
		net.SetNotifier(k.Hub)
	}
	return k
}

// SetInterceptor installs the syscall interposition hook (IK-B).
func (k *Kernel) SetInterceptor(i Interceptor) {
	if i == nil {
		k.intercept.Store(nil)
		return
	}
	k.intercept.Store(&i)
}

// AddExitHandler registers an exit observer.
func (k *Kernel) AddExitHandler(h ExitHandler) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.exitHs = append(k.exitHs, h)
}

// Rand returns a random 64-bit value from the kernel entropy pool (token
// minting): splitmix64 over an atomic counter — one uncontended RMW per
// draw, no kernel-mutex round trip on the per-call token path.
func (k *Kernel) Rand() uint64 {
	z := k.randState.Add(0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Process is one simulated process.
type Process struct {
	PID    int
	Name   string
	Kernel *Kernel
	Mem    *mem.AddressSpace

	mu       sync.Mutex
	fds      *FDTable
	threads  map[int]*Thread
	nextTID  int
	cwd      string
	exited   bool
	exitCode int
	crashed  bool

	sig signalState

	// ReplicaIndex is the replica number when this process is an MVEE
	// replica (master == 0); -1 otherwise. The broker and monitors use it.
	ReplicaIndex int
}

// NewProcess creates a process with a diversified address space.
func (k *Kernel) NewProcess(name string, layoutSeed uint64, disjointIdx int) *Process {
	k.mu.Lock()
	k.nextPID++
	pid := k.nextPID
	k.mu.Unlock()
	p := &Process{
		PID:          pid,
		Name:         name,
		Kernel:       k,
		Mem:          mem.NewAddressSpace(layoutSeed, disjointIdx),
		fds:          newFDTable(),
		threads:      map[int]*Thread{},
		cwd:          "/",
		ReplicaIndex: -1,
	}
	p.sig.init()
	// Map a code region at the diversified base so DCL is observable.
	layout := p.Mem.Layout()
	if _, err := p.Mem.MapFixed(layout.CodeBase, 16*mem.PageSize, mem.ProtRead|mem.ProtExec, "text"); err != nil {
		panic("vkernel: mapping text segment: " + err.Error())
	}
	k.mu.Lock()
	k.procs[pid] = p
	k.mu.Unlock()
	return p
}

// Proc looks up a process by pid.
func (k *Kernel) Proc(pid int) *Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.procs[pid]
}

// Exited reports whether the process has terminated, and how.
func (p *Process) Exited() (bool, int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exited, p.exitCode, p.crashed
}

// FDs exposes the process's descriptor table (monitors inspect it).
func (p *Process) FDs() *FDTable { return p.fds }

// Thread is one simulated thread: the unit of execution and virtual-time
// accounting. Replica program code runs with a *Thread in hand and issues
// syscalls through it.
type Thread struct {
	TID   int
	Proc  *Process
	Clock model.Clock

	mu       sync.Mutex
	exitCode int
	done     chan struct{} // closed at exit

	// Hot flags are lock-free: every syscall reads exited and flips
	// inIPMon twice, and the RB wait loops poll exited — taking t.mu for
	// each was several uncontended-but-real lock pairs per fast-path
	// call.
	exited atomic.Bool

	// inIPMon marks that the thread is currently executing inside the
	// IP-MON system call entry point; IK-B's verifier consults it (calls
	// re-entering the kernel with a token must originate from IP-MON).
	inIPMon atomic.Bool

	// ltid caches the thread's logical thread id (set once by the
	// orchestrator at registration) so monitors resolve it without a
	// shared map.
	ltid atomic.Int32

	// lastSyscall records the most recent call for tracer introspection
	// (GHUMVEE's signal logic checks whether a replica sits in an IP-MON
	// dispatched call, §3.8).
	lastSyscall atomic.Pointer[Call]

	// ipmonToken is IK-B's per-thread one-time-token slot (value +
	// validity). Only the owning thread's call path touches it — mint,
	// verification and revocation all happen on the thread's own syscall
	// entries — so the slot needs no lock and the broker needs no shared
	// token map.
	ipmonToken     uint64
	ipmonTokenLive bool

	// rawExec is the cached raw-dispatch closure handed to interceptors —
	// allocating a fresh closure per syscall costs one heap object on
	// every monitored call.
	rawExec func(*Call) Result
}

// SetLtid caches the thread's logical thread id.
func (t *Thread) SetLtid(ltid int) { t.ltid.Store(int32(ltid)) }

// Ltid reports the cached logical thread id (0 until registered).
func (t *Thread) Ltid() int { return int(t.ltid.Load()) }

// TokenSlot exposes the IK-B token slot. Callers must be on the owning
// thread's call path (the slot is deliberately unsynchronised — the
// kernel-held token never leaves the thread that minted it, §3.1).
func (t *Thread) TokenSlot() (val uint64, live bool) {
	return t.ipmonToken, t.ipmonTokenLive
}

// SetTokenSlot mints or revokes the thread's one-time token.
func (t *Thread) SetTokenSlot(val uint64, live bool) {
	t.ipmonToken = val
	t.ipmonTokenLive = live
}

// NewThread spawns a thread whose clock starts at the parent's time.
func (p *Process) NewThread(parent *Thread) *Thread {
	p.mu.Lock()
	p.nextTID++
	tid := p.PID*100 + p.nextTID
	t := &Thread{TID: tid, Proc: p, done: make(chan struct{})}
	t.rawExec = func(c *Call) Result { return p.Kernel.rawSyscall(t, c) }
	p.threads[tid] = t
	p.mu.Unlock()
	if parent != nil {
		t.Clock.SyncTo(parent.Clock.Now())
	}
	return t
}

// Threads snapshots the live threads.
func (p *Process) Threads() []*Thread {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Thread, 0, len(p.threads))
	for _, t := range p.threads {
		out = append(out, t)
	}
	return out
}

// SetInIPMon flags IP-MON entry-point execution (set by the IP-MON
// dispatcher, cleared on return).
func (t *Thread) SetInIPMon(v bool) { t.inIPMon.Store(v) }

// InIPMon reports whether the thread executes inside IP-MON.
func (t *Thread) InIPMon() bool { return t.inIPMon.Load() }

// LastSyscall reports the most recent syscall issued by the thread.
func (t *Thread) LastSyscall() *Call { return t.lastSyscall.Load() }

// Done returns a channel closed when the thread exits: a wait that
// nothing else ends at exit cancels on it (wait.Queue.ParkUntil).
func (t *Thread) Done() <-chan struct{} { return t.done }

// Exited reports whether the thread has terminated.
func (t *Thread) Exited() bool { return t.exited.Load() }

// Syscall is the user-space syscall instruction: it charges the trap cost,
// runs the interposition chain, delivers pending signals at the boundary,
// and returns the user-visible result.
func (t *Thread) Syscall(nr int, args ...uint64) Result {
	var c Call
	c.Num = nr
	copy(c.Args[:], args)
	return t.SyscallC(&c)
}

// SyscallC issues a prepared Call.
func (t *Thread) SyscallC(c *Call) Result {
	if t.Exited() {
		return Result{Errno: ESRCH}
	}
	t.lastSyscall.Store(c)
	t.Proc.Kernel.userSyscalls.Add(1)
	t.Clock.Advance(model.CostSyscallTrap)

	// Interceptor and tracer are published through atomics: fetching
	// them per call through the kernel mutex serialised every replica
	// thread of every process on one lock.
	k := t.Proc.Kernel
	ic := k.intercept.Load()
	if trace := k.traceFn.Load(); trace != nil {
		(*trace)(t, c)
	}

	var r Result
	if ic != nil {
		r = (*ic).Intercept(t, c, t.rawExec)
	} else {
		r = k.rawSyscall(t, c)
	}

	// Signal delivery at the syscall boundary (§2.2: deferral until a
	// synchronisation point; the raw kernel delivers immediately at the
	// boundary, the MVEE tracer defers further).
	t.Proc.deliverPendingSignals(t)
	return r
}

// RawSyscall bypasses the interposition chain. The monitors use it to
// execute calls they have already vetted (e.g. GHUMVEE executing the
// master call after the lockstep rendezvous, or IP-MON restarting a call
// with the authorization token intact).
func (t *Thread) RawSyscall(nr int, args ...uint64) Result {
	var c Call
	c.Num = nr
	copy(c.Args[:], args)
	return t.Proc.Kernel.rawSyscall(t, &c)
}

// RawSyscallC issues a prepared Call without interposition.
func (t *Thread) RawSyscallC(c *Call) Result {
	return t.Proc.Kernel.rawSyscall(t, c)
}

// syscallHandler is one service routine in the dispatch table.
type syscallHandler func(*Kernel, *Thread, *Call) Result

// sysHandlers is the kernel's dense jump table, indexed by syscall
// number: one bounds-checked array load per dispatch instead of the
// sparse switch / map lookup it replaces. Unset entries are ENOSYS.
var sysHandlers [MaxSyscall]syscallHandler

// handle registers fn for every listed syscall number.
func handle(fn syscallHandler, nrs ...int) {
	for _, nr := range nrs {
		if nr < 0 || nr >= MaxSyscall {
			panic("vkernel: syscall number out of table range")
		}
		if sysHandlers[nr] != nil {
			panic("vkernel: duplicate handler for " + SyscallName(nr))
		}
		sysHandlers[nr] = fn
	}
}

func init() {
	// File and descriptor calls.
	handle((*Kernel).sysOpen, SysOpen, SysOpenat)
	handle((*Kernel).sysClose, SysClose)
	handle((*Kernel).sysRead, SysRead, SysPread64)
	handle((*Kernel).sysReadv, SysReadv, SysPreadv)
	handle((*Kernel).sysWrite, SysWrite, SysPwrite64)
	handle((*Kernel).sysWritev, SysWritev, SysPwritev)
	handle((*Kernel).sysLseek, SysLseek)
	handle((*Kernel).sysStat, SysStat, SysLstat, SysNewfstatat)
	handle((*Kernel).sysFstat, SysFstat)
	handle((*Kernel).sysAccess, SysAccess, SysFaccessat)
	handle((*Kernel).sysGetdents, SysGetdents, SysGetdents64)
	handle((*Kernel).sysReadlink, SysReadlink, SysReadlinkat)
	handle((*Kernel).sysUnlink, SysUnlink, SysUnlinkat)
	handle((*Kernel).sysMkdir, SysMkdir)
	handle((*Kernel).sysRmdir, SysRmdir)
	handle((*Kernel).sysRename, SysRename)
	handle((*Kernel).sysTruncate, SysTruncate, SysFtruncate)
	handle((*Kernel).sysSync, SysFsync, SysFdatasync, SysSync, SysSyncfs)
	handle((*Kernel).sysFcntl, SysFcntl)
	handle((*Kernel).sysIoctl, SysIoctl)
	handle((*Kernel).sysDup, SysDup, SysDup2, SysDup3)
	handle((*Kernel).sysPipe, SysPipe, SysPipe2)
	handle((*Kernel).sysSendfile, SysSendfile)
	handle(retErrno(ENODATA), SysGetxattr, SysLgetxattr, SysFgetxattr)
	handle(retOK, SysFadvise64, SysMadvise)

	// Network calls.
	handle((*Kernel).sysSocket, SysSocket)
	handle((*Kernel).sysBind, SysBind)
	handle((*Kernel).sysListen, SysListen)
	handle((*Kernel).sysAccept, SysAccept, SysAccept4)
	handle((*Kernel).sysConnect, SysConnect)
	handle((*Kernel).sysSend, SysSendto, SysSendmsg, SysSendmmsg)
	handle((*Kernel).sysRecv, SysRecvfrom, SysRecvmsg, SysRecvmmsg)
	handle((*Kernel).sysShutdown, SysShutdown)
	handle((*Kernel).sysSockname, SysGetsockname, SysGetpeername)
	handle((*Kernel).sysSockopt, SysSetsockopt, SysGetsockopt)
	handle((*Kernel).sysSocketpair, SysSocketpair)

	// Multiplexing.
	handle((*Kernel).sysPoll, SysPoll, SysSelect, SysPselect6)
	handle((*Kernel).sysEpollCreate, SysEpollCreate, SysEpollCreate1)
	handle((*Kernel).sysEpollCtl, SysEpollCtl)
	handle((*Kernel).sysEpollWait, SysEpollWait, SysEpollPwait)

	// Memory.
	handle((*Kernel).sysMmap, SysMmap)
	handle((*Kernel).sysMunmap, SysMunmap)
	handle((*Kernel).sysMprotect, SysMprotect)
	handle(retErrno(EOPNOTSUPP), SysMremap)
	handle((*Kernel).sysBrk, SysBrk)
	handle((*Kernel).sysShmget, SysShmget)
	handle((*Kernel).sysShmat, SysShmat)
	handle((*Kernel).sysShmdt, SysShmdt)
	handle(retOK, SysShmctl)

	// Process, identity, time.
	handle(func(k *Kernel, t *Thread, c *Call) Result {
		return Result{Val: uint64(t.Proc.PID)}
	}, SysGetpid)
	handle(func(k *Kernel, t *Thread, c *Call) Result {
		return Result{Val: uint64(t.TID)}
	}, SysGettid)
	handle(retVal(1), SysGetppid)
	handle(func(k *Kernel, t *Thread, c *Call) Result {
		return Result{Val: uint64(t.Proc.PID)}
	}, SysGetpgrp)
	handle(retVal(1000), SysGetuid, SysGeteuid, SysGetgid, SysGetegid)
	handle((*Kernel).sysGetcwd, SysGetcwd)
	handle(retVal(20), SysGetpriority)
	handle((*Kernel).sysZeroStruct, SysGetrusage, SysTimes, SysSysinfo, SysCapget, SysGetitimer)
	handle((*Kernel).sysUname, SysUname)
	handle(func(k *Kernel, t *Thread, c *Call) Result {
		t.Clock.Advance(model.CostContextSwitch / 2)
		return Result{}
	}, SysSchedYield)
	handle((*Kernel).sysNanosleep, SysNanosleep)
	handle(retOK, SysAlarm, SysSetitimer)
	handle((*Kernel).sysClockGettime, SysGettimeofday, SysClockGettime, SysTime)
	handle((*Kernel).sysTimerfd, SysTimerfdCreate, SysTimerfdSettime, SysTimerfdGettime)

	// Threads, signals, exit.
	handle(retErrno(EOPNOTSUPP), SysClone) // threads spawn via SpawnThread
	handle((*Kernel).sysFutex, SysFutex)
	handle((*Kernel).sysRtSigaction, SysRtSigaction)
	handle((*Kernel).sysRtSigprocmask, SysRtSigprocmask)
	handle((*Kernel).sysKill, SysKill, SysTgkill)
	handle((*Kernel).sysExit, SysExit, SysExitGroup)

	handle(retErrno(EPERM), SysProcessVMReadv) // only the tracer may cross-copy

	// Reaching the raw handler means no broker consumed the call.
	handle(retErrno(ENOSYS), SysIPMonRegister)
}

// retErrno builds a handler returning a fixed errno.
func retErrno(e Errno) syscallHandler {
	return func(*Kernel, *Thread, *Call) Result { return Result{Errno: e} }
}

// retVal builds a handler returning a fixed value.
func retVal(v uint64) syscallHandler {
	return func(*Kernel, *Thread, *Call) Result { return Result{Val: v} }
}

// retOK is the no-op success handler.
func retOK(*Kernel, *Thread, *Call) Result { return Result{} }

// rawSyscall dispatches through the jump table (bounds-checked; unknown
// numbers fall back to ENOSYS).
func (k *Kernel) rawSyscall(t *Thread, c *Call) Result {
	t.Clock.Advance(model.CostSyscallWork)
	if uint(c.Num) < uint(len(sysHandlers)) {
		if h := sysHandlers[c.Num]; h != nil {
			return h(k, t, c)
		}
	}
	return Result{Errno: ENOSYS}
}

// ExitThread terminates the calling thread (normal exit).
func (t *Thread) ExitThread(code int) { t.exit(code, false) }

// Crash terminates the thread abnormally — the "intentional crash" IP-MON
// uses to signal divergence to GHUMVEE through ptrace (§3.3), and the
// fate of replicas that take a real fault.
func (t *Thread) Crash(reason string) {
	_ = reason
	t.exit(139, true) // 128+SIGSEGV
}

func (t *Thread) exit(code int, crashed bool) {
	t.mu.Lock()
	if t.exited.Load() {
		t.mu.Unlock()
		return
	}
	t.exitCode = code
	t.exited.Store(true)
	close(t.done)
	t.mu.Unlock()

	p := t.Proc
	p.mu.Lock()
	delete(p.threads, t.TID)
	last := len(p.threads) == 0
	if last && !p.exited {
		p.exited = true
		p.exitCode = code
		p.crashed = p.crashed || crashed
	}
	if crashed {
		p.crashed = true
	}
	p.mu.Unlock()

	k := p.Kernel
	k.mu.Lock()
	handlers := append([]ExitHandler(nil), k.exitHs...)
	k.mu.Unlock()
	for _, h := range handlers {
		h.ThreadExited(t, code, crashed)
	}
	k.Hub.Notify()
	k.futex.wakeAll()
}

func (k *Kernel) sysExit(t *Thread, c *Call) Result {
	t.ExitThread(int(c.Arg(0)))
	return Result{}
}

// Package libc is the thin C-library-like layer replica programs are
// written against: it marshals Go values into the replica's simulated
// address space, issues system calls through the thread's (monitored)
// syscall entry, and provides the user-space building blocks the paper's
// workloads need — heap allocation, threads, and record/replay-ordered
// mutexes (§2.3).
//
// Everything a program does through this package flows through the MVEE's
// interposition chain exactly once per syscall, like a real libc.
package libc

import (
	"encoding/binary"
	"fmt"
	"sync"

	"remon/internal/mem"
	"remon/internal/model"
	"remon/internal/rr"
	"remon/internal/vkernel"
)

// Program is replica code: it runs once per replica (per thread for
// spawned threads) against an Env.
type Program func(env *Env)

// ThreadHandle joins a spawned thread.
type ThreadHandle struct {
	wg *sync.WaitGroup
}

// Join waits for the thread to finish.
func (h *ThreadHandle) Join() { h.wg.Wait() }

// NewThreadHandle wraps a WaitGroup as a joinable handle (used by the
// MVEE runtime's Spawn hook).
func NewThreadHandle(wg *sync.WaitGroup) *ThreadHandle { return &ThreadHandle{wg: wg} }

// Hooks is the runtime support the MVEE layer injects.
type Hooks struct {
	// Spawn creates a new logical thread across the replica set and runs
	// fn on it. nil = single-threaded environment.
	Spawn func(parent *Env, fn Program) *ThreadHandle
	// Agent is the record/replay agent ordering user-space sync (§2.3).
	Agent *rr.Agent
	// OnExit runs when the program's main function returns.
	OnExit func(e *Env)
}

// Env is one thread's libc context.
type Env struct {
	T     *vkernel.Thread
	LTID  int
	Hooks *Hooks

	// Replica-shared state (same object across the replica's threads).
	shared *sharedState

	arena    mem.Addr
	arenaEnd mem.Addr
	scratch  mem.Addr // reusable I/O bounce buffer
}

const (
	arenaChunk  = 1 << 20
	scratchSize = 1 << 16
)

type sharedState struct {
	mu      sync.Mutex
	mutexID uint64
}

// NewEnv creates the root Env for a replica's main thread.
func NewEnv(t *vkernel.Thread, ltid int, hooks *Hooks) *Env {
	if hooks == nil {
		hooks = &Hooks{}
	}
	return &Env{T: t, LTID: ltid, Hooks: hooks, shared: &sharedState{}}
}

// ChildEnv derives an Env for a spawned thread.
func (e *Env) ChildEnv(t *vkernel.Thread, ltid int) *Env {
	return &Env{T: t, LTID: ltid, Hooks: e.Hooks, shared: e.shared}
}

// ErrKilled is panicked (and recovered by the MVEE runner) when the
// thread was terminated underneath the program — the divergence-shutdown
// path, where GHUMVEE kills all replicas.
var ErrKilled = fmt.Errorf("libc: thread killed")

// sys issues a syscall and unwinds the program if the thread is dead.
func (e *Env) sys(nr int, args ...uint64) vkernel.Result {
	r := e.T.Syscall(nr, args...)
	if r.Errno == vkernel.ESRCH || (r.Errno == vkernel.EPERM && e.T.Exited()) {
		panic(ErrKilled)
	}
	return r
}

// --- Memory ---

// Alloc reserves n bytes of replica memory (bump allocator over mmap'd
// arenas; arena exhaustion triggers a real mmap syscall).
func (e *Env) Alloc(n int) mem.Addr {
	need := mem.Addr((n + 15) &^ 15)
	if e.arena == 0 || e.arena+need > e.arenaEnd {
		size := uint64(arenaChunk)
		if uint64(need) > size {
			size = uint64(need)
		}
		r := e.sys(vkernel.SysMmap, 0, size, 0x3, vkernel.MapAnonymous|vkernel.MapPrivate, 0, 0)
		if r.Errno == vkernel.EPERM {
			// The kernel's mmap never returns EPERM; only the monitor
			// does, when it has halted the replica set — possibly before
			// this thread is marked exited.
			panic(ErrKilled)
		}
		if !r.Ok() {
			panic(fmt.Sprintf("libc: mmap arena: %v", r.Errno))
		}
		e.arena = mem.Addr(r.Val)
		e.arenaEnd = e.arena + mem.Addr(size)
	}
	a := e.arena
	e.arena += need
	return a
}

// WriteBytes stores b at addr.
func (e *Env) WriteBytes(a mem.Addr, b []byte) {
	if err := e.T.Proc.Mem.Write(a, b); err != nil {
		panic("libc: write: " + err.Error())
	}
}

// ReadBytes loads n bytes at addr.
func (e *Env) ReadBytes(a mem.Addr, n int) []byte {
	b, err := e.T.Proc.Mem.ReadBytes(a, n)
	if err != nil {
		panic("libc: read: " + err.Error())
	}
	return b
}

// CString stores a NUL-terminated string and returns its address.
func (e *Env) CString(s string) mem.Addr {
	a := e.Alloc(len(s) + 1)
	e.WriteBytes(a, append([]byte(s), 0))
	return a
}

// scratchBuf returns the thread's bounce buffer (>= scratchSize bytes).
func (e *Env) scratchBuf() mem.Addr {
	if e.scratch == 0 {
		e.scratch = e.Alloc(scratchSize)
	}
	return e.scratch
}

// --- Files ---

// Open opens path.
func (e *Env) Open(path string, flags, mode int) (int, vkernel.Errno) {
	r := e.sys(vkernel.SysOpen, uint64(e.CString(path)), uint64(flags), uint64(mode))
	return int(r.Val), r.Errno
}

// Close closes fd.
func (e *Env) Close(fd int) vkernel.Errno {
	return e.sys(vkernel.SysClose, uint64(fd)).Errno
}

// Read reads up to len(buf) bytes into buf.
func (e *Env) Read(fd int, buf []byte) (int, vkernel.Errno) {
	n := len(buf)
	if n > scratchSize {
		n = scratchSize
	}
	s := e.scratchBuf()
	r := e.sys(vkernel.SysRead, uint64(fd), uint64(s), uint64(n))
	if !r.Ok() {
		return 0, r.Errno
	}
	got := int(r.Val)
	if got > 0 {
		copy(buf, e.ReadBytes(s, got))
	}
	return got, 0
}

// Write writes data to fd.
func (e *Env) Write(fd int, data []byte) (int, vkernel.Errno) {
	total := 0
	for len(data) > 0 {
		chunk := data
		if len(chunk) > scratchSize {
			chunk = chunk[:scratchSize]
		}
		s := e.scratchBuf()
		e.WriteBytes(s, chunk)
		r := e.sys(vkernel.SysWrite, uint64(fd), uint64(s), uint64(len(chunk)))
		if !r.Ok() {
			if total > 0 {
				return total, 0
			}
			return 0, r.Errno
		}
		total += int(r.Val)
		data = data[r.Val:]
		if int(r.Val) < len(chunk) {
			break
		}
	}
	return total, 0
}

// Pread reads at an explicit offset.
func (e *Env) Pread(fd int, buf []byte, off int64) (int, vkernel.Errno) {
	n := len(buf)
	if n > scratchSize {
		n = scratchSize
	}
	s := e.scratchBuf()
	r := e.sys(vkernel.SysPread64, uint64(fd), uint64(s), uint64(n), uint64(off))
	if !r.Ok() {
		return 0, r.Errno
	}
	copy(buf, e.ReadBytes(s, int(r.Val)))
	return int(r.Val), 0
}

// Lseek repositions fd.
func (e *Env) Lseek(fd int, off int64, whence int) (int64, vkernel.Errno) {
	r := e.sys(vkernel.SysLseek, uint64(fd), uint64(off), uint64(whence))
	return int64(r.Val), r.Errno
}

// Stat describes path.
type Stat struct {
	Ino  uint64
	Size int64
	Mode uint32
	Type uint32
}

// Stat stats path.
func (e *Env) Stat(path string) (Stat, vkernel.Errno) {
	buf := e.Alloc(vkernel.StatBufSize)
	r := e.sys(vkernel.SysStat, uint64(e.CString(path)), uint64(buf))
	if !r.Ok() {
		return Stat{}, r.Errno
	}
	raw := e.ReadBytes(buf, vkernel.StatBufSize)
	return Stat{
		Ino:  binary.LittleEndian.Uint64(raw[0:]),
		Size: int64(binary.LittleEndian.Uint64(raw[8:])),
		Mode: binary.LittleEndian.Uint32(raw[16:]),
		Type: binary.LittleEndian.Uint32(raw[20:]),
	}, 0
}

// Access checks path existence.
func (e *Env) Access(path string) vkernel.Errno {
	return e.sys(vkernel.SysAccess, uint64(e.CString(path)), 0).Errno
}

// Mkdir creates a directory.
func (e *Env) Mkdir(path string, mode int) vkernel.Errno {
	return e.sys(vkernel.SysMkdir, uint64(e.CString(path)), uint64(mode)).Errno
}

// Unlink removes path.
func (e *Env) Unlink(path string) vkernel.Errno {
	return e.sys(vkernel.SysUnlink, uint64(e.CString(path))).Errno
}

// Fsync flushes fd.
func (e *Env) Fsync(fd int) vkernel.Errno {
	return e.sys(vkernel.SysFsync, uint64(fd)).Errno
}

// Pipe creates a pipe, returning (rfd, wfd).
func (e *Env) Pipe() (int, int, vkernel.Errno) {
	out := e.Alloc(8)
	r := e.sys(vkernel.SysPipe, uint64(out))
	if !r.Ok() {
		return -1, -1, r.Errno
	}
	raw := e.ReadBytes(out, 8)
	return int(binary.LittleEndian.Uint32(raw[0:])), int(binary.LittleEndian.Uint32(raw[4:])), 0
}

// Dup duplicates fd.
func (e *Env) Dup(fd int) (int, vkernel.Errno) {
	r := e.sys(vkernel.SysDup, uint64(fd))
	return int(r.Val), r.Errno
}

// SetNonblock toggles O_NONBLOCK via fcntl.
func (e *Env) SetNonblock(fd int, v bool) vkernel.Errno {
	var fl uint64
	if v {
		fl = vkernel.ONonblock
	}
	return e.sys(vkernel.SysFcntl, uint64(fd), vkernel.FSetFL, fl).Errno
}

// --- Network ---

// Socket creates a stream socket.
func (e *Env) Socket() (int, vkernel.Errno) {
	r := e.sys(vkernel.SysSocket, 2, 1, 0)
	return int(r.Val), r.Errno
}

// Bind binds fd to addr ("host:port").
func (e *Env) Bind(fd int, addr string) vkernel.Errno {
	return e.sys(vkernel.SysBind, uint64(fd), uint64(e.CString(addr)), uint64(len(addr))).Errno
}

// Listen starts listening.
func (e *Env) Listen(fd, backlog int) vkernel.Errno {
	return e.sys(vkernel.SysListen, uint64(fd), uint64(backlog)).Errno
}

// Accept accepts a connection, returning the connection fd.
func (e *Env) Accept(fd int) (int, vkernel.Errno) {
	r := e.sys(vkernel.SysAccept, uint64(fd), 0, 0)
	return int(r.Val), r.Errno
}

// Connect connects fd to addr.
func (e *Env) Connect(fd int, addr string) vkernel.Errno {
	return e.sys(vkernel.SysConnect, uint64(fd), uint64(e.CString(addr)), uint64(len(addr))).Errno
}

// Send writes data on a socket (sendto).
func (e *Env) Send(fd int, data []byte) (int, vkernel.Errno) {
	s := e.scratchBuf()
	n := len(data)
	if n > scratchSize {
		n = scratchSize
	}
	e.WriteBytes(s, data[:n])
	r := e.sys(vkernel.SysSendto, uint64(fd), uint64(s), uint64(n), 0, 0, 0)
	return int(r.Val), r.Errno
}

// Recv reads from a socket (recvfrom).
func (e *Env) Recv(fd int, buf []byte) (int, vkernel.Errno) {
	s := e.scratchBuf()
	n := len(buf)
	if n > scratchSize {
		n = scratchSize
	}
	r := e.sys(vkernel.SysRecvfrom, uint64(fd), uint64(s), uint64(n), 0, 0, 0)
	if !r.Ok() {
		return 0, r.Errno
	}
	copy(buf, e.ReadBytes(s, int(r.Val)))
	return int(r.Val), 0
}

// Shutdown closes a socket direction.
func (e *Env) Shutdown(fd int) vkernel.Errno {
	return e.sys(vkernel.SysShutdown, uint64(fd), 2).Errno
}

// --- epoll ---

// EpollEvent mirrors the kernel's epoll_event.
type EpollEvent struct {
	Events uint32
	Data   uint64
}

// EpollCreate makes an epoll instance.
func (e *Env) EpollCreate() (int, vkernel.Errno) {
	r := e.sys(vkernel.SysEpollCreate1, 0)
	return int(r.Val), r.Errno
}

// EpollCtl manipulates the interest list.
func (e *Env) EpollCtl(epfd, op, fd int, ev EpollEvent) vkernel.Errno {
	a := e.Alloc(vkernel.EpollEventSize)
	raw := make([]byte, vkernel.EpollEventSize)
	binary.LittleEndian.PutUint32(raw[0:], ev.Events)
	binary.LittleEndian.PutUint64(raw[8:], ev.Data)
	e.WriteBytes(a, raw)
	return e.sys(vkernel.SysEpollCtl, uint64(epfd), uint64(op), uint64(fd), uint64(a)).Errno
}

// EpollWait waits for events (timeout in ms; -1 blocks).
func (e *Env) EpollWait(epfd int, events []EpollEvent, timeout int) (int, vkernel.Errno) {
	maxEv := len(events)
	if maxEv == 0 {
		return 0, vkernel.EINVAL
	}
	a := e.scratchBuf()
	r := e.sys(vkernel.SysEpollWait, uint64(epfd), uint64(a), uint64(maxEv), uint64(uint32(int32(timeout))))
	if !r.Ok() {
		return 0, r.Errno
	}
	n := int(r.Val)
	raw := e.ReadBytes(a, n*vkernel.EpollEventSize)
	for i := 0; i < n; i++ {
		events[i].Events = binary.LittleEndian.Uint32(raw[i*vkernel.EpollEventSize:])
		events[i].Data = binary.LittleEndian.Uint64(raw[i*vkernel.EpollEventSize+8:])
	}
	return n, 0
}

// --- Time, identity, compute ---

// Getpid returns the (replicated) process id.
func (e *Env) Getpid() int {
	return int(e.sys(vkernel.SysGetpid).Val)
}

// TimeNow returns the current virtual time via clock_gettime.
func (e *Env) TimeNow() model.Duration {
	out := e.Alloc(8)
	r := e.sys(vkernel.SysClockGettime, 0, uint64(out))
	if !r.Ok() {
		return 0
	}
	return model.Duration(binary.LittleEndian.Uint64(e.ReadBytes(out, 8)))
}

// Sleep advances virtual time via nanosleep.
func (e *Env) Sleep(d model.Duration) {
	req := e.Alloc(8)
	var raw [8]byte
	binary.LittleEndian.PutUint64(raw[:], uint64(d))
	e.WriteBytes(req, raw[:])
	e.sys(vkernel.SysNanosleep, uint64(req), 0)
}

// Compute models pure user-space CPU work: it advances the thread's
// virtual clock without entering the kernel. Workload profiles are built
// from Compute + syscall mixes.
func (e *Env) Compute(d model.Duration) {
	e.T.Clock.Advance(d)
}

// Exit terminates the thread via exit_group.
func (e *Env) Exit(code int) {
	e.sys(vkernel.SysExitGroup, uint64(code))
}

// --- Threads and synchronisation ---

// Spawn starts fn on a new logical thread across the replica set.
func (e *Env) Spawn(fn Program) *ThreadHandle {
	if e.Hooks.Spawn == nil {
		panic("libc: Spawn without MVEE hooks")
	}
	if e.Hooks.Agent != nil {
		e.Hooks.Agent.Sync(e.T, e.LTID, uint64(e.LTID)<<32|0xFEED, rr.OpSpawn)
	}
	return e.Hooks.Spawn(e, fn)
}

// Mutex is a user-space lock whose acquisition order is recorded by the
// master's replay agent and replayed by slaves (§2.3). The futex syscall
// it issues under contention is what the NONSOCKET_RO conditional policy
// of Table 1 exempts.
type Mutex struct {
	id   uint64
	word mem.Addr
	mu   sync.Mutex
}

// NewMutex allocates a mutex backed by a futex word in replica memory.
func (e *Env) NewMutex() *Mutex {
	e.shared.mu.Lock()
	e.shared.mutexID++
	id := e.shared.mutexID
	e.shared.mu.Unlock()
	return &Mutex{id: id, word: e.Alloc(4)}
}

// Lock acquires the mutex in replay order.
//
// No syscall is issued here even under contention: whether TryLock
// succeeds depends on host scheduling, and an input-dependent futex
// syscall would desynchronise the replicas' syscall sequences — the exact
// divergence §2.3's agent exists to prevent. Programs that want futex
// syscall pressure (the Table 1 conditional path) emit it explicitly with
// FutexPing.
//
// The master records the acquisition after it happens, so the log holds
// the order threads actually owned the lock. Recording before acquiring
// logs the order threads *tried*, and a slave replaying that order can
// grant the lock to a thread whose unlock the log places behind another
// thread's: both then wait forever.
func (m *Mutex) Lock(e *Env) {
	a := e.Hooks.Agent
	if a != nil && !a.Master() {
		a.Sync(e.T, e.LTID, m.id, rr.OpLock)
	}
	m.mu.Lock()
	if a != nil && a.Master() {
		a.Sync(e.T, e.LTID, m.id, rr.OpLock)
	}
}

// FutexPing issues one deterministic futex syscall against the mutex's
// futex word (FUTEX_WAIT with a mismatching value returns EAGAIN
// immediately). Workload profiles use it to generate the futex densities
// the paper's benchmarks exhibit.
func (m *Mutex) FutexPing(e *Env) {
	e.sys(vkernel.SysFutex, uint64(m.word), vkernel.FutexWait, 1)
}

// Unlock releases the mutex.
func (m *Mutex) Unlock(e *Env) {
	if e.Hooks.Agent != nil {
		e.Hooks.Agent.Sync(e.T, e.LTID, m.id, rr.OpUnlock)
	}
	m.mu.Unlock()
}

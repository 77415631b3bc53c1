package vkernel

import (
	"encoding/binary"
	"sync"

	"remon/internal/mem"
	"remon/internal/model"
)

// Futex operations (subset of the Linux API; §3.7 — IP-MON's condition
// variables are built on FUTEX_WAIT/FUTEX_WAKE over shared memory).
const (
	FutexWait = 0
	FutexWake = 1
)

// futexKey identifies a futex word: shared mappings key on the segment so
// that different virtual addresses in different replicas alias correctly;
// private memory keys on (pid, address).
type futexKey struct {
	shmID int
	off   uint64
	pid   int
	addr  mem.Addr
}

type futexWaiter struct {
	ch     chan struct{}
	wakeAt model.Duration
}

type futexTable struct {
	mu      sync.Mutex
	waiters map[futexKey][]*futexWaiter
}

func newFutexTable() *futexTable {
	return &futexTable{waiters: map[futexKey][]*futexWaiter{}}
}

func (ft *futexTable) keyFor(p *Process, addr mem.Addr) (futexKey, Errno) {
	r := p.Mem.RegionAt(addr)
	if r == nil {
		return futexKey{}, EFAULT
	}
	if seg := r.Shared(); seg != nil {
		return futexKey{shmID: seg.ID, off: uint64(addr - r.Start)}, OK
	}
	return futexKey{pid: p.PID, addr: addr}, OK
}

// wait blocks the thread until a wake on the same key, provided the futex
// word still holds val. The waiter's clock syncs to the waker's publish
// time — the virtual-time handoff that makes master->slave replication
// latency visible.
//
// The word is loaded and compared while holding futex.mu, as Linux does
// under its hash-bucket lock: a waker that stores the word and then finds
// no waiter under the same lock (WaitingOn, the §3.7 wake suppression) can
// therefore never slip between this check and the enqueue. Lock order is
// futex.mu, then the address-space lock Mem.Read takes; no path holds an
// address-space lock while taking futex.mu.
func (k *Kernel) sysFutex(t *Thread, c *Call) Result {
	addr := mem.Addr(c.Arg(0))
	op := int(c.Arg(1))
	val := uint32(c.Arg(2))
	key, e := k.futex.keyFor(t.Proc, addr)
	if e != OK {
		return Result{Errno: e}
	}
	switch op {
	case FutexWait:
		var word [4]byte
		k.futex.mu.Lock()
		if err := t.Proc.Mem.Read(addr, word[:]); err != nil {
			k.futex.mu.Unlock()
			return Result{Errno: EFAULT}
		}
		if binary.LittleEndian.Uint32(word[:]) != val {
			k.futex.mu.Unlock()
			return Result{Errno: EAGAIN}
		}
		// A thread crashed after its caller's last liveness check would
		// otherwise sleep forever: its exit's wakeAll already ran. exit
		// marks the thread before taking futex.mu for wakeAll, so this
		// check under the lock sees either the mark or a later wakeAll.
		if t.Exited() {
			k.futex.mu.Unlock()
			return Result{Errno: EINTR}
		}
		w := &futexWaiter{ch: make(chan struct{})}
		k.futex.waiters[key] = append(k.futex.waiters[key], w)
		k.futex.mu.Unlock()

		t.Clock.Advance(model.CostFutexWait)
		<-w.ch
		t.Clock.SyncTo(w.wakeAt)
		return Result{}
	case FutexWake:
		n := int(val)
		now := t.Clock.Now()
		t.Clock.Advance(model.CostFutexWake)
		k.futex.mu.Lock()
		queue := k.futex.waiters[key]
		woken := 0
		for woken < n && len(queue) > 0 {
			w := queue[0]
			queue = queue[1:]
			w.wakeAt = now
			close(w.ch)
			woken++
		}
		if len(queue) == 0 {
			delete(k.futex.waiters, key)
		} else {
			k.futex.waiters[key] = queue
		}
		k.futex.mu.Unlock()
		return Result{Val: uint64(woken)}
	}
	return Result{Errno: ENOSYS}
}

// wakeAll releases every futex waiter (kernel shutdown / process death
// paths) so no goroutine leaks.
func (ft *futexTable) wakeAll() {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	for key, queue := range ft.waiters {
		for _, w := range queue {
			close(w.ch)
		}
		delete(ft.waiters, key)
	}
}

// WaitingOn reports the number of waiters currently queued on the futex at
// addr in process p (test/monitor introspection; also the basis of the
// wake-suppression ablation — IP-MON skips FUTEX_WAKE when no slave
// waits, §3.7).
func (k *Kernel) WaitingOn(p *Process, addr mem.Addr) int {
	key, e := k.futex.keyFor(p, addr)
	if e != OK {
		return 0
	}
	k.futex.mu.Lock()
	defer k.futex.mu.Unlock()
	return len(k.futex.waiters[key])
}

package vkernel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"remon/internal/mem"
)

// TestFutexStoreThenSuppressedWakeNeverSleeps drives the replication
// buffer's wake protocol in a tight loop on two Ps: the waker stores a new
// word value, sees no waiter (WaitingOn) and skips FUTEX_WAKE, while the
// waiter concurrently enters FUTEX_WAIT on the old value. The wait must
// either be queued before the waker looks or observe the new value and
// return EAGAIN; a word loaded before futex.mu is taken lets the waiter
// enqueue after the skipped wake and sleep forever.
func TestFutexStoreThenSuppressedWakeNeverSleeps(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	k := New(nil)
	p := k.NewProcess("futex-race", 1, 0)
	waker := p.NewThread(nil)
	waiter := p.NewThread(waker)
	base := waker.Syscall(SysShmat, waker.Syscall(SysShmget, 0, 4096, 0).Val, 0, 0).Val
	seg := p.Mem.RegionAt(mem.Addr(base)).Shared()

	const rounds = 20000
	var stop atomic.Bool
	acks := make(chan struct{}, 1)
	go func() {
		for i := uint32(0); i < rounds; i++ {
			for seg.LoadU32(0) == i && !stop.Load() {
				waiter.Syscall(SysFutex, base, FutexWait, uint64(i))
			}
			if stop.Load() {
				return
			}
			acks <- struct{}{}
		}
	}()
	for i := uint32(0); i < rounds; i++ {
		seg.StoreU32(0, i+1)
		if k.WaitingOn(p, mem.Addr(base)) != 0 {
			waker.Syscall(SysFutex, base, FutexWake, 1)
		}
		select {
		case <-acks:
		case <-time.After(2 * time.Second):
			stop.Store(true)
			k.futex.wakeAll()
			t.Fatalf("round %d of %d: waiter slept through a store whose wake was suppressed", i, rounds)
		}
	}
}

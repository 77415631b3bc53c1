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

// TestCrashWakesBlockedWaiters crashes threads while they loop the way
// the replication buffer and the shard servers wait — "while the thread
// lives, FUTEX_WAIT" and "while the thread lives, epoll_wait" — on two
// Ps, with the crash landing at a varying point of the loop. Every
// waiter must return: the crash's futex wakeAll and hub notify can run
// between a waiter's liveness check and its sleep, and a waiter that
// then sleeps anyway never wakes (an MVEE teardown that hangs on Run).
func TestCrashWakesBlockedWaiters(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	k := New(nil)
	const rounds = 3000
	for i := 0; i < rounds; i++ {
		p := k.NewProcess("crash-wait", 1, 0)
		futexer := p.NewThread(nil)
		poller := p.NewThread(futexer)
		base := futexer.Syscall(SysShmat, futexer.Syscall(SysShmget, 0, 4096, 0).Val, 0, 0).Val
		epfd := poller.Syscall(SysEpollCreate1, 0).Val
		out := base + 64

		done := make(chan struct{}, 2)
		go func() {
			for !futexer.Exited() {
				futexer.RawSyscall(SysFutex, base, FutexWait, 0)
			}
			done <- struct{}{}
		}()
		go func() {
			for !poller.Exited() {
				poller.RawSyscall(SysEpollWait, epfd, out, 1, ^uint64(0))
			}
			done <- struct{}{}
		}()
		for spin := 0; spin < i%64; spin++ {
			runtime.Gosched()
		}
		futexer.Crash("test")
		poller.Crash("test")
		for n := 0; n < 2; n++ {
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				k.futex.wakeAll()
				k.Hub.Notify()
				t.Fatalf("round %d of %d: a crashed thread slept through its own wake-up", i, rounds)
			}
		}
	}
}

package ghumvee

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"remon/internal/mem"
	"remon/internal/vkernel"
	"remon/internal/wait"
)

// The arrival ring is one logical-thread group's lockstep meeting point,
// built on the internal/mem atomic word API instead of a mutex+broadcast
// condition variable (DESIGN.md §7).
//
// Shared-segment layout (one 64-byte stripe per word keeps the hot words
// on separate cache lines):
//
//	off 0:            arrival counter (AddU32; last arrival closes the
//	                  round and becomes the monitor)
//	off 64*(i+1):     slot i done sequence (release-store publishing
//	                  the slot's result)
//
// Protocol per round r (a per-slot monotone sequence; all slots agree
// because each replica contributes exactly one thread per group):
//
//  1. Replica i fills slots[i].arr with plain writes, then joins the
//     arrival counter — the AddU32 read-modify-write is the release
//     that publishes the slot's record.
//  2. If the counter is still short of n, the replica spins briefly on
//     doneSeq(i), then parks on its slot's wait queue (the monitor-wide
//     abort channel cancels the park).
//  3. The arrival that brings the counter to n observes — through the
//     counter's read-modify-write ordering — every slot's published
//     record, runs the monitor round, resets the counter, release-stores
//     each doneSeq and wakes only the slots that actually parked.
const (
	ringSlotStride = 64
	ringCntOff     = 0

	// spinArrival bounds the pre-park spin: lockstep rounds on a loaded
	// group complete in well under a microsecond of host time, so most
	// waits never touch the scheduler (§3.7's spin-then-futex strategy,
	// applied to the CP monitor).
	spinArrival = 128
)

func doneOff(i int) uint64 { return uint64(ringSlotStride * (i + 1)) }

// arrival is one replica thread's published rendezvous record.
type arrival struct {
	t      *vkernel.Thread
	c      *vkernel.Call
	exec   func(*vkernel.Call) vkernel.Result
	runOwn bool
	result vkernel.Result
}

// ringSlot is one replica's lane in the group.
type ringSlot struct {
	arr arrival
	seq uint64     // local round counter, owned by the arriving thread
	q   wait.Queue // the slot's thread once it outlives its spin (ring.mu)
}

// ring is the lock-free rendezvous for one logical-thread group.
type ring struct {
	n       int
	seg     *mem.SharedSegment
	slots   []ringSlot
	collect []*arrival // monitor-of-round scratch (only the closer touches it)
	mu      sync.Mutex // guards the slots' wait queues

	// closed is the last round whose arrivals all showed up, set by the
	// closing arrival before it runs the monitor round. An armed watchdog
	// for a closed round stands down: the round is executing (possibly
	// blocking legitimately inside the master call), not wedged.
	closed atomic.Uint64

	// Pooled watchdog: one timer per group, re-armed by the first waiter
	// of each round, disarmed when the round completes. armedCall is the
	// arming waiter's call (immutable once issued) so the timeout verdict
	// can cite it without touching the waiter's slot.
	timer      *time.Timer
	armedRound atomic.Uint64
	armedCall  atomic.Pointer[vkernel.Call]
}

func newRing(m *Monitor, n int) *ring {
	g := &ring{
		n:       n,
		seg:     mem.NewSharedSegment(-1, uint64(ringSlotStride*(n+1))),
		slots:   make([]ringSlot, n),
		collect: make([]*arrival, n),
	}
	g.timer = time.AfterFunc(time.Hour, func() { g.watchdogFire(m) })
	g.timer.Stop()
	return g
}

// armWatchdog re-arms the group's pooled timer for round r. Only the
// first waiter of a round pays the Reset; later waiters see armedRound
// already current. The timer callback revalidates against completed, so
// a stale or spurious fire is harmless.
func (g *ring) armWatchdog(m *Monitor, r uint64, c *vkernel.Call) {
	g.armedCall.Store(c)
	prev := g.armedRound.Load()
	if prev == r || !g.armedRound.CompareAndSwap(prev, r) {
		return
	}
	g.timer.Reset(m.LockstepTimeout())
	if m.halted() {
		g.timer.Stop() // armed after signalAbort's sweep
	}
}

// watchdogFire runs in the timer goroutine when a round has been armed
// for longer than the lockstep timeout. A replica that never showed up
// (hijacked into a different syscall sequence, or wedged) leaves the
// round unclosed — the same timeout-based desynchronisation detection
// real GHUMVEE uses. A closed round (every replica arrived) is exempt:
// its monitor may legitimately block inside the master call for longer
// than the timeout (an idle accept or epoll_wait), exactly as the old
// engine's stale-arrival check allowed.
func (g *ring) watchdogFire(m *Monitor) {
	r := g.armedRound.Load()
	if r == 0 || g.closed.Load() >= r || m.halted() {
		return
	}
	c := g.armedCall.Load()
	m.declareDivergence(c, "lockstep rendezvous timeout (replica desynchronised)")
}

// awaitDone blocks slot idx until its round-r result is published. It
// spins briefly, then parks on the slot's wait queue; false means the
// monitor halted (divergence or Stop) before the round completed.
func (g *ring) awaitDone(m *Monitor, slot *ringSlot, idx int, r uint64) bool {
	off := doneOff(idx)
	want := uint32(r)
	for i := 0; i < spinArrival; i++ {
		if g.seg.LoadU32(off) == want {
			return true
		}
		if i&15 == 15 {
			runtime.Gosched()
		}
	}
	// Spin budget exhausted: this round might be wedged — arm the pooled
	// watchdog before sleeping. Rounds that complete within the spin
	// window (the overwhelmingly common case) never touch the timer.
	g.armWatchdog(m, r, slot.arr.c)
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.seg.LoadU32(off) != want {
		if _, ok := slot.q.ParkUntil(&g.mu, "ghumvee.rendezvous", slot.arr.t.Clock.Now(), m.abort, time.Time{}); !ok {
			break
		}
	}
	return g.seg.LoadU32(off) == want // a published result wins over the abort
}

// completeRound publishes round r's results and reopens the ring. Called
// by the round's monitor (the closing arrival) only. The doneSeq stores
// and wakes run under ring.mu (DESIGN.md §15).
func (g *ring) completeRound(m *Monitor, r uint64, self int) {
	if g.armedRound.Load() == r {
		g.timer.Stop()
	}
	// Reopen the arrival counter before any waiter is released: a woken
	// waiter may immediately start the next round.
	g.seg.StoreU32(ringCntOff, 0)
	g.mu.Lock()
	for i := range g.slots {
		if i == self {
			continue
		}
		g.seg.StoreU32(doneOff(i), uint32(r)) // release: publish arr.result
		if g.slots[i].q.Wake(1, 0) > 0 {
			m.at.wakeups.Add(1)
		}
	}
	g.mu.Unlock()
}

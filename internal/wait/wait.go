// Package wait is the one way a replica thread parks (DESIGN.md §15): a
// FIFO queue guarded by a lock its caller owns, with sync.Cond's
// park/wake contract plus the §3.7 futex's virtual-time handoff, and a
// process-wide registry of who is parked, on what, since when.
package wait

import (
	"sync"
	"time"

	"remon/internal/model"
)

// Reason names what a parked party waits for ("futex", "vnet.recv", ...).
type Reason string

// Queue is a FIFO of parked parties. The zero value is empty and it is
// one pointer wide. Its methods run under the lock passed to Park; a
// site with no lock of its own keeps a mutex beside the queue.
type Queue struct {
	tail *waiter // circular: tail.next is the head
}

// waiter is one park in flight, pooled so a steady-state park/wake cycle
// allocates nothing.
type waiter struct {
	next   *waiter       // queue link, nil once dequeued (queue's lock)
	ready  chan struct{} // cap 1: Wake sends one token, under the lock
	wakeAt model.Duration
	entry  Waiter // registry record; entry.On is nil while pooled (reg.mu)
}

// Waiter is one entry of Parked.
type Waiter struct {
	Reason Reason
	On     *Queue
	Since  model.Duration // the parker's virtual time
}

// reg is process-wide: Parked must see every queue, wherever it is
// embedded, and the waiter pool is shared by all of them.
var reg struct {
	mu        sync.Mutex
	all, free []*waiter
}

// Parked lists every party currently parked on any queue.
func Parked() []Waiter {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	var out []Waiter
	for _, w := range reg.all {
		if w.entry.On != nil {
			out = append(out, w.entry)
		}
	}
	return out
}

// Park atomically unlocks l and suspends the caller until a Wake picks
// it, then relocks l — sync.Cond.Wait's contract, so callers re-check
// their condition in a loop. vt is the caller's virtual time; Park
// returns the waker's.
func (q *Queue) Park(l sync.Locker, r Reason, vt model.Duration) model.Duration {
	at, _ := q.ParkUntil(l, r, vt, nil, time.Time{})
	return at
}

// ParkUntil is Park that also ends, with ok false, once cancel is closed
// or the host-time deadline passes; a nil cancel or a zero deadline
// never fires. A Wake that races either wins.
func (q *Queue) ParkUntil(l sync.Locker, r Reason, vt model.Duration, cancel <-chan struct{}, deadline time.Time) (at model.Duration, ok bool) {
	reg.mu.Lock()
	var w *waiter
	if n := len(reg.free); n > 0 {
		w, reg.free = reg.free[n-1], reg.free[:n-1]
	} else {
		w = &waiter{ready: make(chan struct{}, 1)}
		reg.all = append(reg.all, w)
	}
	w.entry = Waiter{Reason: r, On: q, Since: vt}
	reg.mu.Unlock()
	if q.tail == nil {
		w.next = w
	} else {
		w.next, q.tail.next = q.tail.next, w
	}
	q.tail = w
	l.Unlock()

	var expire <-chan time.Time
	if !deadline.IsZero() {
		tm := time.NewTimer(time.Until(deadline))
		defer tm.Stop()
		expire = tm.C
	}
	if cancel == nil && expire == nil {
		<-w.ready // a plain receive: cheaper than a select
		ok, vt = true, w.wakeAt
	} else {
		select {
		case <-w.ready:
			ok, vt = true, w.wakeAt
		case <-cancel:
		case <-expire:
		}
	}
	l.Lock()
	if !ok && !q.remove(w) {
		<-w.ready // a Wake took w first; its token is already sent
		ok, vt = true, w.wakeAt
	}
	reg.mu.Lock()
	w.entry.On = nil
	reg.free = append(reg.free, w)
	reg.mu.Unlock()
	return vt, ok
}

// remove unlinks w if it is still queued.
func (q *Queue) remove(w *waiter) bool {
	if w.next == nil {
		return false
	}
	if w.next == w {
		q.tail = nil
	} else {
		prev := w.next
		for prev.next != w {
			prev = prev.next
		}
		prev.next = w.next
		if q.tail == w {
			q.tail = prev
		}
	}
	w.next = nil
	return true
}

// Wake releases up to n parked parties in FIFO order, handing each the
// waker's virtual time vt, and reports how many it released.
func (q *Queue) Wake(n int, vt model.Duration) int {
	woken := 0
	for ; woken < n && q.tail != nil; woken++ {
		w := q.tail.next
		if w == q.tail {
			q.tail = nil
		} else {
			q.tail.next = w.next
		}
		w.next, w.wakeAt = nil, vt
		w.ready <- struct{}{}
	}
	return woken
}

// WakeAll releases every parked party; see Wake.
func (q *Queue) WakeAll(vt model.Duration) int { return q.Wake(int(^uint(0)>>1), vt) }

// Len reports how many parties are parked on q (0 for a nil q).
func (q *Queue) Len() int {
	if q == nil || q.tail == nil {
		return 0
	}
	n := 1
	for w := q.tail.next; w != q.tail; w = w.next {
		n++
	}
	return n
}

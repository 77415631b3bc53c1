// The readiness poller: vnet's epoll. A Poller lets K event-loop
// goroutines drive N connections — the primitive the million-connection
// open-loop harness and the polled splice data plane are built on.
// Before it, the only ways to consume a conn were a blocking Recv (one
// goroutine per conn) or a sleep-poll on ErrWouldBlock (wasted wakeups);
// the Poller rides the existing rxQueue push/notify path instead, so a
// registered conn costs nothing until traffic arrives.
//
// Semantics are edge-triggered, like epoll with EPOLLET:
//
//   - A registration fires when the conn's receive state *changes*:
//     a segment is pushed, the peer's FIN lands (EOF), or the local side
//     resets — the same set of events that wake a parked blocking Recv.
//     A splice resuming a frozen direction also kicks its registration.
//   - One registration is queued at most once until delivered; a burst
//     of pushes coalesces into one event. After Wait delivers it, the
//     registration re-arms — the consumer must drain the conn to
//     ErrWouldBlock before the next Wait, or it can miss data.
//   - Registration itself delivers an initial event if the conn is
//     already readable (ready-before-register is not lost).
//   - Spurious events are legal (a kick with no data delivers an event
//     whose drain immediately sees ErrWouldBlock); consumers must treat
//     an event as "check the conn", not "data is guaranteed".
//
// Listeners register the same way: an event fires when a connection is
// enqueued for Accept or the listener closes.
//
// Concurrency contract: any goroutine may register/remove and any may
// push; Wait is single-consumer — one goroutine owns a Poller's Wait
// loop (each event loop owns its own Poller).
package vnet

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrPollerConflict: the conn or listener is already registered with a
// (different) poller. One watcher per endpoint — the single-owner
// event-loop discipline.
var ErrPollerConflict = errors.New("vnet: already registered with a poller")

// Event is one readiness delivery: exactly one of Conn/Listener is set,
// plus the caller's registration cookie.
type Event struct {
	Conn     *Conn
	Listener *Listener
	Key      uint64
}

// pollReg is one endpoint's registration. queued dedupes notifications
// (set when enqueued on the ready list, cleared at delivery); removed
// tombstones a registration whose endpoint was unregistered while an
// entry for it was still queued.
type pollReg struct {
	p       *Poller
	key     uint64
	conn    *Conn
	lis     *Listener
	queued  atomic.Bool
	removed atomic.Bool
}

// notify enqueues the registration on its poller's ready list if it is
// not already queued. Called from rxQueue/Listener mutators, possibly
// with the queue's lock held — the lock order is always endpoint lock
// then p.mu, and the Poller never calls back into an endpoint.
func (r *pollReg) notify() {
	if r == nil || !r.queued.CompareAndSwap(false, true) {
		return
	}
	p := r.p
	p.mu.Lock()
	if !p.closed {
		p.ready = append(p.ready, r)
		select {
		case p.sig <- struct{}{}:
		default:
		}
	}
	p.mu.Unlock()
}

// Poller multiplexes readiness for many conns/listeners onto one Wait
// loop.
type Poller struct {
	mu     sync.Mutex
	ready  []*pollReg
	head   int
	closed bool
	// sig wakes the (single) Wait consumer; cap 1, non-blocking sends.
	// Closed by Close under mu — notify only sends under mu, so a send
	// on the closed channel cannot race.
	sig chan struct{}
}

// NewPoller creates an empty poller.
func NewPoller() *Poller {
	return &Poller{sig: make(chan struct{}, 1)}
}

// AddConn registers c for RX readiness (data, EOF, reset)
// under the given cookie. If c is already readable the registration
// delivers an initial event.
func (p *Poller) AddConn(c *Conn, key uint64) error {
	reg := &pollReg{p: p, key: key, conn: c}
	q := c.rx
	q.mu.Lock()
	if q.watch != nil {
		q.mu.Unlock()
		return ErrPollerConflict
	}
	q.watch = reg
	readable := len(q.segs) > 0 || q.closed || q.reset
	q.mu.Unlock()
	if readable {
		reg.notify()
	}
	return nil
}

// RemoveConn unregisters c. A still-queued delivery for it is discarded.
func (p *Poller) RemoveConn(c *Conn) {
	q := c.rx
	q.mu.Lock()
	if q.watch != nil && q.watch.p == p {
		q.watch.removed.Store(true)
		q.watch = nil
	}
	q.mu.Unlock()
}

// AddListener registers l for accept readiness under the given cookie.
// If connections are already pending the registration delivers an
// initial event.
func (p *Poller) AddListener(l *Listener, key uint64) error {
	reg := &pollReg{p: p, key: key, lis: l}
	l.mu.Lock()
	if l.watch != nil {
		l.mu.Unlock()
		return ErrPollerConflict
	}
	l.watch = reg
	pending := len(l.queue) > 0 || l.closed
	l.mu.Unlock()
	if pending {
		reg.notify()
	}
	return nil
}

// Wait fills events with ready endpoints and returns the count. With
// block=false it returns 0 immediately when nothing is ready; with
// block=true it parks until an event arrives or the poller closes.
// After Close, Wait drains any already-queued events and then returns 0.
func (p *Poller) Wait(events []Event, block bool) int {
	return p.wait(events, block, time.Time{})
}

// WaitDeadline waits like Wait(events, true) but gives up at the
// host-time deadline, returning 0 — the timed wait event loops use to
// interleave timer-wheel ticks with readiness.
func (p *Poller) WaitDeadline(events []Event, deadline time.Time) int {
	return p.wait(events, true, deadline)
}

func (p *Poller) wait(events []Event, block bool, deadline time.Time) int {
	for {
		p.mu.Lock()
		n := 0
		for n < len(events) && p.head < len(p.ready) {
			reg := p.ready[p.head]
			p.ready[p.head] = nil
			p.head++
			// Clear queued before delivery: a push that lands after this
			// point re-queues the registration, and the consumer's drain
			// (which happens after) picks the data up either way.
			reg.queued.Store(false)
			if reg.removed.Load() {
				continue
			}
			events[n] = Event{Conn: reg.conn, Listener: reg.lis, Key: reg.key}
			n++
		}
		if p.head == len(p.ready) {
			p.ready = p.ready[:0]
			p.head = 0
		}
		closed := p.closed
		p.mu.Unlock()
		if n > 0 || !block || closed {
			return n
		}
		if deadline.IsZero() {
			<-p.sig
			continue
		}
		d := time.Until(deadline)
		if d <= 0 {
			return 0
		}
		t := time.NewTimer(d)
		select {
		case <-p.sig:
			t.Stop()
		case <-t.C:
			return 0
		}
	}
}

// Close wakes the Wait loop and stops accepting new deliveries.
// Registrations are left in place (their notifications become no-ops);
// endpoints remain usable through the blocking API.
func (p *Poller) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.sig)
	}
	p.mu.Unlock()
}

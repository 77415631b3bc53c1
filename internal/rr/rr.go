// Package rr implements the record/replay agent ReMon embeds in each
// replica to rein in the non-determinism of multi-threaded programs
// (§2.3): the master records the order of user-space synchronisation
// operations; the slaves replay that order, forcing all replicas through
// the same interleaving and hence the same system call sequences.
//
// The log is indexed by sequence position and wakes are targeted: a
// recorded event wakes only the replayers blocked on that exact position,
// and consuming an event wakes only the thread that owns the next one.
// The broadcast-everyone-and-rescan protocol this replaces cost O(waiters)
// wakeups per operation under the log mutex.
package rr

import (
	"sync"

	"remon/internal/model"
	"remon/internal/vkernel"
	"remon/internal/wait"
)

// Event is one recorded synchronisation operation.
type Event struct {
	LTID int    // logical thread performing the operation
	Obj  uint64 // synchronisation object identity (lock address, etc.)
	Kind uint8  // operation kind (lock, unlock, spawn, ...)
}

// Operation kinds.
const (
	OpLock uint8 = iota
	OpUnlock
	OpSpawn
	OpCustom
)

// Log is the shared record of synchronisation order, written by the
// master's agent and read by the slaves'.
type Log struct {
	mu     sync.Mutex
	events []Event
	closed bool
	// waiters are the replayers blocked until the next event exists. A
	// replayer awaits a position only when it has no event, and its
	// cursor never passes the end, so every waiter awaits len(events):
	// record's wake reaches exactly the replayers of the appended
	// position.
	waiters wait.Queue
	// subs are the replaying agents; record hands each newly appended
	// event to them (outside the log lock) so a thread parked on its
	// operation key is found even when its event is recorded after the
	// replay cursor already reached that position.
	subs []*Agent
}

// NewLog creates an empty log.
func NewLog() *Log { return &Log{} }

// Close marks the log finished (master exit); blocked slaves drain.
// Both wait populations are woken: position waiters (they observe closed
// in await) and key-parked replayers in every subscribed agent (they
// re-check the cursor, and run free once the remaining events are
// consumed or the cursor passes the end).
func (l *Log) Close() {
	l.mu.Lock()
	l.closed = true
	l.waiters.WakeAll(0)
	subs := l.subs
	l.mu.Unlock()
	for _, a := range subs {
		a.mu.Lock()
		a.wakeAllParked()
		a.mu.Unlock()
	}
}

// Len reports the number of recorded events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// record appends an event and wakes only the replayers awaiting its
// position, then offers the event to each replaying agent (whose turn
// owner may be parked on its key).
func (l *Log) record(e Event, vt model.Duration) {
	l.mu.Lock()
	pos := len(l.events)
	l.events = append(l.events, e)
	l.waiters.WakeAll(vt)
	subs := l.subs
	l.mu.Unlock()
	for _, a := range subs {
		a.notifyRecorded(pos, e, vt)
	}
}

// subscribe registers a replaying agent for record notifications.
func (l *Log) subscribe(a *Agent) {
	l.mu.Lock()
	l.subs = append(l.subs, a)
	l.mu.Unlock()
}

// get returns event pos if it exists (O(1) index), plus the closed flag.
func (l *Log) get(pos int) (e Event, exists, closed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if pos < len(l.events) {
		return l.events[pos], true, l.closed
	}
	return Event{}, false, l.closed
}

// await blocks until event pos exists; false when the log closed
// first. vt is the replayer's virtual time.
func (l *Log) await(pos int, vt model.Duration) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for pos >= len(l.events) && !l.closed {
		l.waiters.Park(&l.mu, "rr.record", vt)
	}
	return pos < len(l.events)
}

// Agent is one replica's record/replay agent.
type Agent struct {
	log    *Log
	master bool

	mu     sync.Mutex
	cursor int
	// keyWait holds, per (ltid, obj, kind), the threads waiting for
	// their operation's turn. Consuming an event wakes only the owner of
	// the next event — the replaced gate broadcast woke every parked
	// thread to re-check a cursor only one of them could advance.
	keyWait map[Event]*wait.Queue
	parked  int // threads currently waiting in keyWait
}

// NewAgent creates an agent. Exactly one agent per replica set records
// (the master's); the rest replay.
func NewAgent(log *Log, master bool) *Agent {
	a := &Agent{log: log, master: master, keyWait: map[Event]*wait.Queue{}}
	if !master {
		log.subscribe(a)
	}
	return a
}

// wakeAllParked releases every key-parked thread so it can re-examine
// the (now closed) log (a.mu held).
func (a *Agent) wakeAllParked() {
	for _, q := range a.keyWait {
		a.parked -= q.WakeAll(0)
	}
}

// notifyRecorded runs on the recording thread after event e landed at
// pos: if this agent's cursor is already there and e's owner is parked,
// hand it the turn. Lock order is always Agent.mu before Log.mu, and
// record calls this after releasing Log.mu, so no cycle exists.
func (a *Agent) notifyRecorded(pos int, e Event, vt model.Duration) {
	a.mu.Lock()
	if a.parked > 0 && a.cursor == pos {
		a.wakeKeyLocked(e, vt)
	}
	a.mu.Unlock()
}

// Master reports whether this agent records.
func (a *Agent) Master() bool { return a.master }

// wakeKeyLocked wakes one thread parked on e's key, if any (a.mu held).
func (a *Agent) wakeKeyLocked(e Event, vt model.Duration) {
	if q := a.keyWait[e]; q != nil {
		a.parked -= q.Wake(1, vt)
	}
}

// Sync orders one synchronisation operation. The master records and
// proceeds; a slave blocks until the replayed sequence reaches an event
// matching (ltid, obj, kind), preserving the recorded total order.
//
// Virtual time: recording costs CostRRRecord; replaying costs
// CostRRReplay per operation (§2.3's agent overhead).
func (a *Agent) Sync(t *vkernel.Thread, ltid int, obj uint64, kind uint8) {
	if a.master {
		t.Clock.Advance(model.CostRRRecord)
		a.log.record(Event{LTID: ltid, Obj: obj, Kind: kind}, t.Clock.Now())
		return
	}
	t.Clock.Advance(model.CostRRReplay)
	key := Event{LTID: ltid, Obj: obj, Kind: kind}
	a.mu.Lock()
	for {
		pos := a.cursor
		e, exists, closed := a.log.get(pos)
		if !exists {
			if closed {
				// Log closed: run free (master is gone; the monitor's
				// divergence machinery owns correctness now).
				a.mu.Unlock()
				return
			}
			// Event not recorded yet: wait on the log's position index,
			// outside the agent lock.
			a.mu.Unlock()
			if !a.log.await(pos, t.Clock.Now()) {
				return
			}
			a.mu.Lock()
			continue
		}
		if e == key {
			a.cursor++
			// Hand the turn to the owner of the next event, if it is
			// already parked. When the log is closed and drained past the
			// cursor, no further event will ever match a parked key —
			// release everyone to run free (Close's drain guarantee).
			if a.parked > 0 {
				if next, ok, closed := a.log.get(a.cursor); ok {
					a.wakeKeyLocked(next, t.Clock.Now())
				} else if closed {
					a.wakeAllParked()
				}
			}
			a.mu.Unlock()
			return
		}
		// Not our turn. Make sure the current event's owner is woken
		// (it may have parked before this event reached the cursor),
		// then park on our own key.
		a.wakeKeyLocked(e, t.Clock.Now())
		q := a.keyWait[key]
		if q == nil {
			q = new(wait.Queue)
			a.keyWait[key] = q
		}
		a.parked++
		q.Park(&a.mu, "rr.turn", t.Clock.Now())
	}
}

// The event-driven open-loop generator: N virtual connections driven by
// a fixed pool of poller event loops instead of driveOpenLoop's two
// goroutines per connection. Each connection is a small state machine —
// window tokens, Gap pacing on a hashed timer wheel, the same
// conservation / phantom / stamp audits — advanced only when its conn
// becomes readable (vnet.Poller) or one of its timers fires. The pool
// is what makes the million-connection campaign possible: goroutines
// are O(loops), not O(conns), and per-connection cost is a struct plus
// a poller registration.
package chaos

import (
	"sync"
	"sync/atomic"
	"time"

	"remon/internal/model"
	"remon/internal/vnet"
)

// Gen is one open-loop generation campaign against a front address.
// Run and RunSurge both lower onto it.
type Gen struct {
	// Net / Addr locate the front listener (fleet.FrontNetwork/FrontAddr).
	Net  *vnet.Network
	Addr string
	// PerConn shapes every connection. All shape fields must already be
	// positive (callers run withDefaults); Conns is ignored — the
	// campaign size is len(Arrivals).
	PerConn Load
	// Arrivals is the launch schedule: one sorted host-time offset from
	// campaign start per connection. All-zero offsets launch everything
	// at once (the fixed-capacity chaos Run); paced offsets shape an
	// offered-load rate (surge campaigns).
	Arrivals []time.Duration
	// Loops is the event-loop pool size (default 4). Total goroutine
	// cost of the campaign is exactly Loops.
	Loops int
	// Launched / Active, when non-nil, count connection launches
	// (cumulative) and in-flight connections (gauge) for samplers.
	Launched *atomic.Int64
	Active   *atomic.Int64
	// OnDone receives each connection's audited outcome as it completes.
	// Serialized by the engine; completion order, not launch order.
	OnDone func(ConnReport)

	mu sync.Mutex
}

// Run executes the campaign and blocks until every connection has
// completed (responded in full, errored, or timed out).
func (g *Gen) Run() {
	loops := g.Loops
	if loops <= 0 {
		loops = 4
	}
	if loops > len(g.Arrivals) && len(g.Arrivals) > 0 {
		loops = len(g.Arrivals)
	}
	req := make([]byte, g.PerConn.RequestSize)
	for i := range req {
		req[i] = byte('A' + i%26)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for li := 0; li < loops; li++ {
		// Stride the sorted schedule across loops so each loop's share
		// preserves the global pacing shape.
		var mine []time.Duration
		for i := li; i < len(g.Arrivals); i += loops {
			mine = append(mine, g.Arrivals[i])
		}
		if len(mine) == 0 {
			continue
		}
		wg.Add(1)
		go func(arrivals []time.Duration) {
			defer wg.Done()
			gl := &genLoop{
				g:        g,
				p:        vnet.NewPoller(),
				req:      req,
				start:    start,
				arrivals: arrivals,
			}
			gl.wheel.init(wheelTick, wheelSlots, start)
			gl.run()
		}(mine)
	}
	wg.Wait()
}

// emit hands a finished connection to the sink, serialized.
func (g *Gen) emit(r ConnReport) {
	if g.OnDone == nil {
		return
	}
	g.mu.Lock()
	g.OnDone(r)
	g.mu.Unlock()
}

// Timer-wheel shape: 512 slots of 100µs cover a 51.2ms horizon per
// round; farther deadlines (the 30s conn timeout) carry a round count.
const (
	wheelTick  = 100 * time.Microsecond
	wheelSlots = 512
)

const (
	tmSend    = iota // Gap pacing expired: try the next request
	tmDeadline       // conn timeout: finish with loss accounting
	tmConnect        // SYN retransmission: retry a backlog-refused connect
)

// Connect retransmission pacing: a backlog-full refusal retries on the
// wheel with exponential backoff. The loop must NEVER block in Connect —
// a saturated fleet fills the front backlog, and a blocked launch stops
// this loop's wheel, which stops the very deadlines that would cut the
// stuck connections and let the fleet recover.
const (
	connRetryStart = 2 * time.Millisecond
	connRetryCap   = 64 * time.Millisecond
)

type timerEnt struct {
	gc    *genConn
	kind  uint8
	round uint32
}

// timerWheel is a hashed wheel: add is O(1), advance scans only the
// slots whose time has passed. Entries are never cancelled — stale ones
// are dropped at fire via the conn's done/armed flags.
type timerWheel struct {
	tick  time.Duration
	slots [][]timerEnt
	cur   int
	curAt time.Time // host time of slot cur's boundary
	count int
}

func (w *timerWheel) init(tick time.Duration, slots int, now time.Time) {
	w.tick = tick
	w.slots = make([][]timerEnt, slots)
	w.curAt = now
}

func (w *timerWheel) add(at time.Time, e timerEnt) {
	ticks := int(at.Sub(w.curAt) / w.tick)
	if ticks < 1 {
		ticks = 1 // never the current slot: fires on the next advance
	}
	e.round = uint32(ticks / len(w.slots))
	slot := (w.cur + ticks) % len(w.slots)
	w.slots[slot] = append(w.slots[slot], e)
	w.count++
}

// advance walks slots up to now, firing due entries.
func (w *timerWheel) advance(now time.Time, fire func(timerEnt)) {
	for !w.curAt.Add(w.tick).After(now) {
		w.cur = (w.cur + 1) % len(w.slots)
		w.curAt = w.curAt.Add(w.tick)
		slot := w.slots[w.cur]
		if len(slot) == 0 {
			continue
		}
		keep := slot[:0]
		for _, e := range slot {
			if e.round > 0 {
				e.round--
				keep = append(keep, e)
				continue
			}
			w.count--
			fire(e)
		}
		w.slots[w.cur] = keep
	}
}

// genConn is one virtual connection's state machine. It mirrors
// driveOpenLoop exactly: up to Window requests outstanding, sends paced
// by Gap in host time, the virtual clock threaded through Send, and the
// same Lost / Phantom / Regressed / Admit accounting.
type genConn struct {
	key       uint64
	c         *vnet.Conn // nil until the (possibly retried) connect lands
	rep       ConnReport
	now       model.Duration // virtual send clock (threaded through Send)
	connStart time.Time
	deadline  time.Time
	gapAt     time.Time // earliest host time of the next send
	connGap   time.Duration // current SYN-retry backoff
	sent      int
	acked     int // complete responses (window tokens released)
	lastArrive model.Duration
	sendArmed bool // a tmSend entry is in the wheel
	sendDead  bool // Send errored: the reader/deadline records the loss
	done      bool
}

// genLoop is one event loop: a poller, a timer wheel, and the slice of
// connections it owns (indexed by poller cookie).
type genLoop struct {
	g        *Gen
	p        *vnet.Poller
	req      []byte
	start    time.Time
	arrivals []time.Duration // sorted launch offsets, consumed in order
	nextArr  int
	conns    []*genConn // key -> conn; nil once finished
	wheel    timerWheel
	live     int
}

func (gl *genLoop) run() {
	defer gl.p.Close()
	evs := make([]vnet.Event, 256)
	for gl.live > 0 || gl.nextArr < len(gl.arrivals) {
		now := time.Now()
		for gl.nextArr < len(gl.arrivals) && !now.Before(gl.start.Add(gl.arrivals[gl.nextArr])) {
			gl.nextArr++
			gl.launch()
		}
		gl.wheel.advance(now, gl.fire)
		if gl.live == 0 && gl.nextArr == len(gl.arrivals) {
			return
		}
		// Next wake: the earlier of the next launch and the next wheel
		// tick (a live conn always holds at least its deadline entry, so
		// the wheel is never empty while live > 0).
		deadline := gl.wheel.curAt.Add(gl.wheel.tick)
		if gl.wheel.count == 0 {
			deadline = gl.start.Add(gl.arrivals[gl.nextArr])
		} else if gl.nextArr < len(gl.arrivals) {
			if at := gl.start.Add(gl.arrivals[gl.nextArr]); at.Before(deadline) {
				deadline = at
			}
		}
		n := gl.p.WaitDeadline(evs, deadline)
		for i := 0; i < n; i++ {
			key := evs[i].Key
			if key < uint64(len(gl.conns)) {
				if gc := gl.conns[key]; gc != nil {
					gl.onReadable(gc)
				}
			}
		}
	}
}

// launch registers one connection and starts its non-blocking connect.
// The conn is live (deadline armed) from its arrival instant: a connect
// that never lands is finished by the deadline with full loss, exactly
// as a client that gave up waiting for SYN-ACK.
func (gl *genLoop) launch() {
	if gl.g.Launched != nil {
		gl.g.Launched.Add(1)
	}
	load := gl.g.PerConn
	connStart := time.Now()
	gc := &genConn{
		key:       uint64(len(gl.conns)),
		now:       0,
		connStart: connStart,
		deadline:  connStart.Add(load.Timeout),
		gapAt:     connStart,
		connGap:   connRetryStart,
	}
	gl.conns = append(gl.conns, gc)
	gl.live++
	if gl.g.Active != nil {
		gl.g.Active.Add(1)
	}
	gl.wheel.add(gc.deadline, timerEnt{gc: gc, kind: tmDeadline})
	gl.tryConnect(gc)
}

// tryConnect attempts the non-blocking connect. A full accept backlog
// re-arms the attempt on the wheel with exponential backoff (SYN
// retransmission in event form); any other refusal is terminal.
func (gl *genLoop) tryConnect(gc *genConn) {
	c, vnow, err := gl.g.Net.TryConnect(gl.g.Addr, 0)
	if err == vnet.ErrBacklogFull {
		gl.wheel.add(time.Now().Add(gc.connGap), timerEnt{gc: gc, kind: tmConnect})
		if gc.connGap *= 2; gc.connGap > connRetryCap {
			gc.connGap = connRetryCap
		}
		return
	}
	if err != nil {
		gc.rep.Err = "connect: " + err.Error()
		gl.finish(gc)
		return
	}
	gc.c = c
	gc.now = vnow
	gc.rep.Addr = c.LocalAddr()
	if err := gl.p.AddConn(c, gc.key); err != nil {
		gc.rep.Err = err.Error()
		gl.finish(gc)
		return
	}
	gl.trySend(gc, time.Now())
}

// trySend issues the next request if the window is open and Gap has
// elapsed, then arms the pacing timer for the one after. At most one
// tmSend entry per conn is ever in the wheel (sendArmed).
func (gl *genLoop) trySend(gc *genConn, now time.Time) {
	load := gl.g.PerConn
	if gc.done || gc.sendDead || gc.sent >= load.RequestsPerConn || gc.sent-gc.acked >= load.Window {
		return
	}
	if !now.Before(gc.gapAt) {
		at, err := gc.c.Send(gl.req, gc.now)
		if err != nil {
			// The conn was cut under us; the RX side (or the deadline)
			// records the loss — mirrors driveOpenLoop's writer bailing.
			gc.sendDead = true
			return
		}
		gc.now = at
		gc.sent++
		gc.gapAt = now.Add(load.Gap)
	}
	if !gc.sendArmed && gc.sent < load.RequestsPerConn && gc.sent-gc.acked < load.Window {
		gc.sendArmed = true
		gl.wheel.add(gc.gapAt, timerEnt{gc: gc, kind: tmSend})
	}
}

func (gl *genLoop) fire(e timerEnt) {
	gc := e.gc
	switch e.kind {
	case tmSend:
		gc.sendArmed = false
		if !gc.done {
			gl.trySend(gc, time.Now())
		}
	case tmConnect:
		if !gc.done {
			gl.tryConnect(gc)
		}
	case tmDeadline:
		if !gc.done {
			gl.finish(gc)
		}
	}
}

// onReadable drains the conn to ErrWouldBlock, auditing every segment —
// the reader half of driveOpenLoop, minus the sleep-poll.
func (gl *genLoop) onReadable(gc *genConn) {
	load := gl.g.PerConn
	want := load.RequestsPerConn * load.ResponseSize
	for {
		data, at, err := gc.c.RecvSeg(false)
		if err == vnet.ErrWouldBlock {
			break
		}
		if err != nil {
			gc.rep.Err = err.Error()
			gl.finish(gc)
			return
		}
		if data == nil {
			gc.rep.Err = "premature EOF"
			gl.finish(gc)
			return
		}
		if at < gc.lastArrive {
			gc.rep.Regressed = true
		}
		gc.lastArrive = at
		gc.rep.RespBytes += len(data)
		if gc.rep.Admit == 0 && gc.rep.RespBytes >= load.ResponseSize {
			gc.rep.Admit = time.Since(gc.connStart)
		}
		// Phantom check: bytes may only arrive for requests already sent.
		if int64(gc.rep.RespBytes) > int64(gc.sent)*int64(load.ResponseSize) {
			gc.rep.Phantom = true
		}
		gc.acked = gc.rep.RespBytes / load.ResponseSize
		if gc.rep.RespBytes >= want {
			gl.finish(gc)
			return
		}
	}
	// Completed responses freed window tokens: the writer half runs.
	gl.trySend(gc, time.Now())
}

// finish closes out one connection with driveOpenLoop's exact loss
// accounting and streams the report to the sink.
func (gl *genLoop) finish(gc *genConn) {
	load := gl.g.PerConn
	gc.done = true
	if gc.c != nil {
		gl.p.RemoveConn(gc.c)
		gc.c.Close()
	} else if gc.rep.Err == "" {
		gc.rep.Err = "connect: " + vnet.ErrBacklogFull.Error() + " (gave up at deadline)"
	}
	gl.conns[gc.key] = nil
	gl.live--
	if gl.g.Active != nil {
		gl.g.Active.Add(-1)
	}
	r := gc.rep
	r.Sent = gc.sent
	if missing := gc.sent*load.ResponseSize - r.RespBytes; missing > 0 {
		r.Lost = (missing + load.ResponseSize - 1) / load.ResponseSize
	}
	// Requests never written because the conn died early count as lost
	// too — the client accepted them into its send loop.
	r.Lost += load.RequestsPerConn - gc.sent
	gl.g.emit(r)
}

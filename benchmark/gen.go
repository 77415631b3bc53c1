package main

import (
	"container/heap"
	"runtime"
	"time"

	"remon/internal/model"
	"remon/internal/vnet"
)

// The open-loop generator: one goroutine, a sorted arrival schedule, a
// non-blocking connect per arrival and one vnet.Poller for every response.
// A connection is timed from the instant it was due, not from when the
// generator got round to launching it, so a stall anywhere (the fleet or
// the generator itself) shows as latency on the connections it delayed;
// how late launches ran is reported beside the results.

// genConfig describes one campaign.
type genConfig struct {
	net  *vnet.Network
	addr string
	// arrivals are the connections' due times as sorted offsets from the
	// start of the campaign.
	arrivals    []time.Duration
	req         []byte
	respSize    int
	reqsPerConn int
	window      int // requests a connection keeps outstanding
	timeout     time.Duration
	// tick is how often completed connections are handed to sink.
	tick time.Duration
	tr   *tracer
}

// genResult is the campaign's audit and the generator's own health.
type genResult struct {
	lateNs         []int64 // launch time minus due time, per connection
	activeAtEnd    int     // connections still in flight when the schedule ended
	goroutinesPeak int
	// Conservation, over all connections: sent = answered + lost.
	sent, answered, lost int
	// wrong is set when any connection failed its content check.
	wrong bool
}

type genConn struct {
	c         *vnet.Conn
	key       uint64
	due       time.Time
	vnow      model.Duration // virtual send clock, threaded through Send
	sent      int
	respBytes int
	retry     time.Duration // current connect back-off
	span      int
	done      bool
	wrong     bool // a response byte differed, or bytes came for a request never sent
}

const (
	timerConnect = iota // retry a connect the full backlog refused
	timerDeadline
)

type genTimer struct {
	at   time.Time
	gc   *genConn
	kind int
}

type timerHeap []genTimer

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h timerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)        { *h = append(*h, x.(genTimer)) }
func (h *timerHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

// Connect retries: a full accept backlog is a dropped SYN. The generator
// must never block in connect — that would stop the clock that times out
// the stuck connections — so the retry goes on the timer heap.
const (
	connectRetryStart = 2 * time.Millisecond
	connectRetryCap   = 64 * time.Millisecond
)

type generator struct {
	cfg    genConfig
	p      *vnet.Poller
	conns  []*genConn // poller key -> connection, nil once finished
	timers timerHeap
	live   int
	cur    batch
	res    genResult
}

// runGenerator drives the campaign to completion: every connection is
// answered in full, cut, or timed out. Batches go to sink every tick.
func runGenerator(cfg genConfig, sink func(batch)) genResult {
	g := &generator{cfg: cfg, p: vnet.NewPoller()}
	defer g.p.Close()
	g.res.lateNs = make([]int64, 0, len(cfg.arrivals))
	start := time.Now()
	tickStart, nextTick := start, start.Add(cfg.tick)
	evs := make([]vnet.Event, 256)
	next := 0
	flush := func(now time.Time) {
		g.cur.Busy = int64(now.Sub(tickStart))
		sink(g.cur)
		g.cur = batch{}
		tickStart, nextTick = now, now.Add(cfg.tick)
		if n := runtime.NumGoroutine(); n > g.res.goroutinesPeak {
			g.res.goroutinesPeak = n
		}
	}
	for g.live > 0 || next < len(cfg.arrivals) {
		now := time.Now()
		for next < len(cfg.arrivals) && !now.Before(start.Add(cfg.arrivals[next])) {
			g.launch(start.Add(cfg.arrivals[next]), now)
			next++
			if next == len(cfg.arrivals) {
				g.res.activeAtEnd = g.live
			}
		}
		for len(g.timers) > 0 && !g.timers[0].at.After(now) {
			g.fire(heap.Pop(&g.timers).(genTimer))
		}
		if !now.Before(nextTick) {
			flush(now)
		}
		if g.live == 0 && next == len(cfg.arrivals) {
			break
		}
		wake := nextTick
		if next < len(cfg.arrivals) {
			if at := start.Add(cfg.arrivals[next]); at.Before(wake) {
				wake = at
			}
		}
		if len(g.timers) > 0 && g.timers[0].at.Before(wake) {
			wake = g.timers[0].at
		}
		n := g.wait(evs, wake)
		for i := 0; i < n; i++ {
			if gc := g.conns[evs[i].Key]; gc != nil {
				g.onReadable(gc)
			}
		}
	}
	flush(time.Now())
	return g.res
}

// spinWindow is how close the next deadline must be for the generator to
// poll instead of sleep. A sleeping goroutine on an idle P is woken by the
// runtime's network poller, whose time-out has millisecond granularity:
// sleeping to a deadline launches up to 1 ms late, which is more than a
// connection takes. Polling yields between looks, so the fleet's own
// goroutines run whenever they can.
const spinWindow = 2 * time.Millisecond

func (g *generator) wait(evs []vnet.Event, wake time.Time) int {
	for {
		if n := g.p.Wait(evs, false); n > 0 {
			return n
		}
		left := time.Until(wake)
		if left <= 0 {
			return 0
		}
		if left > spinWindow {
			return g.p.WaitDeadline(evs, wake.Add(-spinWindow/2))
		}
		runtime.Gosched()
	}
}

func (g *generator) launch(due, now time.Time) {
	gc := &genConn{key: uint64(len(g.conns)), due: due, retry: connectRetryStart}
	g.conns = append(g.conns, gc)
	g.live++
	g.res.lateNs = append(g.res.lateNs, int64(now.Sub(due)))
	gc.span = g.cfg.tr.begin(spOp, -1, int(gc.key))
	heap.Push(&g.timers, genTimer{at: due.Add(g.cfg.timeout), gc: gc, kind: timerDeadline})
	g.connect(gc)
}

func (g *generator) connect(gc *genConn) {
	sp := g.cfg.tr.begin(spGenConnect, gc.span, int(gc.key))
	c, vnow, err := g.cfg.net.TryConnect(g.cfg.addr, 0)
	g.cfg.tr.end(sp)
	if err == vnet.ErrBacklogFull {
		heap.Push(&g.timers, genTimer{at: time.Now().Add(gc.retry), gc: gc, kind: timerConnect})
		if gc.retry *= 2; gc.retry > connectRetryCap {
			gc.retry = connectRetryCap
		}
		return
	}
	if err != nil {
		g.finish(gc, kindVerdict)
		return
	}
	gc.c, gc.vnow = c, vnow
	if err := g.p.AddConn(c, gc.key); err != nil {
		g.finish(gc, kindWrong)
		return
	}
	g.send(gc)
}

// send keeps up to window requests outstanding.
func (g *generator) send(gc *genConn) {
	cfg := g.cfg
	for gc.sent < cfg.reqsPerConn && gc.sent-gc.respBytes/cfg.respSize < cfg.window {
		sp := cfg.tr.begin(spGenSend, gc.span, int(gc.key))
		at, err := gc.c.Send(cfg.req, gc.vnow)
		cfg.tr.end(sp)
		if err != nil {
			return // cut under us: the read side or the deadline records it
		}
		gc.vnow = at
		gc.sent++
	}
}

func (g *generator) fire(t genTimer) {
	if t.gc.done {
		return
	}
	switch t.kind {
	case timerConnect:
		g.connect(t.gc)
	case timerDeadline:
		g.finish(t.gc, kindHang)
	}
}

// onReadable drains the connection, checking every byte against the
// server's response pattern.
func (g *generator) onReadable(gc *genConn) {
	cfg := g.cfg
	want := cfg.reqsPerConn * cfg.respSize
	for {
		data, _, err := gc.c.RecvSeg(false)
		if err == vnet.ErrWouldBlock {
			break
		}
		if err != nil || data == nil { // reset, or EOF before the last response
			g.finish(gc, kindVerdict)
			return
		}
		for i, b := range data {
			if b != byte('a'+((gc.respBytes+i)%cfg.respSize)%26) {
				gc.wrong = true
			}
		}
		gc.respBytes += len(data)
		if gc.respBytes > gc.sent*cfg.respSize {
			gc.wrong = true
		}
		if gc.respBytes >= want {
			g.finish(gc, "")
			return
		}
	}
	g.send(gc)
}

// finish closes out one connection and audits it.
func (g *generator) finish(gc *genConn, kind string) {
	cfg := g.cfg
	gc.done = true
	if gc.c != nil {
		g.p.RemoveConn(gc.c)
		gc.c.Close()
	}
	g.conns[gc.key] = nil
	g.live--
	answered := gc.respBytes / cfg.respSize
	g.res.sent += gc.sent
	g.res.answered += answered
	g.res.lost += gc.sent - answered
	if gc.wrong || (kind == "" && (gc.sent != cfg.reqsPerConn || gc.respBytes != cfg.reqsPerConn*cfg.respSize)) {
		kind = kindWrong
		g.res.wrong = true
	}
	cfg.tr.end(gc.span)
	if kind != "" {
		if g.cur.Fail == nil {
			g.cur.Fail = map[string]int{}
		}
		g.cur.Fail[kind]++
		return
	}
	g.cur.OK = append(g.cur.OK, int64(time.Since(gc.due)))
}

// arrivalSchedule spreads n = rate x dur connections over dur, one per slot of
// 1/rate, each at a seeded random point inside its slot: jittered, sorted
// by construction, and the same for the same seed.
func arrivalSchedule(seed uint64, rate float64, dur time.Duration) []time.Duration {
	n := int(rate * dur.Seconds())
	rng := model.NewRNG(seed ^ 0xA11CE)
	slot := float64(time.Second) / rate
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration((float64(i) + rng.Float64()) * slot)
	}
	return out
}

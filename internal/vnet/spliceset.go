// The splice event loops. A SpliceSet drives every splice registered
// with it from a fixed pool of poller event loops — K goroutines for N
// connections, the balancer-side half of the million-connection engine.
// Forwarding is zero-copy segment transfer with arrival stamps
// preserved, EOF propagates as a one-way FIN, and a reset or
// send-failure aborts both sides. One per-segment step carries every
// splice, and framed splices retain requests in it for the handoff
// protocol (splice.go).
package vnet

import (
	"sync"
	"sync/atomic"
)

// spliceLoop is one event loop: a poller plus the splices it drives,
// keyed by direction (even keys forward a -> b, odd keys b -> a).
type spliceLoop struct {
	p       *Poller
	mu      sync.Mutex
	dirs    map[uint64]*Splice
	nextKey uint64
}

// SpliceSet drives splices from a fixed pool of event loops.
type SpliceSet struct {
	loops  []*spliceLoop
	next   atomic.Uint64
	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewSpliceSet starts a set with the given number of event loops
// (minimum 1). Callers must Close it after the last splice finishes.
func NewSpliceSet(loops int) *SpliceSet {
	if loops <= 0 {
		loops = 1
	}
	ss := &SpliceSet{}
	for i := 0; i < loops; i++ {
		lp := &spliceLoop{p: NewPoller(), dirs: map[uint64]*Splice{}}
		ss.loops = append(ss.loops, lp)
		ss.wg.Add(1)
		go lp.run(ss)
	}
	return ss
}

// Splice forwards between a and b on one of the set's event loops:
// NewSplice followed immediately by Start. Use the two-step form when
// bookkeeping must see the splice before its first event (and therefore
// before onDone) can fire, or to SetFraming.
func (ss *SpliceSet) Splice(a, b *Conn, onDone func(*Splice)) *Splice {
	s := ss.NewSplice(a, b, onDone)
	ss.Start(s)
	return s
}

// NewSplice creates an inert splice between a and b. Nothing is
// forwarded — and onDone cannot fire — until Start; callers register
// the splice with their own accounting in between. Both conns must be
// unregistered with any poller (fresh Connect/Accept endpoints are).
// The splice owns both connections from Start on: when either side
// resets, both are closed. onDone, if non-nil, runs on the event loop
// once both directions have terminated.
func (ss *SpliceSet) NewSplice(a, b *Conn, onDone func(*Splice)) *Splice {
	s := &Splice{a: a, b: b, onDone: onDone, dirsLeft: 2}
	s.retained = s.retBuf[:0]
	lp := ss.loops[int(ss.next.Add(1)-1)%len(ss.loops)]
	s.loop = lp
	lp.mu.Lock()
	s.keyFwd = lp.nextKey
	lp.nextKey += 2
	lp.dirs[s.keyFwd] = s
	lp.dirs[s.keyFwd+1] = s
	lp.mu.Unlock()
	return s
}

// Start arms a NewSplice-created splice on its event loop: both
// directions register with the poller. Data queued before Start (or an
// Abort called in between) is picked up by the initial
// ready-before-register event. Call exactly once per splice; a conn
// already registered with a poller is a caller bug and panics.
func (ss *SpliceSet) Start(s *Splice) {
	p := s.loop.p
	if p.AddConn(s.a, s.keyFwd) != nil || p.AddConn(s.b, s.keyFwd+1) != nil {
		panic("vnet: splice conn already registered with a poller")
	}
}

// Discard unwinds a NewSplice-created splice that was never Started —
// the balancer's re-route path when shard admission goes stale between
// building the splice and registering it. The inert splice has moved no
// bytes and armed no poller, so discarding is pure bookkeeping: both
// direction entries leave the loop's table, neither conn is touched,
// and onDone never fires. Exclusive with Start.
func (ss *SpliceSet) Discard(s *Splice) {
	lp := s.loop
	lp.mu.Lock()
	delete(lp.dirs, s.keyFwd)
	delete(lp.dirs, s.keyFwd+1)
	lp.mu.Unlock()
}

// Close stops the event loops after draining already-queued events.
// Splices still in flight stop being driven — callers stop creating
// splices and Abort stragglers before closing the set.
func (ss *SpliceSet) Close() {
	if !ss.closed.CompareAndSwap(false, true) {
		return
	}
	for _, lp := range ss.loops {
		lp.p.Close()
	}
	ss.wg.Wait()
}

func (lp *spliceLoop) run(ss *SpliceSet) {
	defer ss.wg.Done()
	events := make([]Event, 128)
	for {
		n := lp.p.Wait(events, true)
		if n == 0 {
			return // poller closed and backlog drained
		}
		for i := 0; i < n; i++ {
			lp.handle(events[i].Key)
		}
	}
}

// handle drains one direction to ErrWouldBlock — the edge-triggered
// consumer contract. Stale events for finished directions miss the map
// and fall through. Each segment step runs under s.mu — Freeze's
// acknowledgement — and re-resolves the endpoints (Handoff swaps the
// back conn). A frozen direction (or, response-side, one whose back
// conn died awaiting a successor) returns without draining. The last
// direction's retirement is counted under s.mu too, so Freeze never
// freezes a splice that has already finished.
func (lp *spliceLoop) handle(key uint64) {
	lp.mu.Lock()
	s := lp.dirs[key]
	lp.mu.Unlock()
	if s == nil {
		return
	}
	rev := key&1 == 1
	for {
		s.mu.Lock()
		if !s.aborted && (s.frozen || rev && s.backDead) {
			s.mu.Unlock()
			return // parked: data stays queued until a kick resumes it
		}
		src, dst := s.a, s.b
		if rev {
			src, dst = s.b, s.a
		}
		data, arrive, err := src.RecvSeg(false)
		if err == ErrWouldBlock {
			s.mu.Unlock()
			return
		}
		if err == nil && data != nil {
			if _, err = dst.SendSeg(data, arrive); err == nil {
				s.forwardLocked(data, arrive, rev)
				s.mu.Unlock()
				continue
			}
		} else if rev && s.framed() && !s.aborted && !s.frontFIN {
			// The back conn hit EOF or reset before the client's FIN
			// crossed: the backend died mid-conversation. Propagating it
			// would cut a client whose responses are still owed, so park
			// until a Handoff (or Abort). A back-side FIN after the
			// client's is ordinary teardown and flows through below.
			s.backDead = true
			s.mu.Unlock()
			return
		}
		// A FIN propagates one way; a reset or send failure cuts both
		// sides.
		var cut *Conn
		if err == nil {
			if !rev {
				s.frontFIN = true
			}
			dst.CloseWrite()
		} else if !s.aborted {
			s.aborted = true
			cut = s.b
		}
		s.dirsLeft--
		last := s.dirsLeft == 0
		s.mu.Unlock()
		if cut != nil {
			s.a.Close()
			cut.Close()
		}
		lp.retire(s, key, src, last)
		return
	}
}

// retire removes one finished direction from the loop; last (the
// splice's second retirement) runs the completion callback.
func (lp *spliceLoop) retire(s *Splice, key uint64, src *Conn, last bool) {
	lp.mu.Lock()
	delete(lp.dirs, key)
	lp.mu.Unlock()
	lp.p.RemoveConn(src)
	if last && s.onDone != nil {
		s.onDone(s)
	}
}

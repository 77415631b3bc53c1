// The splice forwarder: the virtual load balancer's data plane. A splice
// moves bytes between two established connections — typically a front-end
// connection accepted from a client and a back-end connection opened to a
// server shard — rewriting addresses implicitly (each side only ever sees
// the balancer-owned endpoint) while carrying virtual arrival stamps
// through unchanged, so end-to-end virtual time stays exact: the client is
// charged both hops' link costs and nothing else.
//
// Every splice is driven by a SpliceSet event loop (spliceset.go). A
// splice armed with EnableHandoff additionally supports live migration:
// it retains every forwarded request segment until the matching response
// has been delivered (the FIFO request/response ack protocol), can be
// Frozen at a segment boundary, and Handoff re-splices the front conn
// onto a successor backend — harvesting responses still queued at the
// dead backend, replaying the unacked request tail with original arrival
// stamps, and resuming mid-flight. Zero-loss shard failover is built on
// exactly this.
//
// On an event loop, freezing a direction just means not draining it: the
// loop handles a retaining splice's segments one at a time under the
// splice's lock, and a frozen direction returns without reading, so its
// data stays queued in the rx queue. Because the poller is
// edge-triggered, whatever resumes the splice (Unfreeze, Handoff) kicks
// both directions.
package vnet

import (
	"errors"
	"sync"
	"sync/atomic"

	"remon/internal/model"
)

// Handoff errors.
var (
	// ErrNotFrozen: Handoff requires a completed Freeze.
	ErrNotFrozen = errors.New("vnet: splice not frozen")
	// ErrSpliceAborted: the splice was cut before the handoff landed.
	ErrSpliceAborted = errors.New("vnet: splice aborted")
)

// retSeg is one retained (forwarded but not yet acknowledged) request
// segment. The payload aliases the transmitted slice — nothing mutates
// a segment after send, so a replay can hand the same backing bytes to
// a successor backend.
type retSeg struct {
	data   []byte
	arrive model.Duration
}

// handoffState is the migration half of a handoff-capable splice. mu
// also serialises the event loop's per-segment steps for the splice, so
// holding it means no segment is between the two conns.
type handoffState struct {
	reqSize, respSize int

	mu sync.Mutex
	// frozen stops the loop draining either direction; set by Freeze,
	// cleared by Handoff/Unfreeze.
	frozen bool
	// backDead parks the response direction when the back conn died
	// mid-conversation (shard death): propagating that FIN would cut the
	// client, and the supervisor's handoff (or abort) is on its way.
	backDead bool
	// frontFIN records that the request direction saw the client's FIN —
	// the signal that a subsequent back-side FIN is ordinary teardown.
	frontFIN bool

	// retained is the unacked request log (FIFO); ackedReq / respBytes
	// are cumulative trim positions: every complete response releases
	// one request's worth of retained bytes.
	retained      []retSeg
	retainedBytes int
	respBytes     uint64
	ackedReq      uint64
	replayed      uint64
	lastStamp     model.Duration
}

// Splice is one bidirectional forwarding session between two connections.
type Splice struct {
	a *Conn // front (fixed for the splice's lifetime)
	b *Conn // back (swapped by Handoff, under h.mu)

	loop   *spliceLoop
	keyFwd uint64 // poller key of a -> b; keyFwd+1 is b -> a
	// onDone runs on the event loop once both directions have finished,
	// just before Done is closed.
	onDone func(*Splice)

	done     chan struct{}
	closing  sync.Once
	aborted  atomic.Bool
	dirsLeft atomic.Int32 // directions not yet finished

	fwdBytes atomic.Uint64 // a -> b
	revBytes atomic.Uint64 // b -> a

	h *handoffState // nil unless EnableHandoff armed the protocol
}

// EnableHandoff arms the live-migration protocol on an inert splice (call
// between SpliceSet.NewSplice and Start) for a reqSize/respSize framed
// request/response protocol — the retention trim rule: one complete
// response acknowledges one request's bytes.
func (s *Splice) EnableHandoff(reqSize, respSize int) {
	s.h = &handoffState{reqSize: reqSize, respSize: respSize}
}

// ackLocked accounts n delivered response bytes and trims the acked
// prefix of the retained request log: every complete response releases
// reqSize retained bytes (the FIFO request/response protocol the shard
// servers run). h.mu must be held.
func (h *handoffState) ackLocked(n int) {
	h.respBytes += uint64(n)
	if h.respSize <= 0 || h.reqSize <= 0 {
		return
	}
	target := h.respBytes / uint64(h.respSize) * uint64(h.reqSize)
	for h.ackedReq < target && len(h.retained) > 0 {
		seg := &h.retained[0]
		take := uint64(len(seg.data))
		if h.ackedReq+take > target {
			take = target - h.ackedReq
			seg.data = seg.data[take:]
			h.ackedReq += take
			h.retainedBytes -= int(take)
			break
		}
		h.ackedReq += take
		h.retainedBytes -= int(take)
		h.retained[0] = retSeg{}
		h.retained = h.retained[1:]
	}
	if len(h.retained) == 0 {
		h.retained = nil
	}
}

// Freeze quiesces a handoff-capable splice at a segment boundary: the
// owning loop forwards each segment under h.mu, so once Freeze holds it
// no segment is in flight between the two conns, and every later step
// sees the flag and leaves its data queued. The retained/ack accounting
// is stable from then on. Reports false — nothing to migrate — when the
// splice is not handoff-capable, was aborted, or has already finished
// both directions. On success the splice stays frozen until Handoff or
// Unfreeze.
func (s *Splice) Freeze() bool {
	h := s.h
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if s.aborted.Load() || s.dirsLeft.Load() == 0 {
		return false
	}
	h.frozen = true
	return true
}

// Unfreeze resumes a frozen splice in place (no backend swap).
func (s *Splice) Unfreeze() {
	h := s.h
	if h == nil {
		return
	}
	h.mu.Lock()
	h.frozen = false
	b := s.b
	h.mu.Unlock()
	s.a.rx.kick()
	b.rx.kick()
}

// Handoff re-splices the frozen front conn onto newBack, the successor
// backend, and resumes the splice. Steps, in order:
//
//  1. Harvest: response segments the dead backend emitted before dying
//     still sit in the old back endpoint's receive queue; they are
//     forwarded to the front conn with their original arrival stamps and
//     acked into the retention trim, so their requests are not replayed.
//  2. Replay: the unacked request tail is re-sent to newBack, original
//     stamps preserved. The segments stay retained — they ack out only
//     when their responses arrive, so a successor that dies too gets the
//     same replay from the next handoff. A client FIN that already
//     crossed is re-sent after the tail.
//  3. Swap and resume: newBack becomes the splice's back conn and takes
//     over the response direction's registration on the same loop (this
//     happens first, so a failed step leaves a splice Abort can retire),
//     the old one is closed, and both directions are kicked.
//
// The caller must only invoke Handoff after the old backend can no
// longer transmit (replica set unwound): a segment pushed after the
// harvest would be lost while its request double-executes on the
// successor. Returns harvested/replayed byte counts.
func (s *Splice) Handoff(newBack *Conn) (harvested, replayed int, err error) {
	h := s.h
	if h == nil {
		return 0, 0, ErrNotFrozen
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if s.aborted.Load() {
		return 0, 0, ErrSpliceAborted
	}
	if !h.frozen {
		return 0, 0, ErrNotFrozen
	}
	if err := s.loop.p.AddConn(newBack, s.keyFwd+1); err != nil {
		return 0, 0, err
	}
	// newBack owns the response direction from here, so an Abort after a
	// failed harvest or replay still retires it through the loop.
	old := s.b
	s.loop.p.RemoveConn(old)
	defer old.Close()
	s.b = newBack
	h.backDead = false

	for {
		data, arrive, rerr := old.rx.popSeg(false)
		if rerr != nil || data == nil {
			break
		}
		if arrive > h.lastStamp {
			h.lastStamp = arrive
		}
		s.revBytes.Add(uint64(len(data)))
		if _, serr := s.a.SendSeg(data, arrive); serr != nil {
			return harvested, 0, serr
		}
		harvested += len(data)
		h.ackLocked(len(data))
	}

	for _, seg := range h.retained {
		if len(seg.data) == 0 {
			continue
		}
		if _, serr := newBack.SendSeg(seg.data, seg.arrive); serr != nil {
			return harvested, replayed, serr
		}
		replayed += len(seg.data)
		h.replayed += uint64(len(seg.data))
	}
	if h.frontFIN {
		newBack.CloseWrite()
	}

	h.frozen = false
	s.a.rx.kick()
	newBack.rx.kick()
	return harvested, replayed, nil
}

// Abort force-closes both sides; in-flight data already queued at either
// receiver still drains. Safe to call from any goroutine, any number of
// times — the supervisor uses it to cut a quarantined shard's
// connections (and as the degradation path when a handoff fails). The
// close events wake the loop, which retires both directions (frozen or
// parked ones too), so Done still fires.
func (s *Splice) Abort() {
	s.closing.Do(func() {
		s.aborted.Store(true)
		b := s.b
		if h := s.h; h != nil {
			h.mu.Lock()
			b = s.b
			h.mu.Unlock()
		}
		s.a.Close()
		b.Close()
	})
}

// Done is closed once both directions have terminated.
func (s *Splice) Done() <-chan struct{} { return s.done }

// Transferred reports total forwarded bytes (front->back, back->front).
func (s *Splice) Transferred() (fwd, rev uint64) {
	return s.fwdBytes.Load(), s.revBytes.Load()
}

// ClientAddr reports the far address of the front conn — the client's
// ephemeral endpoint, the key affinity routing re-pins a handoff with.
func (s *Splice) ClientAddr() string { return s.a.RemoteAddr() }

// LastStamp reports the latest virtual arrival stamp the splice has
// forwarded in either direction; handoff uses it as the successor
// connection's virtual establishment time so the migrated stream's
// timeline stays continuous. Zero on splices without handoff.
func (s *Splice) LastStamp() model.Duration {
	if s.h == nil {
		return 0
	}
	s.h.mu.Lock()
	defer s.h.mu.Unlock()
	return s.h.lastStamp
}

// Replayed reports total request bytes re-sent across all handoffs.
func (s *Splice) Replayed() uint64 {
	if s.h == nil {
		return 0
	}
	s.h.mu.Lock()
	defer s.h.mu.Unlock()
	return s.h.replayed
}

// Outstanding reports retained request bytes not yet acknowledged by a
// complete response — the replay set a handoff would re-send right now.
func (s *Splice) Outstanding() int {
	if s.h == nil {
		return 0
	}
	s.h.mu.Lock()
	defer s.h.mu.Unlock()
	return s.h.retainedBytes
}

// The splice forwarder: the virtual load balancer's data plane. A splice
// moves bytes between two established connections — typically a front-end
// connection accepted from a client and a back-end connection opened to a
// server shard — rewriting addresses implicitly (each side only ever sees
// the balancer-owned endpoint) while carrying virtual arrival stamps
// through unchanged, so end-to-end virtual time stays exact: the client is
// charged both hops' link costs and nothing else.
//
// Every splice is driven by a SpliceSet event loop (spliceset.go), and
// every splice supports live migration. A splice framed for a
// request/response protocol (SetFraming) retains each forwarded request
// segment until the matching response has been delivered (the FIFO
// request/response ack protocol), can be Frozen at a segment boundary,
// and Handoff re-splices the front conn onto a successor backend —
// harvesting responses still queued at the dead backend, replaying the
// unacked request tail with original arrival stamps, and resuming
// mid-flight. Zero-loss shard failover is built on exactly this. A
// splice with no framing retains nothing and refuses Freeze.
//
// On an event loop, freezing a direction just means not draining it: the
// loop handles a splice's segments one at a time under the splice's
// lock, and a frozen direction returns without reading, so its data
// stays queued in the rx queue. Because the poller is edge-triggered,
// whatever resumes the splice (Unfreeze, Handoff) kicks both directions.
package vnet

import (
	"errors"
	"sync"

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

// Splice is one bidirectional forwarding session between two connections.
type Splice struct {
	a *Conn // front (fixed for the splice's lifetime)

	loop   *spliceLoop
	keyFwd uint64 // poller key of a -> b; keyFwd+1 is b -> a
	// onDone runs on the event loop once both directions have finished.
	onDone func(*Splice)
	// reqSize/respSize frame the request/response protocol the retention
	// trim follows: one complete response acknowledges one request's
	// bytes. Zero (unframed) retains nothing and refuses Freeze.
	reqSize, respSize int32

	// mu serialises the event loop's per-segment steps with Freeze,
	// Handoff and Abort: holding it means no segment is between the two
	// conns. Everything below is guarded by it.
	mu sync.Mutex
	b  *Conn // back (swapped by Handoff)
	// aborted: Abort (or a reset) cut the splice.
	aborted bool
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
	dirsLeft int8 // directions not yet finished

	// retained is the unacked request log (FIFO), backed by the inline
	// retBuf until more than two segments are outstanding; ackedReq /
	// respBytes are cumulative trim positions: every complete response
	// releases one request's worth of retained bytes. A framed splice
	// retains everything it forwards, so fwdBytes - ackedReq is the
	// retained byte count. (The fields are sized so a Splice fits one
	// 192-byte allocation.)
	retained  []retSeg
	retBuf    [2]retSeg
	respBytes uint64
	ackedReq  uint64
	lastStamp model.Duration

	fwdBytes uint64 // a -> b
	revBytes uint64 // b -> a
}

// SetFraming frames an inert splice (call between SpliceSet.NewSplice
// and Start) for a reqSize/respSize request/response protocol, which
// arms request retention and with it Freeze and Handoff.
func (s *Splice) SetFraming(reqSize, respSize int) {
	s.reqSize, s.respSize = int32(reqSize), int32(respSize)
}

func (s *Splice) framed() bool { return s.reqSize > 0 && s.respSize > 0 }

// forwardLocked accounts one segment the loop just delivered: the
// request direction retains it for replay, the response direction acks.
// s.mu must be held.
func (s *Splice) forwardLocked(data []byte, arrive model.Duration, rev bool) {
	s.lastStamp = max(s.lastStamp, arrive)
	if rev {
		s.revBytes += uint64(len(data))
		s.ackLocked(len(data))
		return
	}
	s.fwdBytes += uint64(len(data))
	if s.framed() {
		s.retained = append(s.retained, retSeg{data: data, arrive: arrive})
	}
}

// ackLocked accounts n delivered response bytes and trims the acked
// prefix of the retained request log: every complete response releases
// reqSize retained bytes (the FIFO request/response protocol the shard
// servers run). The log's storage is reused, so a splice that never has
// more than two requests outstanding retains without allocating. s.mu
// must be held.
func (s *Splice) ackLocked(n int) {
	s.respBytes += uint64(n)
	if !s.framed() {
		return
	}
	target := s.respBytes / uint64(s.respSize) * uint64(s.reqSize)
	done := 0
	for s.ackedReq < target && done < len(s.retained) {
		seg := &s.retained[done]
		take := min(uint64(len(seg.data)), target-s.ackedReq)
		seg.data = seg.data[take:]
		s.ackedReq += take
		if len(seg.data) > 0 {
			break
		}
		done++
	}
	if done > 0 {
		k := copy(s.retained, s.retained[done:])
		clear(s.retained[k:])
		s.retained = s.retained[:k]
	}
}

// Freeze quiesces a framed splice at a segment boundary: the owning loop
// forwards each segment under s.mu, so once Freeze holds it no segment
// is in flight between the two conns, and every later step sees the flag
// and leaves its data queued. The retained/ack accounting is stable from
// then on. Reports false — nothing to migrate — when the splice is
// unframed, was aborted, or has already finished both directions. On
// success the splice stays frozen until Handoff or Unfreeze.
func (s *Splice) Freeze() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.framed() || s.aborted || s.dirsLeft == 0 {
		return false
	}
	s.frozen = true
	return true
}

// Unfreeze resumes a frozen splice in place (no backend swap).
func (s *Splice) Unfreeze() {
	s.mu.Lock()
	s.frozen = false
	b := s.b
	s.mu.Unlock()
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.aborted {
		return 0, 0, ErrSpliceAborted
	}
	if !s.frozen {
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
	s.backDead = false

	for {
		data, arrive, rerr := old.rx.popSeg(false)
		if rerr != nil || data == nil {
			break
		}
		if _, serr := s.a.SendSeg(data, arrive); serr != nil {
			return harvested, 0, serr
		}
		s.forwardLocked(data, arrive, true)
		harvested += len(data)
	}

	for _, seg := range s.retained {
		if len(seg.data) == 0 {
			continue
		}
		if _, serr := newBack.SendSeg(seg.data, seg.arrive); serr != nil {
			return harvested, replayed, serr
		}
		replayed += len(seg.data)
	}
	if s.frontFIN {
		newBack.CloseWrite()
	}

	s.frozen = false
	s.a.rx.kick()
	newBack.rx.kick()
	return harvested, replayed, nil
}

// Abort force-closes both sides; in-flight data already queued at either
// receiver still drains. Safe to call from any goroutine, any number of
// times — the supervisor uses it to cut a connection no successor took
// over. The close events wake the loop, which retires both directions
// (frozen or parked ones too), so onDone still fires.
func (s *Splice) Abort() {
	s.mu.Lock()
	if s.aborted {
		s.mu.Unlock()
		return
	}
	s.aborted = true
	b := s.b
	s.mu.Unlock()
	s.a.Close()
	b.Close()
}

// Transferred reports total forwarded bytes (front->back, back->front).
func (s *Splice) Transferred() (fwd, rev uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fwdBytes, s.revBytes
}

// ClientAddr reports the far address of the front conn — the client's
// ephemeral endpoint, the key the route log re-points a handoff with.
func (s *Splice) ClientAddr() string { return s.a.RemoteAddr() }

// LastStamp reports the latest virtual arrival stamp the splice has
// forwarded in either direction; handoff uses it as the successor
// connection's virtual establishment time so the migrated stream's
// timeline stays continuous.
func (s *Splice) LastStamp() model.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastStamp
}

// Outstanding reports retained request bytes not yet acknowledged by a
// complete response — the replay set a handoff would re-send right now.
func (s *Splice) Outstanding() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.framed() {
		return 0
	}
	return int(s.fwdBytes - s.ackedReq)
}

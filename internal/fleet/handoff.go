// Live connection migration: the zero-loss half of the quarantine
// story, and the only way a connection leaves a shard. A shard leaving
// the pool (divergence quarantine, a drain whose grace expired, a
// scale-down) never cuts its in-flight connections; steps 2 and 4 of
// the lifecycle path (lifecycle.go) carry them over instead:
//
//  1. the claim takes the shard's splice set in the same critical
//     section as the state flip (admission re-routes every pick that
//     resolves later);
//  2. evacuate freezes every splice at a segment boundary
//     (vnet.Splice.Freeze: the owning event loop stops draining it);
//  3. the replica set is stopped — after which the dead shard can
//     provably never transmit again;
//  4. migrateSplices harvests responses still queued in the victim's
//     vnet, replays the unacknowledged request tail to a successor
//     shard with original arrival stamps, and re-splices the front conn
//     mid-flight on the same event loop (vnet.Splice.Handoff).
//
// The one cut path: the whole episode runs against one host-time
// deadline (handoffDeadline). A splice no successor admits is retried
// until then and cut after — bounded worst case, never a hang. A
// closing fleet has no successor and cuts at once. Cuts count as
// Stats.Failovers.
package fleet

import (
	"time"

	"remon/internal/vnet"
)

// evacuate empties a claimed splice set: each splice is quiesced at a
// segment boundary for handoff (one that already finished or was
// aborted has nothing in flight and is dropped). A closing fleet cuts
// instead, so its clients fail fast rather than hang on a dying replica
// set. Returns the frozen splices.
func (f *Fleet) evacuate(splices map[*vnet.Splice]struct{}) []*vnet.Splice {
	if f.stopping.Load() {
		for sp := range splices {
			sp.Abort()
		}
		f.failover(len(splices))
		return nil
	}
	var frozen []*vnet.Splice
	for sp := range splices {
		if sp.Freeze() {
			frozen = append(frozen, sp)
		}
	}
	return frozen
}

// migrateSplices places frozen splices onto successor shards and resumes
// them. Returns the splices that could not be placed because admission
// refused (no Serving shard, or all saturated) or the successor left the
// pool between pick and track — the caller retries them later, and
// cuts whatever still remains. Other failures (connect error to a
// successor still in the pool, handoff error) degrade to a cut on the
// spot.
//
// The splice is tracked on the successor before Handoff resumes it, so
// its completion callback always finds its new owner. The successor leg
// connects at the splice's last forwarded virtual stamp, so the
// migrated stream's timeline stays continuous; the route table is
// repointed so harnesses partitioning outcomes by shard see the new
// home.
func (f *Fleet) migrateSplices(frozen []*vnet.Splice, start, deadline time.Time) []*vnet.Splice {
	if len(frozen) == 0 {
		return nil
	}
	var left []*vnet.Splice
	cut := 0
	for i, sp := range frozen {
		if time.Now().After(deadline) {
			// Budget exhausted: degrade everything still frozen.
			for _, r := range frozen[i:] {
				r.Abort()
				cut++
			}
			break
		}
		tgt, err := f.pickShard()
		if err != nil {
			left = append(left, sp)
			continue
		}
		back, _, cerr := tgt.net.Connect(tgt.s.addr, sp.LastStamp())
		if cerr != nil {
			tgt.s.pendingDone()
			if !tgt.s.admits(tgt.gen) {
				left = append(left, sp) // the successor left the pool mid-connect
				continue
			}
			sp.Abort()
			cut++
			continue
		}
		tgt.s.mu.Lock()
		tracked := tgt.s.trackLocked(sp, tgt.gen)
		tgt.s.mu.Unlock()
		if !tracked {
			back.Close()
			left = append(left, sp)
			continue
		}
		_, replayed, herr := sp.Handoff(back)
		if herr != nil {
			tgt.s.untrack(sp)
			back.Close()
			sp.Abort()
			cut++
			continue
		}
		f.recordRoute(sp.ClientAddr(), tgt)
		lat := time.Since(start)
		f.mu.Lock()
		f.handoffs++
		f.replayed += uint64(replayed)
		f.handoffLats = append(f.handoffLats, lat)
		f.mu.Unlock()
	}
	f.failover(cut)
	return left
}

// abortSplices cuts frozen splices that no migration pass could place
// by the handoff deadline — the terminal degradation.
func (f *Fleet) abortSplices(frozen []*vnet.Splice) {
	for _, sp := range frozen {
		sp.Abort()
	}
	f.failover(len(frozen))
}

// failover accounts n cut in-flight connections.
func (f *Fleet) failover(n int) {
	if n > 0 {
		f.mu.Lock()
		f.failovers += uint64(n)
		f.mu.Unlock()
	}
}

// Live connection migration: the zero-loss half of the quarantine story.
// When Config.Handoff is armed, a shard leaving the pool (divergence
// quarantine, or a drain whose grace expired) does not cut its in-flight
// connections. Instead the supervisor:
//
//  1. takes the shard's splice set in the same critical section as the
//     state flip (admission re-routes every pick that resolves later),
//  2. freezes every splice at a segment boundary (vnet.Splice.Freeze:
//     the owning event loop stops draining it),
//  3. waits for the replica set to unwind — after which the dead shard
//     can provably never transmit again,
//  4. harvests responses still queued in the victim's vnet, replays the
//     unacknowledged request tail to a successor shard with original
//     arrival stamps, and re-splices the front conn mid-flight on the
//     same event loop (vnet.Splice.Handoff).
//
// Graceful degradation: the whole episode runs against one host-time
// deadline (Config.HandoffDeadline); any splice that cannot be placed in
// time is cut exactly as the Handoff=false path would have — bounded
// worst case, never a hang.
package fleet

import (
	"time"

	"remon/internal/vnet"
)

// freezeSplices quiesces a detached splice set at segment boundaries.
// Splices past the deadline degrade to the cut (accounted as
// Failovers); a splice that already finished or was aborted has nothing
// in flight and is dropped; the rest come back frozen, ready for
// Handoff.
func (f *Fleet) freezeSplices(splices map[*vnet.Splice]struct{}, deadline time.Time) []*vnet.Splice {
	if len(splices) == 0 {
		return nil
	}
	frozen := make([]*vnet.Splice, 0, len(splices))
	cut := 0
	for sp := range splices {
		if time.Now().After(deadline) {
			sp.Abort()
			cut++
			continue
		}
		if sp.Freeze() {
			frozen = append(frozen, sp)
		}
	}
	if cut > 0 {
		f.mu.Lock()
		f.failovers += uint64(cut)
		f.mu.Unlock()
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
		tgt, err := f.pickShard(sp.ClientAddr())
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
	if cut > 0 {
		f.mu.Lock()
		f.failovers += uint64(cut)
		f.mu.Unlock()
	}
	return left
}

// abortSplices cuts frozen splices that no migration pass could place —
// the terminal degradation, same accounting as the Handoff=false path.
func (f *Fleet) abortSplices(frozen []*vnet.Splice) {
	for _, sp := range frozen {
		sp.Abort()
	}
	if len(frozen) > 0 {
		f.mu.Lock()
		f.failovers += uint64(len(frozen))
		f.mu.Unlock()
	}
}

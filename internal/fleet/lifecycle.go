// The shard lifecycle path (DESIGN.md §6). Every way a replica set
// leaves a shard runs one routine: a divergence verdict (quarantine),
// DrainShard (rolling restart), RemoveShard (scale-down), AddShard
// reviving a tombstone, and Close. They differ only in the state the
// claim flips to and in whether the shard boots again:
//
//  1. claim: under s.mu, flip the state and detach the replica set and
//     the in-flight splice set in one critical section (claimLocked);
//  2. evacuate: freeze the splices for handoff (a closing fleet cuts
//     them);
//  3. stop the replica set: Shutdown, wait for Run, recycle the RB
//     segment (replicaSet.stop, which a failed boot also uses);
//  4. migrate the frozen splices onto successors — one pass before the
//     respawn, then retries until handoffDeadline — and cut the rest;
//  5. boot the next generation through the one boot-to-Serving step
//     (boot), or leave a Retired tombstone.
package fleet

import (
	"fmt"
	"time"

	"remon/internal/core"
	"remon/internal/policy"
	"remon/internal/vnet"
)

// replicaSet is one booted generation of a shard: its MVEE and the
// channel its Run reports on. The zero value holds no replica set.
type replicaSet struct {
	mvee    *core.MVEE
	runDone chan *core.Report
}

// stop tears the replica set down: Shutdown (a no-op on a set a verdict
// already crashed), wait for Run to unwind, recycle the RB segment
// through the mem arena. After stop the set can provably never transmit
// again, which is what makes a handoff harvest complete.
func (rs replicaSet) stop(reason string) {
	if rs.mvee == nil {
		return
	}
	rs.mvee.Shutdown(reason)
	<-rs.runDone
	rs.mvee.Close()
}

// claim is what a lifecycle claim took from a shard.
type claim struct {
	s        *shard
	from, to State
	gen      int
	at       time.Time
	rs       replicaSet
	splices  map[*vnet.Splice]struct{}
}

// claimLocked flips s to `to` and detaches its replica set and in-flight
// splice set (s.mu held). One critical section makes the taken set
// complete: track admits only Serving/Draining shards, so a pick that
// resolves later is rejected and re-routed. The occ conns half mirrors
// the map, so the taken splices leave the occupancy too (their untracks
// become no-ops).
func (s *shard) claimLocked(to State) claim {
	c := claim{
		s: s, from: s.state.Load(), to: to, gen: int(s.gen.Load()), at: time.Now(),
		rs: s.replicaSet, splices: s.splices,
	}
	s.state.Store(to)
	s.replicaSet = replicaSet{}
	s.splices = map[*vnet.Splice]struct{}{}
	if n := len(c.splices); n > 0 {
		s.occ.Add(-int64(n))
	}
	return c
}

// cycle runs steps 2-5 on a claimed shard. reason labels the claim's
// transition and the replica set's Shutdown. A non-empty serve boots the
// next generation — at level when non-nil — and labels its Serving
// transition; an empty serve leaves the claim's tombstone. Reports the
// boot error, if any.
func (f *Fleet) cycle(c claim, reason, serve string, level *policy.Level) error {
	s := c.s
	if n := len(c.splices); n > 0 {
		verb := "handed off"
		if f.stopping.Load() {
			verb = "cut"
		}
		reason = fmt.Sprintf("%s, %d connections %s", reason, n, verb)
	}
	if c.from != c.to {
		f.record(s, c.gen, c.from, c.to, reason)
	}
	// Evacuate before the stop: a response the shard emits while a
	// splice is frozen still lands in the back conn's queue, and the
	// handoff harvests it.
	deadline := c.at.Add(handoffDeadline)
	frozen := f.evacuate(c.splices)
	c.rs.stop(reason)

	var err error
	if serve != "" {
		if c.to != Respawning {
			f.setState(s, Respawning, "replica set recycled")
		}
		// Place what can be placed now: with other shards Serving the
		// frozen conns resume before this shard respawns, so handoff
		// latency is freeze + teardown, not freeze + respawn.
		frozen = f.migrateSplices(frozen, c.at, deadline)
		s.mu.Lock()
		s.gen.Add(1)
		if level != nil {
			s.level = *level
		}
		s.mu.Unlock()
		err = f.boot(s, serve)
	}
	// One rule for what is still frozen: retry until the deadline, then
	// cut. The respawned shard is a candidate successor now — the path a
	// 1-shard fleet's handoffs take.
	for {
		frozen = f.migrateSplices(frozen, c.at, deadline)
		if len(frozen) == 0 || !time.Now().Before(deadline) || f.stopping.Load() {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	f.abortSplices(frozen)
	return err
}

// boot builds s's replica set and flips s to Serving: the one
// boot-to-Serving step, for New, AddShard and every respawn. A boot that
// fails leaves a Retired tombstone, which AddShard revives.
func (f *Fleet) boot(s *shard, reason string) error {
	if err := f.buildShard(s); err != nil {
		f.setState(s, Retired, "boot failed: "+err.Error())
		return err
	}
	f.serve(s, reason)
	return nil
}

// serve flips a booted shard to Serving. A verdict that fired while the
// fresh set was still booting found the shard Respawning, where the
// supervisor's claim drops it — and a monitor fires only once — so it is
// re-sent now that the shard is Serving; the generation check makes a
// duplicate harmless.
func (f *Fleet) serve(s *shard, reason string) {
	f.setState(s, Serving, reason)
	s.mu.Lock()
	m, gen := s.mvee, int(s.gen.Load())
	s.mu.Unlock()
	if m != nil && m.Monitor != nil && m.Monitor.Diverged() {
		f.notifyVerdict(s.idx, gen, m.Monitor.Verdict())
	}
}

// drain is the shared half of DrainShard and RemoveShard: flip a Serving
// shard to Draining — admission routes around it at once — give its
// in-flight connections DrainGrace to finish, then claim it for `to`.
// The claim shares one critical section with the emptiness check, so a
// connection picked while Serving cannot register between the final
// poll and the claim and be cut despite finishing in time. ok is false
// when a verdict or Close claimed the shard first.
func (f *Fleet) drain(s *shard, to State, why string) (c claim, ok bool, err error) {
	if f.stopping.Load() {
		return claim{}, false, fmt.Errorf("fleet: closing")
	}
	s.mu.Lock()
	if st := s.state.Load(); st != Serving || s.mvee == nil {
		s.mu.Unlock()
		return claim{}, false, fmt.Errorf("shard %d is %v: %w", s.idx, st, ErrShardNotServing)
	}
	s.state.Store(Draining)
	s.drainUntil = time.Now().Add(f.cfg.DrainGrace)
	gen := int(s.gen.Load())
	s.mu.Unlock()
	f.record(s, gen, Serving, Draining, why)

	for {
		s.mu.Lock()
		if s.state.Load() != Draining || s.mvee == nil {
			s.mu.Unlock()
			return claim{}, false, nil
		}
		// occ is a single load covering both tracked splices and pending
		// picks: a pick's CAS precedes its state revalidation, so any
		// claim that validated Serving before the Draining flip is visible
		// in this read.
		if s.occ.Load() == 0 || time.Now().After(s.drainUntil) {
			c = s.claimLocked(to)
			s.mu.Unlock()
			return c, true, nil
		}
		s.mu.Unlock()
		time.Sleep(200 * time.Microsecond)
	}
}

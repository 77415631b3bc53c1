// The balancer control plane: the accept loop, the admit workers and
// the shard-pick policies. The data plane is vnet's SpliceSet — the
// balancer never copies request bytes itself, and the splice event
// loops carry virtual arrival stamps through untouched.
//
// Admission is a lock-free fast path. The Serving set lives in an
// immutable, atomically-swapped snapshot (servingSnapshot, republished
// by record() on every lifecycle transition), and a successful pick is
// one snapshot load plus one CAS on the chosen shard's packed occupancy
// word — no mutex, no allocation. The post-claim revalidation reads the
// shard's atomic state/gen: a claim that raced a transition rolls its
// slot back and the scan moves on. Only the failure path (empty pool,
// full saturation, lost claims) falls back to the retry/backoff slow
// path.
package fleet

import (
	"errors"
	"time"

	"remon/internal/core"
	"remon/internal/model"
	"remon/internal/vnet"
)

// backendTarget is a shard pick with its network and replica set
// captured at snapshot publication — s.net/s.mvee are rewritten on
// respawn, so the balancer must never read them unlocked; the snapshot
// capture happens under the shard lock and the generation check detects
// staleness.
type backendTarget struct {
	s    *shard
	net  *vnet.Network
	gen  int
	mvee *core.MVEE
}

// acceptLoop takes front-end connections and queues each to the fixed
// admit-worker pool, which picks a shard, connects the backend leg and
// hands the pair to the SpliceSet's event loops.
func (f *Fleet) acceptLoop() {
	defer f.wg.Done()
	defer close(f.admitCh)
	for {
		conn, at, err := f.lis.Accept(true)
		if err != nil {
			return // listener closed: fleet shutting down
		}
		f.admitCh <- admitReq{conn: conn, at: at}
	}
}

// admitWorker drains the accept queue: pick, backend connect, splice. A
// fixed pool of these plus the SpliceSet's event loops is the fleet's
// whole per-connection goroutine budget.
func (f *Fleet) admitWorker() {
	defer f.wg.Done()
	for req := range f.admitCh {
		f.admitOne(req.conn, req.at)
	}
}

// admitOne wires one accepted connection onto a splice. The splice is
// created inert, registered with the shard, then armed — so its
// completion callback (untrackDone) can never run before the
// registration, however short the connection's life. Address rewriting
// happens by construction: the shard sees a connection from the
// balancer's ephemeral endpoint, the client sees the balancer's front
// address. The backend connect reuses the front-side establishment time
// so virtual time is continuous across the hop.
//
// A pick can go stale in the claim-to-track window: a quarantine, drain
// or scale-down may take the shard while the backend connect sits in
// its accept queue, or close its listener before the connect lands. No
// client byte has moved yet, so a stale pick re-routes the connection —
// discard the inert splice, close the backend leg, pick again — instead
// of cutting it. Each retry needs a fresh lifecycle transition to fail
// again, and pickShard itself refuses when the pool is gone, so the
// loop terminates.
func (f *Fleet) admitOne(conn *vnet.Conn, at model.Duration) {
	for {
		tgt, err := f.pickShard(conn.RemoteAddr())
		if err != nil {
			f.refuse(conn, err)
			return
		}
		f.recordRoute(conn.RemoteAddr(), tgt)
		back, _, err := tgt.net.Connect(tgt.s.addr, at)
		if err != nil {
			tgt.s.pendingDone()
			if !tgt.s.admits(tgt.gen) {
				continue // the shard left the pool mid-connect: re-route
			}
			f.refuse(conn, err)
			return
		}
		sp := f.spliceSet.NewSplice(conn, back, f.onSpliceDone)
		if f.cfg.Handoff {
			// Retain requests until their responses are delivered, so a
			// shard death replays rather than drops them.
			sp.EnableHandoff(f.cfg.RequestSize, f.cfg.ResponseSize)
		}
		// Arm inside track's critical section, so a lifecycle sweep that
		// takes the shard's splice set never sees an unarmed splice.
		tgt.s.mu.Lock()
		tracked := tgt.s.trackLocked(sp, tgt.gen)
		if tracked {
			f.spliceSet.Start(sp)
		}
		tgt.s.mu.Unlock()
		if tracked {
			return
		}
		f.spliceSet.Discard(sp)
		back.Close()
	}
}

// untrackDone is every splice's completion callback (bound once as
// f.onSpliceDone): it untracks the splice from whichever shard owns it
// now — the admitting shard, or the successor a handoff moved it to. A
// splice a lifecycle sweep already took is owned by no shard.
func (f *Fleet) untrackDone(sp *vnet.Splice) {
	for _, s := range f.pool() {
		if s.untrack(sp) {
			return
		}
	}
}

// pendingDone retires a pick's pending slot when its splice is abandoned
// before registration (track retires it itself, atomically with the
// register).
func (s *shard) pendingDone() {
	s.occ.Add(-occPendOne)
}

func (f *Fleet) refuse(conn *vnet.Conn, err error) {
	conn.Close()
	f.refusedCt.Add(1)
	if errors.Is(err, ErrOverloaded) {
		f.shedCt.Add(1)
	}
}

// pickShard chooses a Serving shard for a new client connection and
// claims a pending slot on it so drains see the pick before its splice
// is registered. The fast path is lock-free and allocation-free: load
// the admission snapshot, select per the routing policy, CAS-claim the
// shard's occupancy word, revalidate state+generation. A drain or
// quarantine may take the shard between the snapshot and the claim; the
// revalidation rolls the lost claim back and the scan lands the
// connection on another healthy shard instead of refusing it.
//
// Resilience: when a pass claims nothing — the whole pool momentarily
// Draining/Respawning, or every shard at its saturation limit — the
// pick retries up to AdmitRetries times with jittered exponential
// backoff before refusing, so a connection arriving during a short
// respawn gap waits it out instead of failing. Each backoff sleep bumps
// Stats.AdmitWaits — the pre-shed pressure signal the autoscaler
// watches. The snapshot is re-loaded every attempt, so a shard the
// autoscaler adds mid-retry becomes a candidate before the budget runs
// out. The terminal error is typed: an *OverloadError (unwrapping to
// ErrOverloaded, carrying the retry-after capacity hint) when
// saturation was the last obstacle, ErrShardNotServing otherwise.
func (f *Fleet) pickShard(clientAddr string) (backendTarget, error) {
	sawSaturated := false
	limit := f.cfg.MaxConnsPerShard
	for attempt := 0; ; attempt++ {
		if snap := f.serving.Load(); snap != nil && len(snap.targets) > 0 {
			var tgt backendTarget
			var ok, sat bool
			switch f.cfg.Routing {
			case RouteAffinity:
				tgt, ok, sat = affinityClaim(snap.targets, clientAddr, limit)
			case RouteLeastLoaded:
				tgt, ok, sat = leastLoadedClaim(snap.targets, limit)
			default:
				tgt, ok, sat = f.roundRobinClaim(snap.targets, limit)
			}
			if ok {
				return tgt, nil
			}
			if sat {
				sawSaturated = true
			}
		}
		if attempt+1 >= f.cfg.AdmitRetries {
			if sawSaturated {
				return backendTarget{}, &OverloadError{RetryAfter: f.retryAfterHint()}
			}
			return backendTarget{}, ErrShardNotServing
		}
		f.admitWaits.Add(1)
		time.Sleep(f.admitBackoff(attempt, f.admitSeq.Add(1)))
	}
}

// claimTarget CAS-claims one pending slot on t's shard against the
// saturation limit, then revalidates the snapshot's state and
// generation. Go atomics are sequentially consistent, so the claim's
// CAS precedes the revalidation loads precede (on success) the caller's
// use — and a drain that flips the state before our revalidation is
// guaranteed to observe the claimed slot in its occupancy poll.
// Reports (claimed, saturated).
func claimTarget(t backendTarget, limit int) (bool, bool) {
	s := t.s
	for {
		v := s.occ.Load()
		if limit > 0 && occConns(v)+occPending(v) >= limit {
			return false, true
		}
		if s.occ.CompareAndSwap(v, v+occPendOne) {
			break
		}
	}
	if s.state.Load() == Serving && int(s.gen.Load()) == t.gen {
		return true, false
	}
	s.occ.Add(-occPendOne) // lost the race to a transition; roll back
	return false, false
}

// roundRobinClaim scans the snapshot in rotation order and claims the
// first admissible shard.
func (f *Fleet) roundRobinClaim(ts []backendTarget, limit int) (backendTarget, bool, bool) {
	start := int(f.rrNext.Add(1) - 1)
	anySat := false
	for i := 0; i < len(ts); i++ {
		t := ts[(start+i)%len(ts)]
		ok, sat := claimTarget(t, limit)
		if ok {
			return t, true, anySat
		}
		anySat = anySat || sat
	}
	return backendTarget{}, false, anySat
}

// affinityClaim picks the best non-saturated rendezvous score and
// claims it — single claim, like the lock-based picker: a lost claim
// retries through the outer attempt loop so the affinity mapping stays
// score-ordered rather than falling over to an arbitrary shard.
func affinityClaim(ts []backendTarget, clientAddr string, limit int) (backendTarget, bool, bool) {
	var best backendTarget
	var bestScore uint64
	found, anySat := false, false
	for _, t := range ts {
		v := t.s.occ.Load()
		if limit > 0 && occConns(v)+occPending(v) >= limit {
			anySat = true
			continue
		}
		score := fnv1a(clientAddr, uint64(t.s.idx))
		if !found || score > bestScore {
			best, bestScore, found = t, score, true
		}
	}
	if !found {
		return backendTarget{}, false, anySat
	}
	ok, sat := claimTarget(best, limit)
	return best, ok, anySat || sat
}

// leastLoadedClaim scores each candidate lock-free and claims the
// minimum. Connection count (occupancy word) dominates; the RB LagWaits
// delta since the previous scoring pass breaks ties toward the shard
// whose replication pipeline is keeping up. The mvee pointer comes from
// the snapshot; RBStats is all atomic loads, safe even against a
// concurrent respawn of the shard it belonged to.
func leastLoadedClaim(ts []backendTarget, limit int) (backendTarget, bool, bool) {
	var best backendTarget
	bestScore := uint64(1<<63 - 1)
	found, anySat := false, false
	for _, t := range ts {
		v := t.s.occ.Load()
		if limit > 0 && occConns(v)+occPending(v) >= limit {
			anySat = true
			continue
		}
		score := uint64(occConns(v)+occPending(v)) * 1000
		if t.mvee != nil {
			waits := t.mvee.RBStats().LagWaits
			delta := waits - t.s.lastLagWaits.Swap(waits)
			if delta > 999 {
				delta = 999 // never outweigh a whole connection
			}
			score += delta
		}
		if !found || score < bestScore {
			best, bestScore, found = t, score, true
		}
	}
	if !found {
		return backendTarget{}, false, anySat
	}
	ok, sat := claimTarget(best, limit)
	return best, ok, anySat || sat
}

// retryAfterHint derives the OverloadError's capacity hint from drain
// progress: when a shard is mid-drain, its slots come back when the
// grace expires (rotation or scale-down completes), so the soonest
// remaining grace is the honest estimate. With no drain in flight the
// hint falls back to the backoff ceiling — "try again after the window
// we already waited", never zero. Slow path only (the admission shed);
// the lock walk is fine here.
func (f *Fleet) retryAfterHint() time.Duration {
	hint := time.Duration(0)
	now := time.Now()
	for _, s := range f.pool() {
		s.mu.Lock()
		if s.state.Load() == Draining {
			if left := s.drainUntil.Sub(now); left > 0 && (hint == 0 || left < hint) {
				hint = left
			}
		}
		s.mu.Unlock()
	}
	if hint <= 0 {
		hint = 8 * f.cfg.AdmitBackoff
	}
	if hint < f.cfg.AdmitBackoff {
		hint = f.cfg.AdmitBackoff
	}
	return hint
}

// admitBackoff computes the jittered exponential admission backoff for
// one failed attempt: base * 2^attempt, capped at 8x base, scaled by a
// seeded ±50% jitter so concurrent retries decorrelate. The jitter
// derives from a per-sleep token through the deterministic splitmix64
// stream (model.NewRNG) — same distribution the shared locked RNG
// produced, no lock.
func (f *Fleet) admitBackoff(attempt int, token uint64) time.Duration {
	d := f.cfg.AdmitBackoff << uint(attempt)
	if max := 8 * f.cfg.AdmitBackoff; d > max {
		d = max
	}
	j := model.NewRNG(f.cfg.Seed ^ 0xADB0FF ^ token).Float64()
	return time.Duration(float64(d) * (0.5 + j))
}

// rendezvousPick implements highest-random-weight hashing: each (client,
// shard) pair scores via FNV-1a; the highest score wins. Removing one
// shard from the pool only remaps that shard's clients — the consistent
// affinity the quarantine path wants.
func rendezvousPick(serving []*shard, clientAddr string) *shard {
	var best *shard
	var bestScore uint64
	for _, s := range serving {
		score := fnv1a(clientAddr, uint64(s.idx))
		if best == nil || score > bestScore {
			best, bestScore = s, score
		}
	}
	return best
}

// fnv1a hashes addr plus a shard salt.
func fnv1a(addr string, salt uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= prime
	}
	for i := 0; i < 8; i++ {
		h ^= (salt >> (8 * i)) & 0xFF
		h *= prime
	}
	return h
}

// trackLocked registers an in-flight splice with the shard (s.mu held);
// if the shard left the pool (quarantined, retired, respawned into a new
// generation) in the pick-to-track window, it rolls the pick's pending
// slot back and reports false. A rejected splice is never lost:
// admission re-routes the inert splice, migration retries the frozen
// one.
func (s *shard) trackLocked(sp *vnet.Splice, gen int) bool {
	if !s.admits(gen) {
		s.occ.Add(-occPendOne)
		return false
	}
	s.splices[sp] = struct{}{}
	s.connsRouted.Add(1)
	// The pick's pending slot converts into a tracked connection in one
	// atomic step, so the occupancy never dips to zero mid-conversion.
	s.occ.Add(1 - occPendOne)
	return true
}

// admits reports whether s is still in the pool at generation gen —
// Serving, or Draining (the pick happened while Serving, and drain
// semantics let already-routed connections finish within the grace).
func (s *shard) admits(gen int) bool {
	st := s.state.Load()
	return int64(gen) == s.gen.Load() && (st == Serving || st == Draining)
}

// untrack drops a finished splice and reports whether s owned it (a
// splice quarantine already swept is owned by nobody —
// takeSplicesLocked removed its occupancy along with the map entry).
func (s *shard) untrack(sp *vnet.Splice) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.splices[sp]; !ok {
		return false
	}
	delete(s.splices, sp)
	s.occ.Add(-1)
	return true
}

// recordRoute remembers clientAddr -> shard for test and attack
// harnesses that partition client outcomes by shard. Striped 64 ways so
// concurrent admit workers rarely contend, bounded globally: beyond
// 1<<20 routes recording stops (the balancer itself never reads this).
// Config.DisableRouteLog turns it off entirely.
func (f *Fleet) recordRoute(clientAddr string, tgt backendTarget) {
	if f.cfg.DisableRouteLog || f.routeCount.Load() >= 1<<20 {
		return
	}
	st := &f.routes[fnv1a(clientAddr, 0)&63]
	st.mu.Lock()
	if _, ok := st.m[clientAddr]; !ok {
		f.routeCount.Add(1)
	}
	st.m[clientAddr] = routeEntry{shard: tgt.s.idx, gen: tgt.gen}
	st.mu.Unlock()
}

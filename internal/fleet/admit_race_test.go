package fleet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPickShardAllocFree pins the admission fast path's whole claim: a
// successful pick is a snapshot load plus a CAS — zero heap
// allocations.
func TestPickShardAllocFree(t *testing.T) {
	cfg := quickCfg(2)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	allocs := testing.AllocsPerRun(200, func() {
		tgt, err := f.pickShard()
		if err != nil {
			t.Fatal(err)
		}
		tgt.s.pendingDone()
	})
	if allocs != 0 {
		t.Errorf("pickShard fast path allocates %.1f/op, want 0", allocs)
	}
}

// TestPickShardChurnNoStaleNoLeak hammers the lock-free pick from many
// goroutines while the pool churns through every lifecycle transition a
// fleet can make — quarantine/respawn (InjectDivergence), administrative
// drain, scale-down and scale-up. Under -race this exercises the
// snapshot-publication and claim-revalidation ordering; the assertions
// pin the two admission invariants:
//
//  1. no stale pick: once RemoveShard has returned (the shard left the
//     published serving set before that), a pick that started afterwards
//     may never return it;
//  2. no occupancy leak: every claimed pending slot is released, so the
//     quiesced pool counts zero.
func TestPickShardChurnNoStaleNoLeak(t *testing.T) {
	cfg := quickCfg(3)
	cfg.AdmitRetries = 3
	cfg.AdmitBackoff = 200 * time.Microsecond
	cfg.DrainGrace = 5 * time.Millisecond
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var stop atomic.Bool
	var removed atomic.Bool // true while shard 0 is out of the pool
	var stale atomic.Int64
	var picks, refusals atomic.Int64
	var wg sync.WaitGroup

	// Scale churn: remove shard 0, hold it retired, revive it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := f.RemoveShard(0); err != nil {
				time.Sleep(time.Millisecond)
				continue
			}
			removed.Store(true)
			time.Sleep(2 * time.Millisecond)
			removed.Store(false)
			if _, err := f.AddShard(); err != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Quarantine churn: divergence-kill shard 1, wait out the respawn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if f.InjectDivergence(1) != nil {
				time.Sleep(time.Millisecond)
				continue
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				if st, _ := f.ShardState(1); st == Serving {
					break
				}
				if time.Now().After(deadline) {
					return
				}
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()

	// Drain churn on shard 2 (DrainShard respawns it itself).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			f.DrainShard(2)
			time.Sleep(time.Millisecond)
		}
	}()

	// Pickers.
	const pickers = 4
	var pwg sync.WaitGroup
	for range pickers {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for !stop.Load() {
				before := removed.Load()
				tgt, err := f.pickShard()
				if err != nil {
					refusals.Add(1)
					continue
				}
				after := removed.Load()
				if before && after && tgt.s.idx == 0 {
					// Shard 0 was retired for this pick's whole duration,
					// yet admission returned it: a stale-snapshot or
					// stale-generation claim.
					stale.Add(1)
				}
				picks.Add(1)
				tgt.s.pendingDone()
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	pwg.Wait()
	wg.Wait()

	if stale.Load() > 0 {
		t.Fatalf("%d stale picks of a removed shard", stale.Load())
	}
	if picks.Load() == 0 {
		t.Fatalf("churn starved admission completely (refusals=%d)", refusals.Load())
	}
	// Quiesced: no pending claim survived its pick, no occupancy leaked.
	deadline := time.Now().Add(5 * time.Second)
	for {
		leaked := false
		for _, s := range f.pool() {
			if s.occ.Load() != 0 {
				leaked = true
			}
		}
		if !leaked {
			break
		}
		if time.Now().After(deadline) {
			for i, s := range f.pool() {
				if v := s.occ.Load(); v != 0 {
					t.Errorf("shard %d: occupancy leak pending=%d conns=%d",
						i, occPending(v), occConns(v))
				}
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("picks=%d refusals=%d", picks.Load(), refusals.Load())
}

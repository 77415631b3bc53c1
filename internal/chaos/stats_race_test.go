package chaos

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"remon/internal/fleet"
	"remon/internal/loadgen"
	"remon/internal/telemetry"
)

// TestStatsConsistencyUnderChaos is the torn-read audit for the
// fleet.Stats consistency contract (fleet.go): Stats and full telemetry
// scrapes run continuously while a chaos plan kills and drains shards.
// Under -race this proves the snapshot paths are lock-correct; the
// value assertions pin the contract's guarantees — per-lock consistency
// and monotone counters — across arbitrarily-timed snapshots.
func TestStatsConsistencyUnderChaos(t *testing.T) {
	const shards = 3
	f := chaosFleet(t, shards)
	defer f.Close()

	exp, _, err := f.ServeTelemetry("telemetry:9090")
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Stats scrapers: hammer the snapshot path and check the monotone /
	// per-section invariants on every observation. prev is per-goroutine:
	// monotonicity is only promised along one observer's sequence of
	// snapshots (each Stats call completes before the next starts), not
	// across interleaved observers.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev fleet.Stats
			for !stop.Load() {
				st := f.Stats()
				// Handoffs and ReplayedBytes advance inside one f.mu
				// section: replayed request bytes can never be visible
				// before the handoff that carried them.
				if st.ReplayedBytes > 0 && st.Handoffs == 0 {
					t.Error("torn read: replayed bytes visible without a handoff")
					return
				}
				// Shed is accounted with refused in the same section.
				if st.ConnsShed > st.ConnsRefused {
					t.Errorf("torn read: shed %d > refused %d", st.ConnsShed, st.ConnsRefused)
					return
				}
				// Cumulative counters are monotone along this observer's
				// snapshot sequence.
				if st.ConnsRouted < prev.ConnsRouted ||
					st.Failovers < prev.Failovers ||
					st.Handoffs < prev.Handoffs ||
					st.ReplayedBytes < prev.ReplayedBytes ||
					st.Recoveries < prev.Recoveries {
					t.Errorf("counters regressed: %+v -> %+v", prev, st)
					return
				}
				prev = st
			}
		}()
	}

	// Prometheus scraper: full exporter round-trips over the same front
	// network the chaos load uses, validated each time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			res, err := telemetry.Scrape(f.FrontNetwork(), "telemetry:9090", "/metrics", 0)
			if err != nil {
				continue // front net saturated; retry
			}
			if _, perr := telemetry.PromParse(string(res.Body)); perr != nil {
				t.Errorf("mid-chaos scrape invalid: %v", perr)
				return
			}
			f.Health() // and the health path
		}
	}()

	// The chaos run: kill every shard in turn under open-loop load. An
	// injected divergence fires on the shard's next request, so the load
	// (~128 x 3ms per connection) must outlast the last kill at 290ms.
	plan := KillEachShard(shards, 50*time.Millisecond, 120*time.Millisecond)
	rep := Run(f, plan, Load{Conns: 2 * shards, Shape: loadgen.Shape{
		RequestsPerConn: 128,
		Window:          4,
		Gap:             3 * time.Millisecond,
	}})
	stop.Store(true)
	wg.Wait()

	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("chaos invariants violated under concurrent scraping:\n%s", joinLines(v))
	}
	if rep.Kills != shards {
		t.Fatalf("injected %d kills, want %d", rep.Kills, shards)
	}
}

package rb

import (
	"testing"
	"time"
)

// TestLagDistributionStats pins the lag-distribution fields: CurLag
// tracks the live published-minus-consumed distance and HighWaterLag
// records the worst lag any group commit published into.
func TestLagDistributionStats(t *testing.T) {
	e := newPipeEnv(t, 1<<20, 1, 2, 16)
	w := e.buf.NewWriter(0, e.bases[0])
	r := e.buf.NewReader(0, 1, e.bases[1])

	if st := e.buf.Stats(); st.CurLag != 0 || st.HighWaterLag != 0 {
		t.Fatalf("idle buffer reports lag: %+v", st)
	}

	// Publish 8 entries (one full group commit) with nothing consumed:
	// the live lag and the high-water mark are both 8.
	for i := 0; i < 8; i++ {
		reserveBatched(t, w, e.threads[0], i)
	}
	st := e.buf.Stats()
	if st.CurLag != 8 {
		t.Fatalf("CurLag = %d after publishing 8 unconsumed, want 8", st.CurLag)
	}
	if st.HighWaterLag != 8 {
		t.Fatalf("HighWaterLag = %d, want 8", st.HighWaterLag)
	}

	// Drain everything: live lag returns to 0, high-water sticks.
	if _, err := r.NextRun(e.threads[1]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		drainOne(t, r, e.threads[1], i)
	}
	st = e.buf.Stats()
	if st.CurLag != 0 {
		t.Fatalf("CurLag = %d after full drain, want 0", st.CurLag)
	}
	if st.HighWaterLag != 8 {
		t.Fatalf("HighWaterLag = %d after drain, want to stick at 8", st.HighWaterLag)
	}
}

// TestLowWaterWaits: a master publishing into a full MaxLag window waits
// for the low-water mark, and each such wait is counted in LagWaits.
func TestLowWaterWaits(t *testing.T) {
	// MaxLag 4, group commit forced per-entry by flushing explicitly.
	e := newPipeEnv(t, 1<<20, 1, 2, 4)
	w := e.buf.NewWriter(0, e.bases[0])
	r := e.buf.NewReader(0, 1, e.bases[1])

	done := make(chan struct{})
	go func() {
		defer close(done)
		// 12 entries against a 4-entry window: the writer must block on
		// the lag budget at least once while the reader lags behind.
		for i := 0; i < 12; i++ {
			reserveBatched(t, w, e.threads[0], i)
			w.Flush(e.threads[0])
		}
	}()

	// Start the reader only once the writer is blocked on the window, so
	// a reader that would keep pace on a loaded host cannot hide the wait.
	deadline := time.Now().Add(10 * time.Second)
	for e.buf.Stats().LagWaits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never blocked on a full 4-entry window")
		}
		time.Sleep(50 * time.Microsecond)
	}
	for i := 0; i < 12; i++ {
		if _, err := r.NextRun(e.threads[1]); err != nil {
			t.Fatal(err)
		}
		drainOne(t, r, e.threads[1], i)
	}
	<-done

	st := e.buf.Stats()
	if st.HighWaterLag < 4 {
		t.Fatalf("HighWaterLag = %d with a window of 4 kept full, want >= 4", st.HighWaterLag)
	}
}

// TestStatsZeroAlloc pins the read side: Stats() — the scrape path the
// telemetry collectors hit on every round — performs no allocations,
// so a high-frequency controller or exporter cannot create GC pressure
// against the data plane.
func TestStatsZeroAlloc(t *testing.T) {
	e := newPipeEnv(t, 1<<20, 4, 3, 16)
	w := e.buf.NewWriter(0, e.bases[0])
	for i := 0; i < 8; i++ {
		reserveBatched(t, w, e.threads[0], i)
	}
	var sink Stats
	n := testing.AllocsPerRun(200, func() { sink = e.buf.Stats() })
	if n != 0 {
		t.Errorf("Stats() allocates %.1f/op, want 0", n)
	}
	if sink.Batched == 0 {
		t.Error("Stats() returned empty snapshot")
	}
}

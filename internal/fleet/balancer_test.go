package fleet

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestPickShardExhaustsOnTotalUnavailability forces every shard out of
// Serving and verifies admission's worst case: pickShard burns its full
// AdmitRetries budget with real backoff sleeps (no busy spin), returns
// the typed ErrShardNotServing sentinel, and leaks nothing.
func TestPickShardExhaustsOnTotalUnavailability(t *testing.T) {
	cfg := quickCfg(2)
	cfg.AdmitRetries = 6
	cfg.AdmitBackoff = time.Millisecond
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Force the whole pool out of Serving directly under the shard
	// locks — the scan must find zero admissible candidates every
	// attempt, with no drain machinery racing the budget.
	for _, s := range f.pool() {
		s.mu.Lock()
		s.state.Store(Draining)
		s.mu.Unlock()
	}
	defer func() {
		for _, s := range f.pool() {
			s.mu.Lock()
			s.state.Store(Serving)
			s.mu.Unlock()
		}
	}()

	goroutines := runtime.NumGoroutine()
	waitsBefore := f.Stats().AdmitWaits
	start := time.Now()
	_, err = f.pickShard()
	elapsed := time.Since(start)

	if !errors.Is(err, ErrShardNotServing) {
		t.Fatalf("want ErrShardNotServing, got %v", err)
	}
	// All shards Draining is unavailability, not saturation: the error
	// must NOT be the capacity-typed one.
	var oe *OverloadError
	if errors.As(err, &oe) {
		t.Fatalf("total unavailability must not report overload, got %v", err)
	}
	// The budget burned through jittered sleeps, not a spin: 5 backoffs
	// of >= 0.5ms each (floor of the +-50% jitter on 1ms).
	if waits := f.Stats().AdmitWaits - waitsBefore; waits != uint64(cfg.AdmitRetries-1) {
		t.Fatalf("AdmitWaits moved by %d, want %d", waits, cfg.AdmitRetries-1)
	}
	if elapsed < 2*time.Millisecond {
		t.Fatalf("retry budget burned in %v — backoff did not sleep", elapsed)
	}
	// No goroutine leak from the failed pick (allow scheduler slop).
	time.Sleep(5 * time.Millisecond)
	if now := runtime.NumGoroutine(); now > goroutines+2 {
		t.Fatalf("goroutines grew %d -> %d across a refused pick", goroutines, now)
	}
}

// TestPickShardSaturationReturnsOverloadError drives the other terminal
// path: every shard Serving but at its connection cap. The typed
// *OverloadError must surface with a positive retry-after hint, and the
// hint must reflect drain progress when a drain is in flight.
func TestPickShardSaturationReturnsOverloadError(t *testing.T) {
	cfg := quickCfg(2)
	cfg.MaxConnsPerShard = 1
	cfg.AdmitRetries = 4
	cfg.AdmitBackoff = time.Millisecond
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Saturate by claiming every slot as a pending pick.
	for _, s := range f.pool() {
		s.mu.Lock()
		s.occ.Store(occPendOne * int64(cfg.MaxConnsPerShard))
		s.mu.Unlock()
	}
	defer func() {
		for _, s := range f.pool() {
			s.mu.Lock()
			s.occ.Store(0)
			s.mu.Unlock()
		}
	}()

	_, err = f.pickShard()
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("want *OverloadError, got %v", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("OverloadError must unwrap to ErrOverloaded, got %v", err)
	}
	// No drain in flight: hint falls back to the backoff ceiling.
	if oe.RetryAfter < cfg.AdmitBackoff || oe.RetryAfter > 16*cfg.AdmitBackoff {
		t.Fatalf("retry-after hint %v outside the backoff-derived band", oe.RetryAfter)
	}

	// With a shard mid-drain, the hint tracks its remaining grace.
	s0 := f.pool()[0]
	s0.mu.Lock()
	s0.state.Store(Draining)
	s0.drainUntil = time.Now().Add(100 * time.Millisecond)
	s0.mu.Unlock()
	defer func() {
		s0.mu.Lock()
		s0.state.Store(Serving)
		s0.mu.Unlock()
	}()
	_, err = f.pickShard()
	if !errors.As(err, &oe) {
		t.Fatalf("want *OverloadError, got %v", err)
	}
	if oe.RetryAfter < 10*time.Millisecond || oe.RetryAfter > 100*time.Millisecond {
		t.Fatalf("retry-after %v should track the ~100ms drain grace", oe.RetryAfter)
	}
}

package fleet

import (
	"runtime"
	"testing"
	"time"

	"remon/internal/mem"
)

// TestLifecycleWalkReleasesEverything walks one fleet through
// every way a replica set leaves a shard — a verdict respawn, a rolling
// drain, a scale-down, a scale-up that revives the tombstone, Close —
// and requires that nothing outlives Close: every RB segment the fleet
// took from the mem arena went back, and the goroutine count returns to
// where it started.
func TestLifecycleWalkReleasesEverything(t *testing.T) {
	baseG := runtime.NumGoroutine()
	before := mem.ArenaSnapshot()

	cfg := quickCfg(2)
	cfg.DrainGrace = 20 * time.Millisecond
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Verdict respawn with a request in flight: handed off, not cut.
	c, idx := pinConn(t, f)
	if err := f.InjectDivergence(idx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send(make([]byte, 32), 0); err != nil {
		t.Fatal(err)
	}
	if got, err := recvBytes(c, 128, 30*time.Second); err != nil {
		t.Fatalf("verdict respawn lost the response: %d bytes then %v", got, err)
	}
	if !f.WaitRecoveries(1, 30*time.Second) {
		t.Fatal("divergence recovery never completed")
	}

	// Rolling drain with an idle connection held open past the grace:
	// it migrates to a successor.
	c2, idx2 := pinConn(t, f)
	if err := f.DrainShard(idx2); err != nil {
		t.Fatalf("DrainShard(%d): %v", idx2, err)
	}
	if st, _ := f.ShardState(idx2); st != Serving {
		t.Fatalf("drained shard %d is %v, want serving", idx2, st)
	}

	// Scale-down to a tombstone, then a scale-up that revives it.
	if err := f.RemoveShard(1); err != nil {
		t.Fatalf("RemoveShard(1): %v", err)
	}
	if st, _ := f.ShardState(1); st != Retired {
		t.Fatalf("removed shard is %v, want retired", st)
	}
	if got, err := f.AddShard(); err != nil || got != 1 {
		t.Fatalf("AddShard = %d, %v; want the tombstone 1 revived", got, err)
	}
	for _, o := range drive(f, 8, 2) {
		if failed(o) || o.RespBytes/f.cfg.ResponseSize != 2 {
			t.Fatalf("client after the walk: %+v", o)
		}
	}
	c.Close()
	c2.Close()
	if st := f.Stats(); st.Failovers != 0 || st.Handoffs == 0 || st.Recoveries != 1 {
		t.Fatalf("walk: failovers=%d handoffs=%d recoveries=%d, want 0, >0, 1",
			st.Failovers, st.Handoffs, st.Recoveries)
	}
	f.Close()

	after := mem.ArenaSnapshot()
	acquired := (after.Hits - before.Hits) + (after.Misses - before.Misses)
	if released := after.Releases - before.Releases; acquired == 0 || acquired != released {
		t.Fatalf("arena: %d segments acquired, %d released", acquired, released)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseG {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), baseG)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBootWindowVerdictResent: a verdict that fires while a shard's
// fresh replica set is up but the shard is still Respawning reaches the
// supervisor while its claim refuses the shard, and a monitor fires only
// once. The boot-to-Serving step must re-send it, or the shard serves
// on with dead replicas.
func TestBootWindowVerdictResent(t *testing.T) {
	f, err := New(quickCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.RemoveShard(1); err != nil {
		t.Fatal(err)
	}

	// AddShard's revival, stopped after the fresh set is up.
	s, _ := f.shardAt(1)
	f.setState(s, Respawning, "scale-up")
	s.gen.Add(1)
	if err := f.buildShard(s); err != nil {
		t.Fatal(err)
	}

	// One request straight to the backend trips the armed divergence.
	if err := f.InjectDivergence(1); err != nil {
		t.Fatal(err)
	}
	back, now, err := s.net.Connect(s.addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if _, err := back.Send(make([]byte, 32), now); err != nil {
		t.Fatal(err)
	}
	recvBytes(back, 128, 5*time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for !s.mvee.Monitor.Diverged() {
		if time.Now().After(deadline) {
			t.Fatal("tampered response raised no verdict")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Let the supervisor take the verdict and drop it (the shard is not
	// Serving yet).
	for len(f.verdicts) > 0 {
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(20 * time.Millisecond)

	f.serve(s, "scaled up")
	if !f.WaitRecoveries(1, 10*time.Second) {
		t.Fatal("boot-window verdict was never handled: the shard serves with dead replicas")
	}
}

package fleet

import (
	"testing"
	"time"

	"remon/internal/policy"
	"remon/internal/vnet"
)

// TestControllerRelaxesLiveFleet runs the tuner against a real fleet
// under load: starting from BASE, the loop must step the shards' policy
// level up through the live reload path.
func TestControllerRelaxesLiveFleet(t *testing.T) {
	base := policy.BaseLevel
	cfg := quickCfg(2)
	cfg.Policy = &base
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ctl := f.StartControl(ControlConfig{
		Interval: 2 * time.Millisecond,
		// Unreachable SLO: everything about this workload is slower, so
		// the loop should climb the whole ladder.
		Tuner: &TunerConfig{SLONsPerCall: 1, MinCalls: 16},
	})
	defer ctl.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		drive(f, 8, 8)
		lv, err := f.ShardPolicy(0)
		if err != nil {
			t.Fatal(err)
		}
		if lv == policy.SocketRWLevel {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("controller never relaxed shard 0 past %v; events: %+v", lv, ctl.Events())
		}
	}
	// The decision log recorded the climb.
	if len(ctl.Events()) == 0 {
		t.Fatal("no tune events recorded")
	}
	if lv, ok := ctl.ShardLevel(0); !ok || lv != policy.SocketRWLevel {
		t.Fatalf("tuner position %v (%v) disagrees with live level", lv, ok)
	}
}

// TestControllerResetsOnDivergence injects a divergence under a running
// tuner: the supervisor respawns the shard conservatively and the
// shard's tuner must follow to BASE (and log the reset) instead of
// fighting the respawn.
func TestControllerResetsOnDivergence(t *testing.T) {
	f, err := New(quickCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ctl := f.StartControl(ControlConfig{
		Interval: 2 * time.Millisecond,
		Tuner:    &TunerConfig{SLONsPerCall: 1, MinCalls: 16, HoldRounds: 1000000},
	})
	defer ctl.Close()

	if err := f.InjectDivergence(1); err != nil {
		t.Fatal(err)
	}
	if !f.WaitRecoveriesDriving(1, 20*time.Second, burst(f)) {
		t.Fatal("divergence recovery never completed")
	}

	// The loop observes the respawn within a few rounds and resets the
	// tuner; the huge hold keeps it there for the assertion window.
	deadline := time.Now().Add(5 * time.Second)
	for {
		lv, _ := ctl.ShardLevel(1)
		if lv == policy.BaseLevel {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tuner never reset after divergence: %v, events %+v", lv, ctl.Events())
		}
		time.Sleep(2 * time.Millisecond)
	}
	found := false
	for _, ev := range ctl.Events() {
		if ev.Shard == 1 && ev.Phase == Hold {
			found = true
		}
	}
	if !found {
		t.Fatalf("no hold-phase reset event logged: %+v", ctl.Events())
	}
	// The live shard runs at the conservative posture (RespawnPolicy).
	if lv, _ := f.ShardPolicy(1); lv != policy.BaseLevel {
		t.Fatalf("shard 1 at %v after divergence, want BASE", lv)
	}

	// A later rotation bumps the generation but is no divergence: the
	// old verdict must not reset the tuner a second time.
	if err := f.DrainShard(1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond) // 20 rounds
	resets := 0
	for _, ev := range ctl.Events() {
		if ev.Shard == 1 && ev.Reason == "divergence: conservative reset" {
			resets++
		}
	}
	if resets != 1 {
		t.Fatalf("%d divergence resets for one divergence and one rotation: %+v", resets, ctl.Events())
	}
}

// TestAutoscalerLiveScaleUpAndDown drives a real fleet with both state
// machines on the one loop: saturate a 1-shard pool past its connection
// cap, watch the scaler grow it (the new shard gets a tuner), release
// the load, watch it shrink back to the floor.
func TestAutoscalerLiveScaleUpAndDown(t *testing.T) {
	f, err := New(Config{
		Shards:           1,
		Replicas:         2,
		RequestSize:      16,
		ResponseSize:     32,
		MaxConnsPerShard: 2,
		AdmitRetries:     128,
		AdmitBackoff:     time.Millisecond,
		LockstepTimeout:  5 * time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()

	as := f.StartControl(ControlConfig{
		Tuner: &TunerConfig{},
		Scaler: &ScalerConfig{
			MinShards: 1, MaxShards: 3,
			AdmitWaitHigh: 2,
			UpRounds:      2, DownRounds: 4,
			UpCooldown: 4, DownCooldown: 2,
			InFlightFracHigh: 0.95, InFlightFracLow: 0.99,
		},
		Interval: 2 * time.Millisecond,
		Window:   3,
	})
	defer as.Close()

	// Saturate: six held-open connections against two slots. A tracked
	// splice occupies a slot without any request traffic; the overflow
	// burns admission retries (AdmitWaits pressure) until the pool grows.
	net := f.FrontNetwork()
	var conns []*vnet.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < 6; i++ {
		c, _, err := net.Connect(f.FrontAddr(), 0)
		if err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
		conns = append(conns, c)
	}

	waitFor(t, 5*time.Second, "pool scaled up", func() bool {
		serving, _ := f.PoolSize()
		return serving >= 2
	})
	waitFor(t, 5*time.Second, "scaled-up shard tuned", func() bool {
		_, ok := as.ShardLevel(1)
		return ok
	})

	// Release the load and wait for the shrink back to the floor.
	for _, c := range conns {
		c.Close()
	}
	conns = nil
	waitFor(t, 10*time.Second, "pool shrank to floor", func() bool {
		serving, _ := f.PoolSize()
		return serving == 1
	})

	ups, downs := 0, 0
	for _, ev := range as.Events() {
		switch ev.Decision {
		case ScaleUp:
			ups++
		case ScaleDown:
			downs++
		}
	}
	if ups == 0 || downs == 0 {
		t.Fatalf("event log should record both directions: ups=%d downs=%d (%d events)", ups, downs, len(as.Events()))
	}
}

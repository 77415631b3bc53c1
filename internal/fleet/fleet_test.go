package fleet

import (
	"sync/atomic"
	"testing"
	"time"

	"remon/internal/loadgen"
	"remon/internal/mem"
	"remon/internal/policy"
	"remon/internal/vkernel"
)

// drive runs conns closed-loop clients of reqs requests each against
// f's front address and returns their reports.
func drive(f *Fleet, conns, reqs int) []loadgen.ConnReport {
	return loadgen.Burst(f.FrontNetwork(), f.FrontAddr(), loadgen.Shape{
		RequestsPerConn: reqs, Window: 1,
		RequestSize: f.cfg.RequestSize, ResponseSize: f.cfg.ResponseSize,
	}, conns)
}

// burst is the small drive WaitRecoveriesDriving interleaves.
func burst(f *Fleet) func() { return func() { drive(f, 8, 2) } }

// failed reports whether a connection lost a request or ended on an
// error.
func failed(r loadgen.ConnReport) bool { return r.Lost > 0 || r.Err != "" }

// quickCfg keeps test fleets small and fast.
func quickCfg(shards int) Config {
	return Config{
		Shards:          shards,
		Replicas:        2,
		RequestSize:     32,
		ResponseSize:    128,
		LockstepTimeout: 5 * time.Second,
	}
}

func TestFleetServesAcrossShards(t *testing.T) {
	f, err := New(quickCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	out := drive(f, 16, 8)
	completed, errors := 0, 0
	for _, o := range out {
		completed += o.RespBytes / f.cfg.ResponseSize
		errors += o.Lost
	}
	if errors != 0 {
		t.Fatalf("%d client errors on a healthy fleet", errors)
	}
	if completed != 16*8 {
		t.Fatalf("completed = %d, want %d", completed, 16*8)
	}

	// Round-robin spreads connections over every shard.
	st := f.Stats()
	if st.ConnsRouted != 16 {
		t.Fatalf("routed = %d, want 16", st.ConnsRouted)
	}
	for _, si := range st.Shards {
		if si.ConnsRouted == 0 {
			t.Fatalf("shard %d received no connections under round-robin: %+v", si.Index, st.Shards)
		}
		if si.State != Serving {
			t.Fatalf("shard %d is %v after healthy run", si.Index, si.State)
		}
	}

	// Every connection's route is recorded and resolvable.
	for _, o := range out {
		if _, _, ok := f.RouteOf(o.Addr); !ok {
			t.Fatalf("no route recorded for %s", o.Addr)
		}
	}
}

// TestFleetQuarantineRecovery is the acceptance scenario: four shards
// serve a concurrent workload; a divergence injected into one shard
// yields Quarantined -> Respawning -> Serving while the other three
// shards' request streams complete with zero errors.
func TestFleetQuarantineRecovery(t *testing.T) {
	arenaBefore := mem.ArenaSnapshot()
	f, err := New(quickCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Concurrent workload with enough per-connection round trips that
	// shard 0's in-flight streams are mid-request when the verdict lands.
	loadDone := make(chan []loadgen.ConnReport, 1)
	go func() { loadDone <- drive(f, 24, 40) }()

	// Let the load ramp, then compromise shard 0's master replica.
	time.Sleep(2 * time.Millisecond)
	if err := f.InjectDivergence(0); err != nil {
		t.Fatal(err)
	}
	if !f.WaitRecoveriesDriving(1, 30*time.Second, burst(f)) {
		t.Fatalf("no recovery completed; transitions: %+v", f.Transitions())
	}
	out := <-loadDone

	// Partition client outcomes by the shard the balancer chose.
	okShards, badShardErrors := map[int]int{}, 0
	for _, o := range out {
		shard, _, routed := f.RouteOf(o.Addr)
		switch {
		case routed && shard != 0:
			okShards[shard] += o.Lost
		case routed && shard == 0:
			badShardErrors += o.Lost
		default:
			// Unrouted: refused in the quarantine window; tolerated.
		}
	}
	for shard, errs := range okShards {
		if errs != 0 {
			t.Fatalf("healthy shard %d's streams saw %d errors", shard, errs)
		}
	}
	if len(okShards) < 3 {
		t.Fatalf("only %d healthy shards received traffic", len(okShards))
	}

	// The lifecycle ran Serving -> Quarantined -> Respawning -> Serving
	// on shard 0.
	var seq []State
	for _, tr := range f.Transitions() {
		if tr.Shard == 0 && tr.Gen == 0 && tr.From == Serving && tr.To == Quarantined {
			seq = append(seq, Quarantined)
		}
		if tr.Shard == 0 && tr.To == Respawning {
			seq = append(seq, Respawning)
		}
		if tr.Shard == 0 && tr.To == Serving && tr.Reason == "respawned" {
			seq = append(seq, Serving)
		}
	}
	if len(seq) < 3 || seq[0] != Quarantined || seq[1] != Respawning || seq[2] != Serving {
		t.Fatalf("shard 0 lifecycle = %v; transitions: %+v", seq, f.Transitions())
	}
	st, gen := f.ShardState(0)
	if st != Serving || gen != 1 {
		t.Fatalf("shard 0 after recovery: state=%v gen=%d", st, gen)
	}
	if v := f.Stats().Shards[0].LastVerdict; !v.Diverged {
		t.Fatalf("no divergence verdict recorded: %+v", v)
	}
	if lats := f.RecoveryLatencies(); len(lats) < 1 || lats[0] <= 0 {
		t.Fatalf("recovery latencies = %v", lats)
	}

	// The respawned shard serves again: a fresh drive completes clean.
	out = drive(f, 8, 4)
	for _, o := range out {
		if failed(o) {
			t.Fatalf("post-recovery drive saw errors: %+v", o)
		}
	}

	// The respawn pulled its RB segment from the mem arena (the dead
	// shard's segment was recycled just before).
	arenaAfter := mem.ArenaSnapshot()
	if arenaAfter.Hits == arenaBefore.Hits {
		t.Fatalf("respawn did not recycle a pooled segment: before=%+v after=%+v", arenaBefore, arenaAfter)
	}
}

func TestFleetDrainShardRotates(t *testing.T) {
	f, err := New(quickCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	loadDone := make(chan []loadgen.ConnReport, 1)
	go func() { loadDone <- drive(f, 8, 10) }()
	time.Sleep(1 * time.Millisecond)
	if err := f.DrainShard(0); err != nil {
		t.Fatal(err)
	}
	out := <-loadDone
	// A graceful drain lets in-flight streams finish: zero errors.
	for _, o := range out {
		if failed(o) {
			t.Fatalf("drain cut a stream: %+v", o)
		}
	}
	st, gen := f.ShardState(0)
	if st != Serving || gen != 1 {
		t.Fatalf("shard 0 after drain: state=%v gen=%d", st, gen)
	}
	sawDraining := false
	for _, tr := range f.Transitions() {
		if tr.Shard == 0 && tr.To == Draining {
			sawDraining = true
		}
	}
	if !sawDraining {
		t.Fatal("drain never entered Draining state")
	}
}

func TestFleetDrainRejectsBadShard(t *testing.T) {
	f, err := New(quickCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.DrainShard(5); err == nil {
		t.Fatal("drain of nonexistent shard succeeded")
	}
}

func TestFleetCloseIdempotent(t *testing.T) {
	f, err := New(quickCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	f.Close()
	// All shards retired.
	for i := range f.shards {
		if st, _ := f.ShardState(i); st == Serving {
			t.Fatalf("shard %d still serving after Close", i)
		}
	}
}

// TestFleetRespawnConservativePolicy: a divergence quarantine respawns
// the shard at the conservative RespawnPolicy level (BASE by default),
// and the shard still serves correctly there — everything but the
// cheapest read-only calls back under full lockstep monitoring.
func TestFleetRespawnConservativePolicy(t *testing.T) {
	f, err := New(quickCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if lv, err := f.ShardPolicy(0); err != nil || lv != policy.SocketRWLevel {
		t.Fatalf("boot policy = %v (%v), want SOCKET_RW default", lv, err)
	}
	if err := f.InjectDivergence(0); err != nil {
		t.Fatal(err)
	}
	if !f.WaitRecoveriesDriving(1, 30*time.Second, burst(f)) {
		t.Fatalf("no recovery; transitions: %+v", f.Transitions())
	}
	if lv, err := f.ShardPolicy(0); err != nil || lv != policy.BaseLevel {
		t.Fatalf("post-quarantine policy = %v (%v), want BASE", lv, err)
	}
	if lv, _ := f.ShardPolicy(1); lv != policy.SocketRWLevel {
		t.Fatalf("healthy shard demoted to %v", lv)
	}
	if st := f.Stats(); st.Shards[0].Policy != policy.BaseLevel || st.Shards[1].Policy != policy.SocketRWLevel {
		t.Fatalf("Stats policy levels = %v/%v", st.Shards[0].Policy, st.Shards[1].Policy)
	}

	// The demoted shard still serves (monitored, slower, but correct).
	out := drive(f, 8, 6)
	for _, o := range out {
		if failed(o) {
			t.Fatalf("errors on the BASE-respawned fleet: %+v", o)
		}
	}

	// An operator can re-relax the recovered shard while it serves.
	if err := f.SetShardPolicy(0, policy.LevelRules(policy.SocketRWLevel)); err != nil {
		t.Fatal(err)
	}
	if lv, _ := f.ShardPolicy(0); lv != policy.SocketRWLevel {
		t.Fatalf("re-relax did not land: %v", lv)
	}
	out = drive(f, 8, 6)
	for _, o := range out {
		if failed(o) {
			t.Fatalf("errors after re-relax: %+v", o)
		}
	}
}

// TestFleetSetShardPolicyLive: hot-reloading a serving shard's rules
// mid-traffic neither drops requests nor destabilises the shard, and the
// reload actually shifts calls off the lockstep path.
func TestFleetSetShardPolicyLive(t *testing.T) {
	lv := policy.BaseLevel
	cfg := quickCfg(2)
	cfg.Policy = &lv
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	loadDone := make(chan []loadgen.ConnReport, 1)
	go func() { loadDone <- drive(f, 12, 30) }()
	time.Sleep(1 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if err := f.SetShardPolicy(i, policy.LevelRules(policy.SocketRWLevel)); err != nil {
			t.Fatal(err)
		}
	}
	out := <-loadDone
	for _, o := range out {
		if failed(o) {
			t.Fatalf("errors during live policy reload: %+v", o)
		}
	}
	for i := 0; i < 2; i++ {
		if lv, _ := f.ShardPolicy(i); lv != policy.SocketRWLevel {
			t.Fatalf("shard %d policy = %v after reload", i, lv)
		}
		if st, _ := f.ShardState(i); st != Serving {
			t.Fatalf("shard %d state = %v after reload", i, st)
		}
	}
	// A follow-up drive runs with relaxed monitoring: no verdicts, no
	// errors.
	out = drive(f, 8, 8)
	for _, o := range out {
		if failed(o) {
			t.Fatalf("errors after reload settled: %+v", o)
		}
	}
	if f.Stats().Recoveries != 0 {
		t.Fatal("policy reload triggered a spurious quarantine")
	}

	// Reloads are refused for out-of-range shards.
	if err := f.SetShardPolicy(7, policy.LevelRules(policy.BaseLevel)); err == nil {
		t.Fatal("SetShardPolicy accepted a bogus shard index")
	}
}

// TestServerProgramMakesNoBatchableCall pins why the fleet has no
// temporal relaxation axis: a master-ahead lag window only pays for
// policy.Batchable calls, and the shard server program issues none at
// any relaxation level. If the program ever grows one, this fails, and a
// per-shard lag knob is worth having again.
func TestServerProgramMakesNoBatchableCall(t *testing.T) {
	f, err := New(quickCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := f.shardAt(0)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	k := s.kernel
	s.mu.Unlock()

	var calls, batchable atomic.Uint64
	var lastBatchable atomic.Int64
	k.SetTrace(func(_ *vkernel.Thread, c *vkernel.Call) {
		calls.Add(1)
		if policy.Batchable(c.Num) {
			batchable.Add(1)
			lastBatchable.Store(int64(c.Num))
		}
	})
	defer k.SetTrace(nil)

	for lv := policy.BaseLevel; lv <= policy.SocketRWLevel; lv++ {
		if err := f.SetShardPolicy(0, policy.LevelRules(lv)); err != nil {
			t.Fatal(err)
		}
		before := calls.Load()
		for _, o := range drive(f, 8, 8) {
			if failed(o) {
				t.Fatalf("%v: errors under load: %+v", lv, o)
			}
		}
		if calls.Load() == before {
			t.Fatalf("%v: the trace saw no call", lv)
		}
		if n := batchable.Load(); n != 0 {
			t.Fatalf("%v: the server program made %d batchable calls (last: %s)",
				lv, n, vkernel.SyscallName(int(lastBatchable.Load())))
		}
	}
	if st, gen := f.ShardState(0); st != Serving || gen != 0 {
		t.Fatalf("shard 0 is %v at gen %d, want serving at gen 0", st, gen)
	}
}

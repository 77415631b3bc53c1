package fleet

import (
	"testing"
	"time"

	"remon/internal/mem"
	"remon/internal/model"
	"remon/internal/policy"
)

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

	out := f.DriveClients(DriveConfig{
		Conns: 16, RequestsPerConn: 8, ThinkTime: 2 * model.Microsecond,
	})
	completed, errors := 0, 0
	for _, o := range out {
		completed += o.Completed
		errors += o.Errors
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
		if _, _, ok := f.RouteOf(o.LocalAddr); !ok {
			t.Fatalf("no route recorded for %s", o.LocalAddr)
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
	loadDone := make(chan []ConnOutcome, 1)
	go func() {
		loadDone <- f.DriveClients(DriveConfig{
			Conns: 24, RequestsPerConn: 40, ThinkTime: 5 * model.Microsecond,
		})
	}()

	// Let the load ramp, then compromise shard 0's master replica.
	time.Sleep(2 * time.Millisecond)
	if err := f.InjectDivergence(0); err != nil {
		t.Fatal(err)
	}
	if !f.WaitRecoveriesDriving(1, 30*time.Second, DriveConfig{}) {
		t.Fatalf("no recovery completed; transitions: %+v", f.Transitions())
	}
	out := <-loadDone

	// Partition client outcomes by the shard the balancer chose.
	okShards, badShardErrors := map[int]int{}, 0
	for _, o := range out {
		shard, _, routed := f.RouteOf(o.LocalAddr)
		switch {
		case routed && shard != 0:
			okShards[shard] += o.Errors
		case routed && shard == 0:
			badShardErrors += o.Errors
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
	out = f.DriveClients(DriveConfig{Conns: 8, RequestsPerConn: 4})
	for _, o := range out {
		if o.Errors != 0 {
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

	loadDone := make(chan []ConnOutcome, 1)
	go func() {
		loadDone <- f.DriveClients(DriveConfig{
			Conns: 8, RequestsPerConn: 10, ThinkTime: 2 * model.Microsecond,
		})
	}()
	time.Sleep(1 * time.Millisecond)
	if err := f.DrainShard(0); err != nil {
		t.Fatal(err)
	}
	out := <-loadDone
	// A graceful drain lets in-flight streams finish: zero errors.
	for _, o := range out {
		if o.Errors != 0 {
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

// TestRendezvousAffinityConsistent checks the affinity math directly:
// stable mapping, and removing one shard only remaps that shard's
// clients.
func TestRendezvousAffinityConsistent(t *testing.T) {
	mk := func(idxs ...int) []*shard {
		var out []*shard
		for _, i := range idxs {
			out = append(out, &shard{idx: i})
		}
		return out
	}
	all := mk(0, 1, 2, 3)
	addrs := make([]string, 200)
	assign := map[string]int{}
	for i := range addrs {
		addrs[i] = "ephemeral:" + itoa(40000+i)
		s := rendezvousPick(all, addrs[i])
		if s2 := rendezvousPick(all, addrs[i]); s2.idx != s.idx {
			t.Fatal("affinity pick not deterministic")
		}
		assign[addrs[i]] = s.idx
	}
	// Spread: every shard gets a reasonable share.
	counts := map[int]int{}
	for _, v := range assign {
		counts[v]++
	}
	for i := 0; i < 4; i++ {
		if counts[i] == 0 {
			t.Fatalf("shard %d got no clients: %v", i, counts)
		}
	}
	// Remove shard 2: only shard 2's clients move.
	without := mk(0, 1, 3)
	for addr, prev := range assign {
		now := rendezvousPick(without, addr).idx
		if prev != 2 && now != prev {
			t.Fatalf("client %s moved %d -> %d though its shard stayed", addr, prev, now)
		}
		if prev == 2 && now == 2 {
			t.Fatal("client still mapped to removed shard")
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
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
	if !f.WaitRecoveriesDriving(1, 30*time.Second, DriveConfig{}) {
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
	out := f.DriveClients(DriveConfig{Conns: 8, RequestsPerConn: 6})
	for _, o := range out {
		if o.Errors != 0 {
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
	out = f.DriveClients(DriveConfig{Conns: 8, RequestsPerConn: 6})
	for _, o := range out {
		if o.Errors != 0 {
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

	loadDone := make(chan []ConnOutcome, 1)
	go func() {
		loadDone <- f.DriveClients(DriveConfig{
			Conns: 12, RequestsPerConn: 30, ThinkTime: 2 * model.Microsecond,
		})
	}()
	time.Sleep(1 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if err := f.SetShardPolicy(i, policy.LevelRules(policy.SocketRWLevel)); err != nil {
			t.Fatal(err)
		}
	}
	out := <-loadDone
	for _, o := range out {
		if o.Errors != 0 {
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
	out = f.DriveClients(DriveConfig{Conns: 8, RequestsPerConn: 8})
	for _, o := range out {
		if o.Errors != 0 {
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

// TestFleetSetShardLagLive: the master-ahead lag window is adjustable
// per shard while it serves, on a fleet booted at MaxLag 0 too.
func TestFleetSetShardLagLive(t *testing.T) {
	cfg := quickCfg(2)
	cfg.MaxLag = 8
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if lag, err := f.ShardLag(0); err != nil || lag != 8 {
		t.Fatalf("boot lag = %d, %v; want 8", lag, err)
	}
	loadDone := make(chan []ConnOutcome, 1)
	go func() {
		loadDone <- f.DriveClients(DriveConfig{
			Conns: 12, RequestsPerConn: 30, ThinkTime: 2 * model.Microsecond,
		})
	}()
	time.Sleep(1 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if err := f.SetShardLag(i, 64); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range <-loadDone {
		if o.Errors != 0 {
			t.Fatalf("errors during live lag reload: %+v", o)
		}
	}
	st := f.Stats()
	for i := 0; i < 2; i++ {
		if lag, _ := f.ShardLag(i); lag != 64 {
			t.Fatalf("shard %d lag = %d after reload", i, lag)
		}
		if st.Shards[i].MaxLag != 64 {
			t.Fatalf("shard %d ShardInfo.MaxLag = %d", i, st.Shards[i].MaxLag)
		}
	}
	if err := f.SetShardLag(9, 1); err == nil {
		t.Fatal("SetShardLag accepted an unknown shard")
	}
	if err := f.SetShardLag(0, -1); err == nil {
		t.Fatal("SetShardLag accepted a negative window")
	}

	// A fleet booted at MaxLag 0 takes a window live as well.
	zero, err := New(quickCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer zero.Close()
	if err := zero.SetShardLag(0, 16); err != nil {
		t.Fatal(err)
	}
	if lag, _ := zero.ShardLag(0); lag != 16 {
		t.Fatalf("shard booted at 0 reports live lag %d after SetShardLag(0, 16)", lag)
	}
}

// TestSetShardLagZeroLandsLive: a window lowered to 0 — the tuner's
// idle step-down from 8 — must reach the serving replica set, not only
// the boot record: ShardLag and Stats read the live buffer's window,
// and the set keeps serving without a respawn. (The shard program makes
// no batchable call, so its group-commit counters read 0 at any window;
// core.TestPipelineLiveLagReload pins that batching stops at 0.)
func TestSetShardLagZeroLandsLive(t *testing.T) {
	cfg := quickCfg(1)
	cfg.MaxLag = 8
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	load := func() {
		for _, o := range f.DriveClients(DriveConfig{Conns: 8, RequestsPerConn: 16, ThinkTime: model.Microsecond}) {
			if o.Errors != 0 {
				t.Fatalf("errors under load: %+v", o)
			}
		}
	}
	load()
	if err := f.SetShardLag(0, 0); err != nil {
		t.Fatal(err)
	}
	if lag, err := f.ShardLag(0); err != nil || lag != 0 {
		t.Fatalf("ShardLag = %d, %v after SetShardLag(0, 0); want 0 live", lag, err)
	}
	load()
	st := f.Stats()
	if sh := st.Shards[0]; sh.MaxLag != 0 || sh.State != Serving || sh.Gen != 0 {
		t.Fatalf("shard after SetShardLag(0, 0) under load: %+v", sh)
	}
}

// Package fleet is the serving-at-scale layer: N independent MVEE shards
// — each a full core.MVEE replica set in ModeReMon on its own simulated
// kernel and network — behind a virtual front-end load balancer. It is
// the horizontal counterpart to the paper's single-MVEE server
// experiments (§5.2): the per-instance-isolation-at-scale posture, where
// a diverging (possibly attacked) shard is quarantined and replaced while
// the rest of the fleet keeps serving.
//
// Shard lifecycle (DESIGN.md §6, §12):
//
//	Serving ──(divergence verdict)──> Quarantined ──> Respawning ──> Serving
//	Serving ──(DrainShard)──────────> Draining ─────> Respawning ──> Serving
//	Serving ──(RemoveShard)─────────> Draining ─────> Retired ─(AddShard)─> Respawning ──> Serving
//
// The pool is elastic (PR 8): AddShard grows it while serving,
// RemoveShard shrinks it through the same drain+handoff machinery a
// rolling restart uses. Removal never compacts the slice — the slot
// becomes a Retired tombstone so shard indices stay stable for routing,
// telemetry labels and the transition log, and a later AddShard revives
// the slot before appending a new one.
//
// A supervisor loop subscribes to each shard monitor's verdict
// notification. On divergence it quarantines the shard (the balancer
// routes around it), cuts the shard's in-flight connections, waits for
// the replica set to unwind, recycles the shard's RB segment through the
// mem arena (MVEE.Close), and respawns a fresh replica set on a fresh
// kernel — self-healing without interrupting the other shards' streams.
//
// Virtual time stays exact on the data plane: the balancer splices
// connections, so a request is charged both hops' link costs and the
// shard's monitored service time. Control-plane reactions (verdict
// handling, respawn, drain grace) are host-time, as they would be for a
// real orchestrator.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"remon/internal/core"
	"remon/internal/ghumvee"
	"remon/internal/model"
	"remon/internal/policy"
	"remon/internal/telemetry"
	"remon/internal/vkernel"
	"remon/internal/vnet"
)

// Typed admission/lifecycle errors. Both are sentinels so retry layers
// (and tests) can branch with errors.Is.
var (
	// ErrShardNotServing: the operation targets a shard that is not in the
	// Serving state (already Draining, Quarantined or Respawning).
	ErrShardNotServing = errors.New("fleet: shard not serving")
	// ErrOverloaded: admission was shed because every Serving shard is at
	// its MaxConnsPerShard saturation limit.
	ErrOverloaded = errors.New("fleet: all shards saturated")
)

// OverloadError is the typed backpressure admission sheds with at the
// pool ceiling: the retry budget ran out and saturation was the last
// obstacle. It unwraps to ErrOverloaded, so errors.Is branches keep
// working; RetryAfter is the balancer's capacity hint — the soonest
// remaining drain grace when a shard is mid-drain (its slots come back
// when the rotation completes), the admission backoff ceiling otherwise.
// Degradation stays graceful: the caller gets a bounded, typed answer
// instead of an unbounded queue.
type OverloadError struct {
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v (retry after %v)", ErrOverloaded, e.RetryAfter)
}

func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// State is a shard's health state.
type State int32

// Shard lifecycle states.
const (
	// Serving: healthy, receiving new connections.
	Serving State = iota
	// Draining: administratively retiring; no new connections, in-flight
	// ones allowed to finish within the drain grace.
	Draining
	// Quarantined: divergence verdict received; isolated from traffic,
	// in-flight connections cut, replica set being torn down.
	Quarantined
	// Respawning: old replica set recycled; a fresh one is being built.
	Respawning
	// Retired: removed from the pool by scale-down (RemoveShard). A
	// terminal tombstone, not a phase: the slot keeps its index (routing
	// history, telemetry labels and transitions stay coherent) but holds
	// no replica set, takes no traffic, and does not degrade Health.
	// AddShard revives retired slots before growing the slice.
	Retired
)

// atomicState is a State slot the admission fast path reads lock-free.
// Transitions still happen under the owning shard's s.mu (the lifecycle
// invariants need the lock); only the loads moved off it.
type atomicState struct{ v atomic.Int32 }

func (a *atomicState) Load() State   { return State(a.v.Load()) }
func (a *atomicState) Store(s State) { a.v.Store(int32(s)) }

// Packed shard occupancy: one atomic int64 holding both halves of the
// in-flight count — pending picks in the high 32 bits, tracked
// connections in the low 32. One CAS claims a pending slot against the
// saturation bound; one Add converts it into a tracked connection
// (track) or releases it (pendingDone); drains read a single load to
// see emptiness including picks still mid-establishment.
const occPendOne = int64(1) << 32

func occPending(v int64) int { return int(v >> 32) }
func occConns(v int64) int   { return int(int32(v)) }

func (s State) String() string {
	switch s {
	case Serving:
		return "serving"
	case Draining:
		return "draining"
	case Quarantined:
		return "quarantined"
	case Respawning:
		return "respawning"
	case Retired:
		return "retired"
	}
	return "?"
}

// Routing selects the balancer's shard-pick policy.
type Routing int

// Routing policies.
const (
	// RouteRoundRobin spreads new connections evenly over Serving shards.
	RouteRoundRobin Routing = iota
	// RouteAffinity maps a client address to a shard by rendezvous
	// (highest-random-weight) hashing: the same client consistently
	// reaches the same shard, and a shard's removal only moves that
	// shard's clients.
	RouteAffinity
	// RouteLeastLoaded picks the shard with the lowest live load score:
	// in-flight connections (tracked splices plus pending picks) weighted
	// heavily, with the shard RB's LagWaits delta since the last pick as
	// a tie-breaking backpressure signal — a shard whose master keeps
	// hitting the replication-lag budget is struggling even if its
	// connection count looks fine.
	RouteLeastLoaded
)

// Config parameterises a fleet.
type Config struct {
	// Shards is the number of MVEE shards (default 4).
	Shards int
	// Replicas per shard MVEE (default 2).
	Replicas int
	// Policy is the spatial relaxation level; nil selects SOCKET_RW, the
	// server-benchmark level. A pointer so that the meaningful zero
	// level (policy.LevelNone — IP-MON disabled, everything lockstepped)
	// stays selectable.
	Policy *policy.Level
	// RespawnPolicy is the level a shard respawns at after a *divergence*
	// quarantine; nil selects BASE — the conservative posture: a shard
	// that just hosted an attack comes back with everything but the
	// cheapest read-only calls under full lockstep monitoring, and the
	// operator re-relaxes it explicitly via SetShardPolicy once trusted
	// again. Administrative drains (rolling restarts) keep Policy.
	RespawnPolicy *policy.Level
	// Routing is the balancer policy (default round-robin).
	Routing Routing

	// FrontAddr is the balancer's address on the front network
	// (default "fleet-lb:80").
	FrontAddr string
	// FrontLink / BackLink are the client-to-balancer and
	// balancer-to-shard link profiles (defaults: GigabitLocal front,
	// Loopback back — the balancer sits next to the shards).
	FrontLink vnet.Link
	BackLink  vnet.Link

	// RequestSize / ResponseSize / ComputePerRequest shape the shard
	// server protocol (defaults 64 / 256 / 2µs).
	RequestSize       int
	ResponseSize      int
	ComputePerRequest model.Duration

	// RBSize / Partitions / Seed / LockstepTimeout pass through to each
	// shard's core.Config. RBSize defaults to 4 MiB — fleet churn
	// recycles these through the mem arena, so the class stays hot.
	RBSize          uint64
	Partitions      int
	Seed            uint64
	LockstepTimeout time.Duration
	// EpochSize is each shard monitor's divergence-checking window
	// (core.Config.EpochSize); 0 keeps immediate verification.
	EpochSize int
	// MaxLag is each shard's master-ahead replication window
	// (core.Config.MaxLag): how many checked, batchable fast-path calls
	// a shard master may complete ahead of its slowest slave's
	// consumption. 0 keeps lockstep publication. SetShardLag adjusts the
	// window per shard while serving.
	MaxLag int

	// DrainGrace bounds how long DrainShard waits for in-flight
	// connections before cutting them (default 2s host time).
	DrainGrace time.Duration
	// BackendConnectWait bounds the balancer's wait for a shard's accept
	// queue (default 250ms host time) so a wedged backend fails fast.
	BackendConnectWait time.Duration

	// Handoff enables live connection migration: a quarantined or
	// drain-expired shard's in-flight connections are frozen, their
	// queued responses harvested, their unacknowledged requests replayed
	// to a successor shard, and the front conns re-spliced mid-flight —
	// instead of being cut. Default false: the PR 2 cut-splice behaviour
	// is reproduced exactly.
	Handoff bool
	// HandoffDeadline bounds one shard's whole freeze+migrate episode
	// (host time, default 2s). Splices that miss it degrade to the old
	// cut-and-close, counted as Failovers.
	HandoffDeadline time.Duration
	// AdmitRetries is how many times the balancer re-attempts shard
	// admission for one connection when no shard currently admits
	// (Draining/Respawning gap, or a lost claim race) before refusing
	// (default 3).
	AdmitRetries int
	// AdmitBackoff is the base jittered backoff between admission
	// attempts (default 500µs host time; exponential per attempt, capped
	// at 8x, jittered ±50%).
	AdmitBackoff time.Duration
	// MaxConnsPerShard saturates a shard at this many in-flight
	// connections (tracked + pending); when every Serving shard is
	// saturated, admission sheds with ErrOverloaded. 0 = unlimited.
	MaxConnsPerShard int

	// SpliceLoops selects the polled data plane: with a positive value,
	// a vnet.SpliceSet of this many event loops forwards every
	// connection and a fixed admit-worker pool replaces the
	// per-connection goroutines — the million-connection engine's
	// O(cores+shards) goroutine budget. 0 keeps the per-connection pump
	// goroutines (and is required when Handoff is armed: live migration
	// needs the freeze/replay-capable pump flavour).
	SpliceLoops int
	// DisableRouteLog turns off the clientAddr->shard route table. Test
	// and attack harnesses need it (RouteOf); a million-connection
	// open-loop run does not, and skipping it keeps admission free of
	// per-connection map inserts.
	DisableRouteLog bool
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Policy == nil {
		lv := policy.SocketRWLevel
		c.Policy = &lv
	}
	if c.RespawnPolicy == nil {
		lv := policy.BaseLevel
		c.RespawnPolicy = &lv
	}
	if c.FrontAddr == "" {
		c.FrontAddr = "fleet-lb:80"
	}
	if c.FrontLink == (vnet.Link{}) {
		c.FrontLink = vnet.GigabitLocal
	}
	if c.BackLink == (vnet.Link{}) {
		c.BackLink = vnet.Loopback
	}
	if c.RequestSize <= 0 {
		c.RequestSize = 64
	}
	if c.ResponseSize <= 0 {
		c.ResponseSize = 256
	}
	if c.ComputePerRequest <= 0 {
		c.ComputePerRequest = 2 * model.Microsecond
	}
	if c.RBSize == 0 {
		c.RBSize = 4 << 20
	}
	if c.Partitions <= 0 {
		c.Partitions = 8
	}
	if c.Seed == 0 {
		c.Seed = 0xF1EE7
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 2 * time.Second
	}
	if c.BackendConnectWait <= 0 {
		c.BackendConnectWait = 250 * time.Millisecond
	}
	if c.HandoffDeadline <= 0 {
		c.HandoffDeadline = 2 * time.Second
	}
	if c.AdmitRetries <= 0 {
		c.AdmitRetries = 3
	}
	if c.AdmitBackoff <= 0 {
		c.AdmitBackoff = 500 * time.Microsecond
	}
	return c
}

// Transition is one recorded shard state change.
type Transition struct {
	Shard  int
	Gen    int // respawn generation the transition applies to
	From   State
	To     State
	At     time.Time // host wall-clock
	Reason string
}

// ShardInfo is one shard's stats snapshot.
type ShardInfo struct {
	Index       int
	State       State
	Gen         int
	Addr        string
	ConnsRouted uint64
	InFlight    int
	LastVerdict ghumvee.Verdict
	// Policy is the shard's current global relaxation level (the active
	// engine snapshot's default; per-fd refinements are not summarised
	// here).
	Policy policy.Level
	// MaxLag is the shard's master-ahead replication window (0 =
	// lockstep publication).
	MaxLag int
	// EpochSize is the shard monitor's divergence-checking window
	// (1 = immediate verification).
	EpochSize int
	// CurLag is the live master-ahead occupancy (calls the master is
	// currently ahead of its slowest slave); 0 for lockstep or between
	// replica sets. CurLag/MaxLag is the autoscaler's lag-occupancy
	// signal.
	CurLag int
}

// Stats is a fleet-wide snapshot.
type Stats struct {
	Shards       []ShardInfo
	ConnsRouted  uint64
	ConnsRefused uint64
	// Failovers counts in-flight connections cut by quarantine or
	// drain-expiry.
	Failovers uint64
	// Recoveries counts completed Quarantined->Serving cycles.
	Recoveries int
	// Handoffs counts in-flight connections migrated live onto a
	// successor shard (the zero-loss path); ReplayedBytes is the request
	// bytes re-sent across those migrations.
	Handoffs      uint64
	ReplayedBytes uint64
	// ConnsShed counts admissions refused with ErrOverloaded (a subset
	// of ConnsRefused).
	ConnsShed uint64
	// AdmitWaits counts admission backoff sleeps — retries the balancer
	// burned waiting for a shard to admit. Pressure that has not (yet)
	// become a shed.
	AdmitWaits uint64
	// ServingShards counts shards currently in Serving — the live
	// capacity denominator (the Shards slice includes Retired slots).
	ServingShards int
}

// shard is one MVEE shard and its supervisor-owned runtime state.
type shard struct {
	idx  int
	addr string

	// state and gen are written under s.mu (lifecycle transitions keep
	// their lock-based invariants) but read lock-free by the admission
	// fast path's post-claim revalidation.
	state atomicState
	gen   atomic.Int64
	// occ is the packed pending|conns occupancy (see occPendOne). The
	// pending half moves entirely lock-free (pickShard's CAS claim,
	// pendingDone's release); the conns half moves under s.mu alongside
	// the splices map it mirrors.
	occ atomic.Int64

	mu sync.Mutex
	// level is the relaxation level the next buildShard boots the replica
	// set at: the configured Policy normally, the conservative
	// RespawnPolicy after a divergence quarantine.
	level policy.Level
	// drainUntil is the host-time end of the current drain grace while
	// the shard is Draining — the balancer's retry-after hint derives
	// from it (capacity returns when the drain completes).
	drainUntil time.Time
	// maxLag is the master-ahead window the next buildShard boots with;
	// a perf knob (not a security posture), so unlike level it survives
	// divergence respawns. SetShardLag updates it and, when the live
	// replica set runs the pipelined protocol, applies it immediately.
	maxLag int
	// epoch is the divergence-checking window the next buildShard boots
	// with; like maxLag it is a perf knob and survives respawns.
	// SetShardEpoch updates it and applies it to the live monitor
	// immediately (epoch size is runtime-adjustable, PR 3).
	epoch   int
	net     *vnet.Network
	kernel  *vkernel.Kernel
	mvee    *core.MVEE
	runDone chan *core.Report
	splices map[*vnet.Splice]struct{}
	// connsRouted counts admissions; atomic so Stats and telemetry read
	// it without widening track's critical section.
	connsRouted atomic.Uint64
	lastVerdict ghumvee.Verdict
	// lastLagWaits is the RB LagWaits high-water observed at the last
	// least-loaded scoring pass; the delta since is the shard's live
	// replication-backpressure signal. Atomic Swap keeps the scoring
	// pass lock-free.
	lastLagWaits atomic.Uint64

	// inject arms the next-request divergence (the compromised-master
	// simulation); it holds the tamper payload the master splices over
	// its next response. Consumed by the shard server program's
	// replica 0.
	inject atomic.Pointer[[]byte]
}

// verdictEvent carries a shard monitor's divergence notification to the
// supervisor.
type verdictEvent struct {
	shard int
	gen   int
	v     ghumvee.Verdict
}

// Fleet is a running shard fleet.
type Fleet struct {
	cfg      Config
	frontNet *vnet.Network
	lis      *vnet.Listener

	// poolMu guards the shards slice itself (append by AddShard). The
	// slice is append-only — removal retires in place — so a snapshot
	// taken under poolMu stays valid forever: indices never shift and
	// entries never disappear. Per-shard state still needs each s.mu.
	poolMu sync.RWMutex
	shards []*shard

	rrNext   atomic.Uint64
	verdicts chan verdictEvent
	stopCh   chan struct{}
	stopping atomic.Bool
	wg       sync.WaitGroup

	// serving is the atomically-swapped immutable admission snapshot:
	// the Serving shards with their networks and generations captured at
	// publication (the policy.Engine pattern). pickShard loads it with
	// one atomic read; record republishes it on every transition, under
	// pubMu so the last store always reflects the newest shard state.
	serving atomic.Pointer[servingSnapshot]
	pubMu   sync.Mutex

	// spliceSet and admitCh are non-nil in polled mode (SpliceLoops>0):
	// accepted connections flow through admitCh to a fixed worker pool,
	// and the SpliceSet's event loops forward them.
	spliceSet *vnet.SpliceSet
	admitCh   chan admitReq

	// admitWaits counts admission backoff sleeps (pickShard retries) —
	// the pre-shed pressure signal the autoscaler watches: it moves
	// before ConnsShed does, because every shed first exhausted its
	// retries.
	admitWaits atomic.Uint64
	// admitSeq tokens decorrelate concurrent admission backoffs: each
	// sleep derives its jitter from a fresh token, no shared RNG lock.
	admitSeq atomic.Uint64

	// refusedCt/shedCt are atomic so refuse never touches f.mu — the
	// admission path's only f.mu hit would otherwise be its failures.
	refusedCt atomic.Uint64
	shedCt    atomic.Uint64

	// routes is striped 64 ways so route recording (opt-out via
	// DisableRouteLog) never serialises concurrent admit workers on one
	// lock; routeCount enforces the global bound across stripes.
	routes     []routeStripe
	routeCount atomic.Int64

	mu           sync.Mutex
	transitions  []Transition
	failovers    uint64
	handoffs     uint64
	replayed     uint64
	handoffLats  []time.Duration
	recoveries   int
	recoveryLats []time.Duration
	// recoveryNote is closed and replaced each time a divergence recovery
	// completes; WaitRecoveries blocks on it instead of polling.
	recoveryNote chan struct{}
	// regs are the registries RegisterTelemetry wired this fleet into;
	// AddShard registers a fresh shard's collector into each so a scrape
	// stays complete across pool growth.
	regs []*telemetry.Registry
}

type routeEntry struct {
	shard int
	gen   int
}

// routeStripe is one shard of the clientAddr->route table.
type routeStripe struct {
	mu sync.Mutex
	m  map[string]routeEntry
}

// servingSnapshot is the immutable admission view pickShard reads.
type servingSnapshot struct {
	targets []backendTarget
}

// admitReq is one accepted front connection queued for an admit worker.
type admitReq struct {
	conn *vnet.Conn
	at   model.Duration
}

// New builds the fleet: N shards (each booted and listening) behind a
// bound front-end balancer, with the supervisor running. Callers must
// Close the fleet.
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if cfg.SpliceLoops > 0 && cfg.Handoff {
		return nil, fmt.Errorf("fleet: SpliceLoops and Handoff are incompatible: live migration needs the freeze-capable pump splices")
	}
	f := &Fleet{
		cfg:          cfg,
		frontNet:     vnet.New(cfg.FrontLink),
		verdicts:     make(chan verdictEvent, cfg.Shards*4),
		stopCh:       make(chan struct{}),
		routes:       make([]routeStripe, 64),
		recoveryNote: make(chan struct{}),
	}
	for i := range f.routes {
		f.routes[i].m = map[string]routeEntry{}
	}
	lis, err := f.frontNet.Listen(cfg.FrontAddr, 1024)
	if err != nil {
		return nil, fmt.Errorf("fleet: binding balancer %s: %w", cfg.FrontAddr, err)
	}
	f.lis = lis

	for i := 0; i < cfg.Shards; i++ {
		s := f.newShardSlot()
		if err := f.buildShard(s); err != nil {
			f.Close()
			return nil, err
		}
		f.setState(s, Serving, "boot")
	}

	if cfg.SpliceLoops > 0 {
		f.spliceSet = vnet.NewSpliceSet(cfg.SpliceLoops)
		f.admitCh = make(chan admitReq, 1024)
		workers := cfg.SpliceLoops
		if workers < 2 {
			workers = 2
		}
		f.wg.Add(workers)
		for i := 0; i < workers; i++ {
			go f.admitWorker()
		}
	}

	f.wg.Add(2)
	go f.acceptLoop()
	go f.supervise()
	return f, nil
}

// FrontNetwork exposes the front network for vnet-level clients.
func (f *Fleet) FrontNetwork() *vnet.Network { return f.frontNet }

// FrontAddr reports the balancer address.
func (f *Fleet) FrontAddr() string { return f.cfg.FrontAddr }

// RequestShape reports the shard server protocol's request/response
// sizes, so external load drivers can frame correctly.
func (f *Fleet) RequestShape() (reqSize, respSize int) {
	return f.cfg.RequestSize, f.cfg.ResponseSize
}

// pool snapshots the shard slice under the pool lock. The slice is
// append-only (removal retires in place), so the snapshot never goes
// stale structurally — an iterator may see a shard appended after the
// snapshot one round late, never a dangling entry. Per-shard state still
// needs each s.mu.
func (f *Fleet) pool() []*shard {
	f.poolMu.RLock()
	defer f.poolMu.RUnlock()
	return append([]*shard(nil), f.shards...)
}

// shardAt resolves a shard index against the live pool.
func (f *Fleet) shardAt(idx int) (*shard, error) {
	f.poolMu.RLock()
	defer f.poolMu.RUnlock()
	if idx < 0 || idx >= len(f.shards) {
		return nil, fmt.Errorf("fleet: no shard %d", idx)
	}
	return f.shards[idx], nil
}

// PoolSize reports (serving, total) shard counts; total includes
// Retired tombstones.
func (f *Fleet) PoolSize() (serving, total int) {
	for _, s := range f.pool() {
		total++
		s.mu.Lock()
		if s.state.Load() == Serving && s.mvee != nil {
			serving++
		}
		s.mu.Unlock()
	}
	return serving, total
}

// newShardSlot appends a fresh Respawning shard slot at the fleet's
// configured boot knobs and returns it. Boot (buildShard) and the
// Serving flip are the caller's job.
func (f *Fleet) newShardSlot() *shard {
	f.poolMu.Lock()
	s := &shard{
		idx:     len(f.shards),
		addr:    fmt.Sprintf("shard-%d:9000", len(f.shards)),
		level:   *f.cfg.Policy,
		maxLag:  f.cfg.MaxLag,
		epoch:   f.cfg.EpochSize,
		splices: map[*vnet.Splice]struct{}{},
	}
	s.state.Store(Respawning)
	f.shards = append(f.shards, s)
	f.poolMu.Unlock()
	return s
}

// buildShard constructs a fresh replica set for s: new network and
// kernel, new MVEE (its RB segment comes from the mem arena when a
// recycled one fits), the shard server program started, listener up.
func (f *Fleet) buildShard(s *shard) error {
	if f.stopping.Load() {
		return fmt.Errorf("fleet: closing")
	}
	net := vnet.New(f.cfg.BackLink)
	net.SetConnectWait(f.cfg.BackendConnectWait)
	k := vkernel.New(net)
	s.mu.Lock()
	idx, gen, level, maxLag, epoch := s.idx, int(s.gen.Load()), s.level, s.maxLag, s.epoch
	s.mu.Unlock()
	mvee, err := core.New(core.Config{
		Mode:     core.ModeReMon,
		Replicas: f.cfg.Replicas,
		Policy:   level,
		RBSize:   f.cfg.RBSize,
		// Spread partitions so concurrent connections rarely share one.
		Partitions:      f.cfg.Partitions,
		Seed:            f.cfg.Seed + uint64(idx)*0x10001 + uint64(gen)*0x9E3779B9,
		Kernel:          k,
		LockstepTimeout: f.cfg.LockstepTimeout,
		EpochSize:       epoch,
		MaxLag:          maxLag,
		OnVerdict: func(v ghumvee.Verdict) {
			f.notifyVerdict(idx, gen, v)
		},
	})
	if err != nil {
		return fmt.Errorf("fleet: building shard %d gen %d: %w", idx, gen, err)
	}
	s.inject.Store(nil)
	runDone := make(chan *core.Report, 1)
	prog := serverProgram(serverParams{
		Addr:         s.addr,
		RequestSize:  f.cfg.RequestSize,
		ResponseSize: f.cfg.ResponseSize,
		Compute:      f.cfg.ComputePerRequest,
		Inject:       &s.inject,
	})
	go func() { runDone <- mvee.Run(prog) }()

	// The shard joins the pool only once its server is listening.
	deadline := time.Now().Add(10 * time.Second)
	for !net.HasListener(s.addr) {
		if time.Now().After(deadline) {
			mvee.Shutdown("boot timeout")
			<-runDone
			mvee.Close()
			return fmt.Errorf("fleet: shard %d gen %d never started listening", idx, gen)
		}
		time.Sleep(20 * time.Microsecond)
	}

	// Install under the shard lock with a stopping re-check: Close may
	// have swept this shard (seeing no MVEE) while we were booting — a
	// replica set installed after that sweep would leak forever. The
	// check and the install share one critical section, so either Close's
	// sweep finds the installed MVEE and retires it, or we observe
	// stopping here and retire it ourselves.
	s.mu.Lock()
	if f.stopping.Load() {
		s.mu.Unlock()
		mvee.Shutdown("fleet closing")
		<-runDone
		mvee.Close()
		return fmt.Errorf("fleet: closing")
	}
	s.net = net
	s.kernel = k
	s.mvee = mvee
	s.runDone = runDone
	s.mu.Unlock()
	return nil
}

// notifyVerdict enqueues a divergence verdict for the supervisor. Called
// on the declaring replica's goroutine; never blocks it.
func (f *Fleet) notifyVerdict(idx, gen int, v ghumvee.Verdict) {
	select {
	case f.verdicts <- verdictEvent{shard: idx, gen: gen, v: v}:
	default:
		// Queue full: the supervisor is already saturated with verdicts;
		// the gen check makes dropping duplicates safe.
	}
}

// supervise is the self-healing loop: quarantine, teardown, respawn.
func (f *Fleet) supervise() {
	defer f.wg.Done()
	for {
		select {
		case <-f.stopCh:
			return
		case ev := <-f.verdicts:
			f.handleDivergence(ev)
		}
	}
}

// handleDivergence runs the Quarantined -> Respawning -> Serving cycle
// for one shard verdict.
func (f *Fleet) handleDivergence(ev verdictEvent) {
	s, err := f.shardAt(ev.shard)
	if err != nil {
		return
	}

	// Claim the shard: a Serving — or Draining: a rolling restart must
	// not erase an attack signal — shard of the matching generation
	// transitions; anything else is a stale or duplicate event. Claiming
	// a Draining shard is safe: DrainShard's wait loop observes the
	// state change (or the taken MVEE) and bows out.
	s.mu.Lock()
	st := s.state.Load()
	if int(s.gen.Load()) != ev.gen || (st != Serving && st != Draining) || s.mvee == nil {
		s.mu.Unlock()
		return
	}
	from := st
	s.state.Store(Quarantined)
	s.lastVerdict = ev.v
	mvee, runDone := s.mvee, s.runDone
	s.mvee = nil
	var splices map[*vnet.Splice]struct{}
	if !f.cfg.Handoff {
		splices = s.takeSplicesLocked()
	}
	s.mu.Unlock()
	quarantinedAt := time.Now()
	f.record(s, ev.gen, from, Quarantined, "divergence: "+ev.v.Reason)

	var frozen []*vnet.Splice
	deadline := quarantinedAt.Add(f.cfg.HandoffDeadline)
	if f.cfg.Handoff {
		// Handoff path: let in-flight picks resolve into tracked splices
		// (track admits on the matching generation even under quarantine
		// when handoff is armed), then freeze the complete set at segment
		// boundaries. Splices that miss the freeze deadline degrade to the
		// old cut.
		f.waitPendingDrained(s)
		s.mu.Lock()
		splices = s.takeSplicesLocked()
		s.mu.Unlock()
		frozen = f.freezeSplices(splices, deadline)
	} else {
		// Cut path (Handoff=false, the PR 2 behaviour): the shard's
		// replicas are dead or dying, so in-flight connections cannot
		// complete — cut them so their clients fail fast instead of
		// hanging.
		f.cutSplices(splices)
	}

	// Teardown: wait for Run to unwind (the verdict already crashed the
	// replicas), then recycle the RB segment through the mem arena. After
	// runDone the replica set can provably never transmit again, which is
	// what makes the handoff harvest complete.
	<-runDone
	mvee.Close()
	f.setState(s, Respawning, "replica set recycled")

	// Migrate what can be placed now: with other shards Serving the
	// frozen conns resume before this shard even respawns, so handoff
	// latency is freeze + teardown, not freeze + respawn.
	frozen = f.migrateSplices(frozen, quarantinedAt, deadline)

	// Respawn a fresh replica set (new diversification seed, recycled RB
	// backing) and rejoin the pool — at the conservative respawn level: a
	// shard that just diverged is not trusted with relaxed monitoring
	// until an operator re-relaxes it (SetShardPolicy).
	s.mu.Lock()
	s.gen.Add(1)
	s.level = *f.cfg.RespawnPolicy
	s.mu.Unlock()
	if err := f.buildShard(s); err != nil {
		// Fleet closing (or resource failure): leave the shard out of the
		// pool; Close will not find an MVEE to retire.
		f.abortSplices(frozen)
		f.setState(s, Quarantined, "respawn failed: "+err.Error())
		return
	}
	f.setState(s, Serving, "respawned")

	// Second migration pass now that the respawned shard is a candidate
	// successor — the path a 1-shard fleet's handoffs take. Anything
	// still unplaced degrades to a cut.
	frozen = f.migrateSplices(frozen, quarantinedAt, deadline)
	f.abortSplices(frozen)

	f.mu.Lock()
	f.recoveries++
	f.recoveryLats = append(f.recoveryLats, time.Since(quarantinedAt))
	close(f.recoveryNote)
	f.recoveryNote = make(chan struct{})
	f.mu.Unlock()
}

// DrainShard gracefully retires and recycles a Serving shard: new
// connections route elsewhere immediately, in-flight ones get DrainGrace
// to finish, then the replica set is torn down and respawned — a rolling
// restart.
func (f *Fleet) DrainShard(idx int) error {
	s, err := f.shardAt(idx)
	if err != nil {
		return err
	}
	if f.stopping.Load() {
		return fmt.Errorf("fleet: closing")
	}
	s.mu.Lock()
	if s.state.Load() != Serving || s.mvee == nil {
		st := s.state.Load()
		s.mu.Unlock()
		return fmt.Errorf("shard %d is %v: %w", idx, st, ErrShardNotServing)
	}
	s.state.Store(Draining)
	s.drainUntil = time.Now().Add(f.cfg.DrainGrace)
	gen := int(s.gen.Load())
	s.mu.Unlock()
	f.record(s, gen, Serving, Draining, "drain requested")

	// Wait for in-flight connections to finish, then claim the MVEE in
	// the same critical section as the emptiness check — otherwise a
	// connection picked while Serving could register between the final
	// poll and the claim and be cut despite finishing in time.
	deadline := time.Now().Add(f.cfg.DrainGrace)
	var mvee *core.MVEE
	var runDone chan *core.Report
	var splices map[*vnet.Splice]struct{}
	for {
		s.mu.Lock()
		if s.state.Load() != Draining || s.mvee == nil {
			// A concurrent verdict or Close claimed the shard first.
			s.mu.Unlock()
			return nil
		}
		// occ is a single load covering both tracked splices and pending
		// picks: a pick's CAS precedes its state revalidation, so any
		// claim that validated Serving before the Draining flip is visible
		// in this read.
		if s.occ.Load() == 0 || time.Now().After(deadline) {
			s.state.Store(Respawning)
			mvee, runDone = s.mvee, s.runDone
			s.mvee = nil
			splices = s.takeSplicesLocked()
			s.mu.Unlock()
			break
		}
		s.mu.Unlock()
		time.Sleep(200 * time.Microsecond)
	}
	reason := "drained"
	var frozen []*vnet.Splice
	drainEnd := time.Now()
	handoffDeadline := drainEnd.Add(f.cfg.HandoffDeadline)
	if n := len(splices); n > 0 {
		if f.cfg.Handoff {
			reason = fmt.Sprintf("drain grace expired, %d connections handed off", n)
		} else {
			reason = fmt.Sprintf("drain grace expired, %d connections cut", n)
		}
	}
	f.record(s, gen, Draining, Respawning, reason)
	if f.cfg.Handoff {
		// Freeze the stragglers before tearing the replica set down: a
		// response the shard manages to emit while its pumps park still
		// lands in the back conn's queue and is harvested by the handoff.
		frozen = f.freezeSplices(splices, handoffDeadline)
	} else {
		f.cutSplices(splices)
	}

	mvee.Shutdown(reason)
	<-runDone
	mvee.Close()
	frozen = f.migrateSplices(frozen, drainEnd, handoffDeadline)

	s.mu.Lock()
	s.gen.Add(1)
	s.mu.Unlock()
	if err := f.buildShard(s); err != nil {
		f.abortSplices(frozen)
		f.setState(s, Quarantined, "respawn failed: "+err.Error())
		return err
	}
	f.setState(s, Serving, "rotated")
	frozen = f.migrateSplices(frozen, drainEnd, handoffDeadline)
	f.abortSplices(frozen)

	// A verdict that fired while the fresh set was still booting hit the
	// supervisor with the shard in Respawning, where the claim check
	// drops it — and the monitor only fires once. Re-notify now that the
	// shard is Serving; the generation claim makes a duplicate harmless.
	// (The supervisor's own respawn path has no such window: it is
	// single-threaded, so a boot-time verdict waits in the channel until
	// the shard is Serving.)
	s.mu.Lock()
	fresh, freshGen := s.mvee, int(s.gen.Load())
	s.mu.Unlock()
	if fresh != nil && fresh.Monitor != nil && fresh.Monitor.Diverged() {
		f.notifyVerdict(s.idx, freshGen, fresh.Monitor.Verdict())
	}
	return nil
}

// AddShard grows the pool by one Serving shard — the autoscaler's
// scale-up actuator, also usable administratively. A Retired tombstone
// is revived in place when one exists (the slice stays bounded under
// repeated scale cycles); otherwise a fresh slot is appended and its
// telemetry collector registered into every registry the fleet is wired
// to, so a scrape stays complete across pool growth. The shard boots at
// the fleet's configured policy/lag/epoch knobs and joins the balancer's
// candidate set once its server listens. Returns the shard's index.
func (f *Fleet) AddShard() (int, error) {
	if f.stopping.Load() {
		return -1, fmt.Errorf("fleet: closing")
	}
	var s *shard
	from := Respawning
	f.poolMu.RLock()
	for _, cand := range f.shards {
		cand.mu.Lock()
		if cand.state.Load() == Retired {
			// Revive in place: a fresh generation at the configured boot
			// knobs, exactly as a fresh slot would get. The state flip under
			// cand.mu is the claim — a concurrent AddShard sees Respawning
			// and moves on.
			cand.state.Store(Respawning)
			cand.gen.Add(1)
			cand.level = *f.cfg.Policy
			cand.maxLag = f.cfg.MaxLag
			cand.epoch = f.cfg.EpochSize
			cand.splices = map[*vnet.Splice]struct{}{}
			s = cand
			from = Retired
		}
		cand.mu.Unlock()
		if s != nil {
			break
		}
	}
	f.poolMu.RUnlock()
	if s == nil {
		s = f.newShardSlot()
		f.registerShardCollectors(s)
	}
	gen := int(s.gen.Load())
	f.record(s, gen, from, Respawning, "scale-up")
	if err := f.buildShard(s); err != nil {
		f.setState(s, Retired, "scale-up failed: "+err.Error())
		return s.idx, err
	}
	f.setState(s, Serving, "scaled up")
	return s.idx, nil
}

// RemoveShard retires a Serving shard from the pool — the scale-down
// actuator. Admission routes around it immediately (Draining), in-flight
// connections get DrainGrace to finish; with handoff armed the
// stragglers migrate live onto the surviving shards, exactly as a
// rolling restart's would — but instead of respawning, the replica set
// is recycled and the slot becomes a Retired tombstone (index preserved;
// AddShard revives it). Two refusals keep the pool sound: removing the
// last Serving shard is rejected up front, and a divergence verdict that
// claims the shard mid-drain preempts the removal — supervisor wins, the
// quarantine/respawn cycle runs instead, and RemoveShard reports the
// preemption so the caller re-observes before trying again.
func (f *Fleet) RemoveShard(idx int) error {
	s, err := f.shardAt(idx)
	if err != nil {
		return err
	}
	if f.stopping.Load() {
		return fmt.Errorf("fleet: closing")
	}
	others := 0
	for _, o := range f.pool() {
		if o == s {
			continue
		}
		o.mu.Lock()
		if o.state.Load() == Serving && o.mvee != nil {
			others++
		}
		o.mu.Unlock()
	}
	if others == 0 {
		return fmt.Errorf("fleet: refusing to remove shard %d: no other serving shard", idx)
	}
	s.mu.Lock()
	if s.state.Load() != Serving || s.mvee == nil {
		st := s.state.Load()
		s.mu.Unlock()
		return fmt.Errorf("shard %d is %v: %w", idx, st, ErrShardNotServing)
	}
	s.state.Store(Draining)
	s.drainUntil = time.Now().Add(f.cfg.DrainGrace)
	gen := int(s.gen.Load())
	s.mu.Unlock()
	f.record(s, gen, Serving, Draining, "scale-down drain")

	deadline := time.Now().Add(f.cfg.DrainGrace)
	var mvee *core.MVEE
	var runDone chan *core.Report
	var splices map[*vnet.Splice]struct{}
	for {
		s.mu.Lock()
		if s.state.Load() != Draining || s.mvee == nil {
			st := s.state.Load()
			s.mu.Unlock()
			return fmt.Errorf("fleet: shard %d removal preempted (shard now %v): %w", idx, st, ErrShardNotServing)
		}
		if s.occ.Load() == 0 || time.Now().After(deadline) {
			s.state.Store(Retired)
			mvee, runDone = s.mvee, s.runDone
			s.mvee = nil
			splices = s.takeSplicesLocked()
			s.mu.Unlock()
			break
		}
		s.mu.Unlock()
		time.Sleep(200 * time.Microsecond)
	}
	reason := "scaled down"
	var frozen []*vnet.Splice
	drainEnd := time.Now()
	handoffDeadline := drainEnd.Add(f.cfg.HandoffDeadline)
	if n := len(splices); n > 0 {
		if f.cfg.Handoff {
			reason = fmt.Sprintf("scaled down, %d connections handed off", n)
		} else {
			reason = fmt.Sprintf("scaled down, %d connections cut", n)
		}
	}
	f.record(s, gen, Draining, Retired, reason)
	if f.cfg.Handoff {
		frozen = f.freezeSplices(splices, handoffDeadline)
	} else {
		f.cutSplices(splices)
	}

	mvee.Shutdown(reason)
	<-runDone
	mvee.Close()
	// Migrate stragglers onto the surviving shards. Unlike a drain there
	// is no "after the respawn" second pass — the victim is gone — so
	// retry within the handoff deadline before degrading to a cut.
	frozen = f.migrateSplices(frozen, drainEnd, handoffDeadline)
	for len(frozen) > 0 && time.Now().Before(handoffDeadline) {
		time.Sleep(200 * time.Microsecond)
		frozen = f.migrateSplices(frozen, drainEnd, handoffDeadline)
	}
	f.abortSplices(frozen)
	return nil
}

// SetShardPolicy hot-reloads a serving shard's relaxation rules while its
// traffic is live: the rule set is installed into the shard MVEE's shared
// policy engine and every logical-thread stream adopts it at its next
// replication-buffer handoff — no drain, no restart. The shard also
// remembers the new global default as its boot level for administrative
// rotations (divergence respawns still fall back to RespawnPolicy).
func (f *Fleet) SetShardPolicy(idx int, rules policy.Rules) error {
	s, err := f.shardAt(idx)
	if err != nil {
		return err
	}
	s.mu.Lock()
	mvee, st, gen := s.mvee, s.state.Load(), int(s.gen.Load())
	s.mu.Unlock()
	if st != Serving && st != Draining || mvee == nil {
		return fmt.Errorf("fleet: shard %d is %v, cannot reload policy", idx, st)
	}
	if _, err := mvee.SetPolicy(rules); err != nil {
		return err
	}
	// Re-check under the lock before recording the new boot level: a
	// concurrent divergence verdict may have replaced the replica set
	// between the snapshot above and the install — in that case the rules
	// landed in the retired MVEE's engine and the fresh set is running at
	// RespawnPolicy, so the reload must be reported as lost, not applied.
	s.mu.Lock()
	if int(s.gen.Load()) != gen || s.mvee != mvee {
		cur := int(s.gen.Load())
		s.mu.Unlock()
		return fmt.Errorf("fleet: shard %d was replaced during the reload (gen %d -> %d); retry", idx, gen, cur)
	}
	s.level = rules.Default
	s.mu.Unlock()
	f.record(s, gen, st, st, fmt.Sprintf("policy reloaded (default %v)", rules.Default))
	return nil
}

// SetShardLag adjusts a shard's master-ahead replication window while
// it serves. The value is recorded as the shard's boot setting (it
// survives respawns — lag is a performance knob, not a trust posture)
// and, when the live replica set already runs the pipelined protocol,
// applied immediately through the MVEE. A shard booted at MaxLag 0 runs
// the legacy publish-per-call protocol, which cannot flip live — the
// new window then takes effect at the shard's next respawn.
func (f *Fleet) SetShardLag(idx, lag int) error {
	s, err := f.shardAt(idx)
	if err != nil {
		return err
	}
	if lag < 0 {
		return fmt.Errorf("fleet: negative lag window %d", lag)
	}
	s.mu.Lock()
	s.maxLag = lag
	mvee, st, gen := s.mvee, s.state.Load(), int(s.gen.Load())
	s.mu.Unlock()
	applied := "at next respawn"
	if (st == Serving || st == Draining) && mvee != nil && lag > 0 {
		if err := mvee.SetMaxLag(lag); err == nil {
			applied = "live"
		}
	}
	f.record(s, gen, st, st, fmt.Sprintf("lag window set to %d (%s)", lag, applied))
	return nil
}

// SetShardEpoch adjusts a shard's divergence-checking window while it
// serves. Like SetShardLag this is a performance knob, not a trust
// posture: the value is recorded as the shard's boot setting (surviving
// respawns) and applied to the live monitor immediately — epoch size is
// runtime-adjustable, so unlike the lag window there is no
// "at next respawn" case for a live shard.
func (f *Fleet) SetShardEpoch(idx, n int) error {
	s, err := f.shardAt(idx)
	if err != nil {
		return err
	}
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	s.epoch = n
	mvee, st, gen := s.mvee, s.state.Load(), int(s.gen.Load())
	applied := "at next respawn"
	if (st == Serving || st == Draining) && mvee != nil && mvee.Monitor != nil {
		mvee.Monitor.SetEpochSize(n)
		applied = "live"
	}
	s.mu.Unlock()
	f.record(s, gen, st, st, fmt.Sprintf("epoch size set to %d (%s)", n, applied))
	return nil
}

// ShardEpoch reports a shard's live divergence-checking window (its
// boot setting when the shard is between replica sets).
func (f *Fleet) ShardEpoch(idx int) (int, error) {
	s, err := f.shardAt(idx)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.state.Load(); s.mvee != nil && s.mvee.Monitor != nil && (st == Serving || st == Draining) {
		return s.mvee.Monitor.EpochSize(), nil
	}
	return s.epoch, nil
}

// ShardLag reports a shard's live master-ahead window (its boot setting
// when the shard is between replica sets).
func (f *Fleet) ShardLag(idx int) (int, error) {
	s, err := f.shardAt(idx)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.state.Load(); s.mvee != nil && (st == Serving || st == Draining) {
		return s.mvee.MaxLag(), nil
	}
	return s.maxLag, nil
}

// ShardPolicy reports a shard's currently active global relaxation level
// (the live engine snapshot's default when the shard is up, the pending
// boot level otherwise).
func (f *Fleet) ShardPolicy(idx int) (policy.Level, error) {
	s, err := f.shardAt(idx)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.effectiveLevelLocked(), nil
}

// SetShardFault installs (or, with nil, clears) a fault profile on a
// shard's backend network: every balancer->shard and shard->balancer
// segment picks up the profile's extra latency and periodic RTO
// redelivery. Chaos harnesses use it to model a stalling replica set —
// degraded, but not diverged. The profile dies with the current replica
// set: a respawn builds a fresh network without it.
func (f *Fleet) SetShardFault(idx int, p *vnet.FaultProfile) error {
	s, err := f.shardAt(idx)
	if err != nil {
		return err
	}
	s.mu.Lock()
	net := s.net
	s.mu.Unlock()
	if net == nil {
		return fmt.Errorf("shard %d has no live network: %w", idx, ErrShardNotServing)
	}
	net.SetFaultProfile(p)
	return nil
}

// InjectDivergence arms the compromised-master simulation on a shard:
// its master replica tampers with the next response payload, which the
// slave's IP-MON comparison catches as divergence (§3.3). Test, attack
// and bench harnesses use it to exercise the quarantine path.
func (f *Fleet) InjectDivergence(idx int) error {
	return f.InjectTamper(idx, []byte("PWNED-EXFIL!"))
}

// InjectTamper arms the compromised-master simulation with an explicit
// tamper payload: the master splices payload over the prefix of its next
// response (truncated to the response size). The attack generator's
// fleet path uses this to replay each vulnerability class's exact
// exfiltration bytes through a live shard.
func (f *Fleet) InjectTamper(idx int, payload []byte) error {
	s, err := f.shardAt(idx)
	if err != nil {
		return err
	}
	if len(payload) == 0 {
		payload = []byte("PWNED-EXFIL!")
	}
	p := append([]byte(nil), payload...)
	s.inject.Store(&p)
	return nil
}

// effectiveLevelLocked resolves the shard's reported relaxation level:
// the live engine snapshot's global default when a replica set is up, the
// pending boot level otherwise. s.mu must be held.
func (s *shard) effectiveLevelLocked() policy.Level {
	if s.mvee != nil {
		if e := s.mvee.PolicyEngine(); e != nil {
			return e.Current().Default()
		}
	}
	return s.level
}

// takeSplicesLocked detaches and returns the shard's in-flight splice
// set; s.mu must be held. The occ conns half tracks the map, so the
// taken connections leave the occupancy too (their untracks become
// no-ops).
func (s *shard) takeSplicesLocked() map[*vnet.Splice]struct{} {
	splices := s.splices
	s.splices = map[*vnet.Splice]struct{}{}
	if n := len(splices); n > 0 {
		s.occ.Add(-int64(n))
	}
	return splices
}

// cutSplices aborts a detached splice set and accounts the failovers.
func (f *Fleet) cutSplices(splices map[*vnet.Splice]struct{}) {
	for sp := range splices {
		sp.Abort()
	}
	if len(splices) > 0 {
		f.mu.Lock()
		f.failovers += uint64(len(splices))
		f.mu.Unlock()
	}
}

// setState transitions s and records it.
func (f *Fleet) setState(s *shard, to State, reason string) {
	s.mu.Lock()
	from := s.state.Load()
	s.state.Store(to)
	gen := int(s.gen.Load())
	s.mu.Unlock()
	f.record(s, gen, from, to, reason)
}

func (f *Fleet) record(s *shard, gen int, from, to State, reason string) {
	f.mu.Lock()
	f.transitions = append(f.transitions, Transition{
		Shard: s.idx, Gen: gen, From: from, To: to, At: time.Now(), Reason: reason,
	})
	f.mu.Unlock()
	// Every lifecycle mutation flows through here (after the shard lock
	// is released), so republishing now keeps the admission snapshot
	// current without any polling.
	f.publishServing()
}

// publishServing rebuilds and swaps the admission snapshot. pubMu
// serialises concurrent publishers so the last store is always built
// from the newest shard state — a stale snapshot could otherwise
// outlive the transition that should have retired it. Readers cost one
// atomic pointer load; post-claim revalidation in pickShard catches the
// (bounded) window between a transition and its republication.
func (f *Fleet) publishServing() {
	f.pubMu.Lock()
	defer f.pubMu.Unlock()
	f.poolMu.RLock()
	shards := append([]*shard(nil), f.shards...)
	f.poolMu.RUnlock()
	targets := make([]backendTarget, 0, len(shards))
	for _, s := range shards {
		s.mu.Lock()
		if s.state.Load() == Serving && s.mvee != nil {
			targets = append(targets, backendTarget{
				s: s, net: s.net, gen: int(s.gen.Load()), mvee: s.mvee,
			})
		}
		s.mu.Unlock()
	}
	f.serving.Store(&servingSnapshot{targets: targets})
}

// Transitions returns a copy of the state-change log.
func (f *Fleet) Transitions() []Transition {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Transition(nil), f.transitions...)
}

// RecoveryLatencies reports host-time Quarantined->Serving durations for
// completed divergence recoveries.
func (f *Fleet) RecoveryLatencies() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.recoveryLats...)
}

// ShardState reports a shard's current state and generation. An
// out-of-range index reports (Retired, -1) — an index that was valid
// once stays valid forever (removal retires in place), so this only
// happens for indices the pool never held.
func (f *Fleet) ShardState(idx int) (State, int) {
	s, err := f.shardAt(idx)
	if err != nil {
		return Retired, -1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.Load(), int(s.gen.Load())
}

// RouteOf reports which shard (and generation) a client address was
// balanced to. Client addresses are the ephemeral endpoints vnet assigns
// at connect time (Conn.LocalAddr on the client side). Always reports
// not-found when Config.DisableRouteLog turned recording off.
func (f *Fleet) RouteOf(clientAddr string) (shard, gen int, ok bool) {
	st := &f.routes[fnv1a(clientAddr, 0)&63]
	st.mu.Lock()
	defer st.mu.Unlock()
	r, ok := st.m[clientAddr]
	return r.shard, r.gen, ok
}

// Stats snapshots the fleet.
//
// Consistency contract: Stats is NOT one global atomic snapshot — it is
// a sequence of per-lock snapshots. Each ShardInfo is taken under that
// shard's s.mu, so the fields *within* one ShardInfo (state, gen,
// in-flight, verdict, knobs) are mutually consistent. The migration
// counters (Failovers, Handoffs, ReplayedBytes, Recoveries) are all
// read under one f.mu critical section — the same lock every writer
// holds when it advances them — so *they* are mutually consistent too:
// a handoff that bumped Handoffs has also bumped ReplayedBytes by the
// time either is visible, because both increments share the writer's
// f.mu section (see migrateSplices in handoff.go). ConnsRefused and
// ConnsShed are plain atomics (refuse never takes f.mu — the admission
// path stays lock-free even on failure), so a shed can be visible in
// ConnsShed one scrape before ConnsRefused; both only grow. What the
// contract does NOT give you is consistency *across* the groups or
// between two shards: a connection can be routed (bumping a shard's
// ConnsRouted) after its shard's row was snapshotted but before f.mu
// is taken. Cumulative counters only ever grow, so the skew is bounded
// and monotone — exactly the semantics a metrics scrape needs, and
// TestStatsConsistencyUnderChaos pins the invariants that must hold
// across any such snapshot.
func (f *Fleet) Stats() Stats {
	st := Stats{}
	var routed uint64
	for _, s := range f.pool() {
		s.mu.Lock()
		lv := s.effectiveLevelLocked()
		sstate := s.state.Load()
		lag, epoch, curLag := s.maxLag, s.epoch, 0
		if s.mvee != nil && (sstate == Serving || sstate == Draining) {
			lag = s.mvee.MaxLag()
			if s.mvee.Monitor != nil {
				epoch = s.mvee.Monitor.EpochSize()
			}
			curLag = int(s.mvee.RBStats().CurLag)
		}
		if sstate == Serving && s.mvee != nil {
			st.ServingShards++
		}
		sRouted := s.connsRouted.Load()
		st.Shards = append(st.Shards, ShardInfo{
			Index:       s.idx,
			State:       sstate,
			Gen:         int(s.gen.Load()),
			Addr:        s.addr,
			ConnsRouted: sRouted,
			InFlight:    len(s.splices),
			LastVerdict: s.lastVerdict,
			Policy:      lv,
			MaxLag:      lag,
			EpochSize:   epoch,
			CurLag:      curLag,
		})
		routed += sRouted
		s.mu.Unlock()
	}
	st.AdmitWaits = f.admitWaits.Load()
	st.ConnsRouted = routed
	st.ConnsRefused = f.refusedCt.Load()
	st.ConnsShed = f.shedCt.Load()
	f.mu.Lock()
	st.Failovers = f.failovers
	st.Handoffs = f.handoffs
	st.ReplayedBytes = f.replayed
	st.Recoveries = f.recoveries
	f.mu.Unlock()
	return st
}

// HandoffLatencies reports host-time freeze-to-resume durations for
// completed live migrations, one entry per handed-off connection.
func (f *Fleet) HandoffLatencies() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.handoffLats...)
}

// WaitRecoveries blocks (host time, bounded) until at least n divergence
// recoveries completed. Reports whether the target was reached. The wait
// parks on the recovery-notification channel (closed and replaced by the
// supervisor at each completed recovery), so it wakes exactly when the
// count moves — no polling interval, mirroring the PR 5 WaitDrained
// abort-channel fix.
func (f *Fleet) WaitRecoveries(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		f.mu.Lock()
		done := f.recoveries >= n
		note := f.recoveryNote
		f.mu.Unlock()
		if done {
			return true
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return false
		}
		t := time.NewTimer(remaining)
		select {
		case <-note:
			t.Stop()
		case <-t.C:
			// Deadline reached; one last count check closes the race where
			// the recovery landed as the timer fired.
			f.mu.Lock()
			done = f.recoveries >= n
			f.mu.Unlock()
			return done
		}
	}
}

// WaitRecoveriesDriving waits like WaitRecoveries but interleaves small
// client bursts, guaranteeing an armed InjectDivergence meets traffic —
// without its own load a caller can race: the background workload may
// finish before any request reaches the compromised shard, and the
// injection then never fires. Burst zero-values fall back to a minimal
// drive.
func (f *Fleet) WaitRecoveriesDriving(n int, timeout time.Duration, burst DriveConfig) bool {
	if burst.Conns <= 0 {
		burst.Conns = 8
	}
	if burst.RequestsPerConn <= 0 {
		burst.RequestsPerConn = 2
	}
	deadline := time.Now().Add(timeout)
	for {
		if f.WaitRecoveries(n, 10*time.Millisecond) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		f.DriveClients(burst)
	}
}

// Close stops the balancer and supervisor, then retires every shard
// (graceful Shutdown, Run unwind, RB segment recycled). Idempotent.
func (f *Fleet) Close() {
	if !f.stopping.CompareAndSwap(false, true) {
		return
	}
	f.lis.Close()
	close(f.stopCh)
	f.wg.Wait()

	for _, s := range f.pool() {
		s.mu.Lock()
		mvee, runDone := s.mvee, s.runDone
		s.mvee = nil
		splices := s.takeSplicesLocked()
		s.state.Store(Quarantined)
		s.mu.Unlock()
		for sp := range splices {
			sp.Abort()
		}
		if mvee != nil {
			mvee.Shutdown("fleet close")
			<-runDone
			mvee.Close()
		}
	}
	if f.spliceSet != nil {
		// After the sweep every polled splice is aborted; closing the set
		// lets its event loops drain the resulting events and exit.
		f.spliceSet.Close()
	}
}

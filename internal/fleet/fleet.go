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
//	any ──────(Close, failed boot)──> Retired
//
// Every arrow out of a replica set runs one routine (lifecycle.go):
// claim the shard, freeze its connections, stop the replica set,
// hand the frozen connections off to successor shards, then respawn or
// leave a Retired tombstone. Live handoff is the only way a connection
// leaves a shard; only a closing fleet, or a handoff no successor took
// by its deadline, cuts one. A supervisor loop feeds the routine each
// shard monitor's divergence verdict — self-healing without
// interrupting the other shards' streams. The pool is elastic: AddShard grows it while serving and
// RemoveShard shrinks it through the same drain and handoff a rolling
// restart uses. Removal never compacts the slice — the Retired slot
// keeps its index for routing, telemetry labels and the transition log,
// and a later AddShard revives it before appending a new one.
//
// Virtual time stays exact on the data plane: the balancer splices
// connections, so a request is charged both hops' link costs and the
// shard's monitored service time. Control-plane reactions (verdict
// handling, respawn, drain grace) are host-time, as they would be for a
// real orchestrator.
//
// The fleet owns no client traffic. Tests, the attack suite and the
// examples drive it with internal/loadgen against FrontAddr and resolve
// each connection's shard with RouteOf.
package fleet

import (
	"errors"
	"fmt"
	"runtime"
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
	"remon/internal/wait"
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
	// in-flight connections handed off, replica set being torn down.
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

// Fixed balancer parameters.
const (
	// frontAddr is the balancer's address on the front network.
	frontAddr = "fleet-lb:80"
	// backendConnectWait bounds the balancer's wait for a shard's accept
	// queue (host time), so a wedged backend fails fast.
	backendConnectWait = 250 * time.Millisecond
	// handoffDeadline bounds one shard's whole freeze+migrate episode
	// (host time). Splices that miss it are cut, counted as Failovers.
	handoffDeadline = 2 * time.Second
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

	// DrainGrace bounds how long DrainShard waits for in-flight
	// connections before handing them off to other shards (default 2s
	// host time).
	DrainGrace time.Duration
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

	// SpliceLoops sizes the data plane: a vnet.SpliceSet of this many
	// event loops forwards every connection, and a fixed admit-worker
	// pool feeds it — the million-connection engine's O(cores+shards)
	// goroutine budget. 0 derives the count from GOMAXPROCS.
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
	if c.AdmitRetries <= 0 {
		c.AdmitRetries = 3
	}
	if c.AdmitBackoff <= 0 {
		c.AdmitBackoff = 500 * time.Microsecond
	}
	if c.SpliceLoops <= 0 {
		c.SpliceLoops = runtime.GOMAXPROCS(0)
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
	// Divergences counts the slot's divergence quarantines.
	Divergences int
	// Policy is the shard's current global relaxation level (the active
	// engine snapshot's default; per-fd refinements are not summarised
	// here).
	Policy policy.Level
}

// Stats is a fleet-wide snapshot.
type Stats struct {
	Shards       []ShardInfo
	ConnsRouted  uint64
	ConnsRefused uint64
	// Failovers counts in-flight connections cut: by a closing fleet,
	// or because no successor shard took them over before the handoff
	// deadline.
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
	net        *vnet.Network
	kernel     *vkernel.Kernel
	// replicaSet is the live generation (zero between generations);
	// only a lifecycle claim (claimLocked) takes it away.
	replicaSet
	splices map[*vnet.Splice]struct{}
	// connsRouted counts admissions; atomic so Stats and telemetry read
	// it without widening track's critical section.
	connsRouted atomic.Uint64
	lastVerdict ghumvee.Verdict
	// divergences counts the divergence quarantines this slot went
	// through; lastVerdict survives later rotations, the count tells a
	// new divergence from an old one.
	divergences int

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

	// Accepted connections flow through admitCh to a fixed worker pool,
	// and the SpliceSet's event loops forward them. onSpliceDone is
	// untrackDone bound once, so admission allocates no callback per
	// connection.
	spliceSet    *vnet.SpliceSet
	admitCh      chan admitReq
	onSpliceDone func(*vnet.Splice)

	// admitWaits counts admission backoff sleeps (pickShard retries) —
	// the pre-shed pressure signal the pool scaler watches: it moves
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
	// recoveryQ parks WaitRecoveries callers; each completed divergence
	// recovery wakes them all (f.mu).
	recoveryQ wait.Queue
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
	f := &Fleet{
		cfg:      cfg,
		frontNet: vnet.New(vnet.GigabitLocal),
		verdicts: make(chan verdictEvent, cfg.Shards*4),
		stopCh:   make(chan struct{}),
		routes:   make([]routeStripe, 64),
	}
	for i := range f.routes {
		f.routes[i].m = map[string]routeEntry{}
	}
	lis, err := f.frontNet.Listen(frontAddr, 1024)
	if err != nil {
		return nil, fmt.Errorf("fleet: binding balancer %s: %w", frontAddr, err)
	}
	f.lis = lis

	for i := 0; i < cfg.Shards; i++ {
		if err := f.boot(f.newShardSlot(), "boot"); err != nil {
			f.Close()
			return nil, err
		}
	}

	f.spliceSet = vnet.NewSpliceSet(cfg.SpliceLoops)
	f.admitCh = make(chan admitReq, 1024)
	f.onSpliceDone = f.untrackDone
	workers := max(cfg.SpliceLoops, 2)
	f.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go f.admitWorker()
	}

	f.wg.Add(2)
	go f.acceptLoop()
	go f.supervise()
	return f, nil
}

// FrontNetwork exposes the front network for vnet-level clients.
func (f *Fleet) FrontNetwork() *vnet.Network { return f.frontNet }

// FrontAddr reports the balancer address.
func (f *Fleet) FrontAddr() string { return frontAddr }

// RequestShape reports the shard server protocol's request/response
// sizes, so external load drivers can frame correctly.
func (f *Fleet) RequestShape() (reqSize, respSize int) {
	return f.cfg.RequestSize, f.cfg.ResponseSize
}

// pool snapshots the shard slice under the pool lock. The slice is
// append-only (removal retires in place), so the snapshot never goes
// stale structurally — an iterator may see a shard appended after the
// snapshot one round late, never a dangling entry — and sharing its
// backing array is safe: appends only write past the snapshot's length,
// which the capped capacity keeps out of reach. Per-shard state still
// needs each s.mu.
func (f *Fleet) pool() []*shard {
	f.poolMu.RLock()
	defer f.poolMu.RUnlock()
	return f.shards[:len(f.shards):len(f.shards)]
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
// configured policy and returns it; the caller boots it.
func (f *Fleet) newShardSlot() *shard {
	f.poolMu.Lock()
	s := &shard{
		idx:     len(f.shards),
		addr:    fmt.Sprintf("shard-%d:9000", len(f.shards)),
		level:   *f.cfg.Policy,
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
	// The balancer sits next to the shards: a loopback back link behind
	// the gigabit front one.
	net := vnet.New(vnet.Loopback)
	net.SetConnectWait(backendConnectWait)
	k := vkernel.New(net)
	s.mu.Lock()
	idx, gen, level := s.idx, int(s.gen.Load()), s.level
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
		OnVerdict: func(v ghumvee.Verdict) {
			f.notifyVerdict(idx, gen, v)
		},
	})
	if err != nil {
		return fmt.Errorf("fleet: building shard %d gen %d: %w", idx, gen, err)
	}
	s.inject.Store(nil)
	rs := replicaSet{mvee: mvee, runDone: make(chan *core.Report, 1)}
	prog := serverProgram(serverParams{
		Addr:         s.addr,
		RequestSize:  f.cfg.RequestSize,
		ResponseSize: f.cfg.ResponseSize,
		Compute:      f.cfg.ComputePerRequest,
		Inject:       &s.inject,
	})
	go func() { rs.runDone <- mvee.Run(prog) }()

	// The shard joins the pool only once its server is listening.
	deadline := time.Now().Add(10 * time.Second)
	for !net.HasListener(s.addr) {
		if time.Now().After(deadline) {
			rs.stop("boot timeout")
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
		rs.stop("fleet closing")
		return fmt.Errorf("fleet: closing")
	}
	s.net = net
	s.kernel = k
	s.replicaSet = rs
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
	// a Draining shard is safe: the drain wait observes the state change
	// and bows out.
	s.mu.Lock()
	st := s.state.Load()
	if int(s.gen.Load()) != ev.gen || (st != Serving && st != Draining) || s.mvee == nil {
		s.mu.Unlock()
		return
	}
	s.lastVerdict = ev.v
	s.divergences++
	c := s.claimLocked(Quarantined)
	s.mu.Unlock()

	// Respawn at the conservative respawn level: a shard that just
	// diverged is not trusted with relaxed monitoring until an operator
	// re-relaxes it (SetShardPolicy).
	if f.cycle(c, "divergence: "+ev.v.Reason, "respawned", f.cfg.RespawnPolicy) != nil {
		return
	}
	f.mu.Lock()
	f.recoveries++
	f.recoveryLats = append(f.recoveryLats, time.Since(c.at))
	f.recoveryQ.WakeAll(0)
	f.mu.Unlock()
}

// DrainShard gracefully retires and recycles a Serving shard: new
// connections route elsewhere immediately, in-flight ones get DrainGrace
// to finish, then the replica set is torn down and respawned — a rolling
// restart. A verdict that claims the shard mid-drain preempts the
// rotation; DrainShard then returns nil.
func (f *Fleet) DrainShard(idx int) error {
	s, err := f.shardAt(idx)
	if err != nil {
		return err
	}
	c, ok, err := f.drain(s, Respawning, "drain requested")
	if !ok {
		return err
	}
	return f.cycle(c, "drained", "rotated", nil)
}

// AddShard grows the pool by one Serving shard — the pool scaler's
// scale-up actuator, also usable administratively. A Retired tombstone
// is revived in place when one exists (the slice stays bounded under
// repeated scale cycles); otherwise a fresh slot is appended and its
// telemetry collector registered into every registry the fleet is wired
// to, so a scrape stays complete across pool growth. The shard boots at
// the fleet's configured policy and joins the balancer's
// candidate set once its server listens. Returns the shard's index.
func (f *Fleet) AddShard() (int, error) {
	if f.stopping.Load() {
		return -1, fmt.Errorf("fleet: closing")
	}
	for _, s := range f.pool() {
		s.mu.Lock()
		if s.state.Load() != Retired {
			s.mu.Unlock()
			continue
		}
		// Revive in place at the configured policy, exactly as a fresh
		// slot would get it. The claim is the state flip — a concurrent
		// AddShard sees Respawning and moves on.
		c := s.claimLocked(Respawning)
		s.level = *f.cfg.Policy
		s.mu.Unlock()
		return s.idx, f.cycle(c, "scale-up", "scaled up", nil)
	}
	s := f.newShardSlot()
	f.registerShardCollectors(s)
	return s.idx, f.boot(s, "scaled up")
}

// RemoveShard retires a Serving shard from the pool — the scale-down
// actuator. Admission routes around it immediately (Draining), in-flight
// connections get DrainGrace to finish; the stragglers migrate live
// onto the surviving shards, exactly as a rolling restart's would —
// but instead of respawning, the replica set is recycled and the slot
// becomes a Retired tombstone (index preserved; AddShard revives it).
// Two refusals keep the pool sound: removing the last Serving shard is
// rejected up front, and a divergence verdict that claims the shard
// mid-drain preempts the removal — supervisor wins, the
// quarantine/respawn cycle runs instead, and RemoveShard reports the
// preemption so the caller re-observes before trying again.
func (f *Fleet) RemoveShard(idx int) error {
	s, err := f.shardAt(idx)
	if err != nil {
		return err
	}
	if serving, _ := f.PoolSize(); serving < 2 && s.state.Load() == Serving {
		return fmt.Errorf("fleet: refusing to remove shard %d: no other serving shard", idx)
	}
	c, ok, err := f.drain(s, Retired, "scale-down drain")
	if err != nil {
		return err
	}
	if !ok {
		st, _ := f.ShardState(idx)
		return fmt.Errorf("fleet: shard %d removal preempted (shard now %v): %w", idx, st, ErrShardNotServing)
	}
	return f.cycle(c, "scaled down", "", nil)
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
				s: s, net: s.net, gen: int(s.gen.Load()),
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
	st := &f.routes[fnv1a(clientAddr)&63]
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
// in-flight, verdict, level) are mutually consistent. The migration
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
			Divergences: s.divergences,
			Policy:      lv,
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
// recoveries completed. Reports whether the target was reached. Each
// completed recovery wakes the wait, so it returns exactly when the count
// moves — no polling interval.
func (f *Fleet) WaitRecoveries(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.recoveries < n {
		if _, ok := f.recoveryQ.ParkUntil(&f.mu, "fleet.recovery", 0, nil, deadline); !ok {
			break
		}
	}
	return f.recoveries >= n
}

// WaitRecoveriesDriving waits like WaitRecoveries but runs drive
// between 10ms waits, guaranteeing an armed InjectDivergence meets
// traffic: without its own load a caller can race, the background
// workload may finish before any request reaches the compromised shard,
// and the injection then never fires. drive is the caller's client burst
// (typically a loadgen.Burst against FrontAddr).
func (f *Fleet) WaitRecoveriesDriving(n int, timeout time.Duration, drive func()) bool {
	deadline := time.Now().Add(timeout)
	for {
		if f.WaitRecoveries(n, 10*time.Millisecond) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		drive()
	}
}

// Close stops the balancer and supervisor, then retires every shard
// through the lifecycle path: its in-flight connections are cut, its
// replica set stopped, and the slot left a Retired tombstone.
// Idempotent.
func (f *Fleet) Close() {
	if !f.stopping.CompareAndSwap(false, true) {
		return
	}
	f.lis.Close()
	close(f.stopCh)
	f.wg.Wait()

	for _, s := range f.pool() {
		s.mu.Lock()
		c := s.claimLocked(Retired)
		s.mu.Unlock()
		f.cycle(c, "fleet close", "", nil)
	}
	// After the sweep every splice is aborted; closing the set lets its
	// event loops drain the resulting events and exit. New may have
	// failed before building it.
	if f.spliceSet != nil {
		f.spliceSet.Close()
	}
}

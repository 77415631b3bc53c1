package ipmon

import (
	"sync"
	"sync/atomic"

	"remon/internal/fdmap"
	"remon/internal/ikb"
	"remon/internal/mem"
	"remon/internal/model"
	"remon/internal/policy"
	"remon/internal/rb"
	"remon/internal/sysdesc"
	"remon/internal/vkernel"
)

// Stats counts IP-MON activity in one replica.
type Stats struct {
	Dispatched      uint64 // calls entering the IP-MON entry point
	Unmonitored     uint64 // completed without GHUMVEE
	ForwardedPolicy uint64 // MAYBE_CHECKED said monitor (step 4')
	ForwardedSignal uint64 // signals-pending flag forced monitoring (§3.8)
	ForwardedTooBig uint64 // CALCSIZE exceeded the RB (§3.3)
	TemporalExempt  uint64 // calls passed by the temporal policy
	Divergences     uint64 // argument mismatches detected (slave side)
	// LastDivergence records the most recent mismatch description.
	LastDivergence string
}

// Emit reports the snapshot as (metric, value) pairs under the
// telemetry naming convention ("_total" marks cumulative counters).
// Plain func signature so this package never imports the registry.
func (s Stats) Emit(emit func(name string, v uint64)) {
	emit("dispatched_total", s.Dispatched)
	emit("unmonitored_total", s.Unmonitored)
	emit("forwarded_policy_total", s.ForwardedPolicy)
	emit("forwarded_signal_total", s.ForwardedSignal)
	emit("forwarded_too_big_total", s.ForwardedTooBig)
	emit("temporal_exempt_total", s.TemporalExempt)
	emit("divergences_total", s.Divergences)
}

// counters is the lock-free backing for Stats: the fast path bumps these
// without touching the instance mutex (the seed took it 3–4 times per
// unmonitored call).
type counters struct {
	dispatched      atomic.Uint64
	unmonitored     atomic.Uint64
	forwardedPolicy atomic.Uint64
	forwardedSignal atomic.Uint64
	forwardedTooBig atomic.Uint64
	temporalExempt  atomic.Uint64
	divergences     atomic.Uint64
}

// ltState is the per-logical-thread monitor state. Exactly one replica
// thread owns an ltid (threads beyond the partition count fall back to
// the lockstep path), so everything here is accessed without locks.
type ltState struct {
	w *rb.Writer
	r *rb.Reader
	// scratch is the reusable gather buffer for input and output
	// payloads: GatherIn/GatherOut append into it instead of allocating
	// per call.
	scratch []byte
	// snap is the policy snapshot this logical thread's stream is pinned
	// to. Every stream starts at the engine's initial snapshot and
	// advances only at replica-agreed stream positions (DESIGN.md §8):
	//
	//   - RB handoffs: the master re-pins to the engine's current
	//     snapshot when it writes an entry (stamping the new version into
	//     the header) and slaves re-pin after consuming that entry;
	//   - forwarded calls: every monitored call is a lockstep rendezvous,
	//     so the replicas adopt a first-arriver-agreed version there
	//     (Engine.AgreeForward) — this is what lets a reload reach a
	//     stream whose pinned level monitors everything.
	//
	// Both sides therefore decide call i under the pin agreed at call
	// i-1, so a hot reload can never make replicas disagree on a
	// monitored/unmonitored routing decision.
	snap *policy.Snapshot
	// gp is the stream's shared forwarded-call agreement cell set; fwdSeq
	// counts this stream's policy-forwarded calls (identical across
	// replicas by induction).
	gp     *policy.GroupPin
	fwdSeq uint32
}

// IPMon is one replica's in-process monitor instance.
//
// Security-relevant representation choice: RBBase — the replica's mapped
// address of the replication buffer — lives only in this struct and in
// IK-B's per-call Context, mirroring the paper's register-only discipline
// (§3.1). It is never written into the replica's simulated address space;
// the leak test in the attack suite scans replica memory to prove it.
type IPMon struct {
	Replica int
	Proc    *vkernel.Process
	Buf     *rb.Buffer
	RBBase  mem.Addr
	FileMap *fdmap.FileMap
	Shadow  *fdmap.EpollShadow
	// Engine is the dynamic per-descriptor relaxation engine, shared by
	// every replica of one MVEE (decisions are pinned per stream, see
	// ltState.snap).
	Engine   *policy.Engine
	Temporal *policy.Temporal

	// LtidOf resolves a thread's logical thread id — its RB partition.
	LtidOf func(t *vkernel.Thread) int

	// BlockingOverride forces the slave wait strategy for the ablation
	// benches: nil = predict from the file map (§3.7), true = always use
	// the futex condvar, false = always spin.
	BlockingOverride *bool

	// handlers is immutable after construction: a dense bounds-checked
	// array (the per-call map hash was measurable on the fast path).
	handlers [vkernel.MaxSyscall]*Handler

	// states holds the per-logical-thread monitor state, one slot per RB
	// partition, published with an atomic pointer per slot: the per-call
	// lookup is one array index + one atomic load (the seed's mutex+map
	// pair was a global lock acquisition on every fast-path call). Slot
	// creation takes ip.mu (see state) so it serialises with MigrateRB's
	// rebase sweep; exactly one replica thread owns an ltid afterwards.
	states []atomic.Pointer[ltState]

	mu             sync.Mutex
	lastDivergence string
	stats          counters
}

// Config bundles IP-MON construction parameters.
type Config struct {
	Replica int
	Proc    *vkernel.Process
	Buf     *rb.Buffer
	RBBase  mem.Addr
	FileMap *fdmap.FileMap
	Shadow  *fdmap.EpollShadow
	// Engine is the shared relaxation engine; nil selects a static
	// SOCKET_RW engine (the library default).
	Engine   *policy.Engine
	Temporal *policy.Temporal
	LtidOf   func(t *vkernel.Thread) int
	// BlockingOverride: see IPMon.BlockingOverride.
	BlockingOverride *bool
}

// New creates a replica's IP-MON instance.
func New(cfg Config) *IPMon {
	if cfg.Engine == nil {
		cfg.Engine = policy.NewEngine(policy.LevelRules(policy.SocketRWLevel))
	}
	ip := &IPMon{
		Replica:          cfg.Replica,
		Proc:             cfg.Proc,
		Buf:              cfg.Buf,
		RBBase:           cfg.RBBase,
		FileMap:          cfg.FileMap,
		Shadow:           cfg.Shadow,
		Engine:           cfg.Engine,
		Temporal:         cfg.Temporal,
		LtidOf:           cfg.LtidOf,
		BlockingOverride: cfg.BlockingOverride,
		states:           make([]atomic.Pointer[ltState], cfg.Buf.Partitions()),
	}
	// Handlers are built for the full fast path; routing (the IK-B mask)
	// and MAYBE_CHECKED decide what actually runs unmonitored.
	ip.handlers = buildHandlers(policy.NewSpatial(policy.SocketRWLevel))
	return ip
}

// Stats snapshots the counters.
func (ip *IPMon) Stats() Stats {
	ip.mu.Lock()
	last := ip.lastDivergence
	ip.mu.Unlock()
	return Stats{
		Dispatched:      ip.stats.dispatched.Load(),
		Unmonitored:     ip.stats.unmonitored.Load(),
		ForwardedPolicy: ip.stats.forwardedPolicy.Load(),
		ForwardedSignal: ip.stats.forwardedSignal.Load(),
		ForwardedTooBig: ip.stats.forwardedTooBig.Load(),
		TemporalExempt:  ip.stats.temporalExempt.Load(),
		Divergences:     ip.stats.divergences.Load(),
		LastDivergence:  last,
	}
}

// SupportedCalls reports how many syscalls have fast-path handlers.
func (ip *IPMon) SupportedCalls() int {
	n := 0
	for _, h := range ip.handlers {
		if h != nil {
			n++
		}
	}
	return n
}

// UnmonitoredMask is the registration mask for IK-B (§3.5). The mask must
// cover every call any policy could ever exempt: the relaxation engine
// hot-reloads rules after registration (re-registering mid-run is not a
// thing, §3.5), and the temporal policy can stochastically exempt calls
// the spatial level would monitor (§3.4) — so the mask is the whole
// Table 1 fast-path set and MAYBE_CHECKED enforces the live per-fd level
// on every call. IK-B independently refuses to complete anything outside
// this set (policy.Grantable), so widening the registration does not
// widen what can actually run unmonitored.
func (ip *IPMon) UnmonitoredMask() vkernel.SyscallMask {
	return policy.NewSpatial(policy.SocketRWLevel).UnmonitoredSet()
}

// MigrateRB installs a new RB mapping address after an IK-B-driven
// re-randomisation (§4's periodic-move extension). Existing writers and
// readers keep working: their cursors are segment-relative; only the
// futex addressing base changes.
func (ip *IPMon) MigrateRB(base mem.Addr) {
	ip.mu.Lock()
	defer ip.mu.Unlock()
	ip.RBBase = base
	for i := range ip.states {
		st := ip.states[i].Load()
		if st == nil {
			continue
		}
		if st.w != nil {
			st.w.Rebase(base)
		}
		if st.r != nil {
			st.r.Rebase(base)
		}
	}
}

func (ip *IPMon) bumpTemporal() {
	ip.stats.temporalExempt.Add(1)
}

// state returns the per-ltid monitor state, creating cursors on first
// use. The lookup is one array index plus one atomic load — the fast
// path holds no lock at all. First use takes ip.mu (double-checked), so
// cursor creation cannot race MigrateRB's rebase sweep: a freshly
// created cursor always carries the current RBBase.
//
// New streams pin the engine's *initial* snapshot, not the current one:
// replicas create a given ltid's state at different host times, and only
// version 1 is guaranteed to be what every replica saw at that stream
// position. The pin catches up through the stream's own RB entries.
func (ip *IPMon) state(ltid int) *ltState {
	slot := &ip.states[ltid%len(ip.states)]
	if st := slot.Load(); st != nil {
		return st
	}
	ip.mu.Lock() // serialise creation with MigrateRB's rebase sweep
	st := slot.Load()
	if st == nil {
		st = &ltState{snap: ip.Engine.Initial(), gp: ip.Engine.GroupPinFor(ltid)}
		if ip.Replica == 0 {
			st.w = ip.Buf.NewWriter(ltid%ip.Buf.Partitions(), ip.RBBase)
		} else {
			st.r = ip.Buf.NewReader(ltid%ip.Buf.Partitions(), ip.Replica, ip.RBBase)
		}
		slot.Store(st)
	}
	ip.mu.Unlock()
	return st
}

// Entry is the system call entry point IK-B forwards unmonitored calls to
// (Figure 2, step 2). It runs on the replica thread itself — in-process,
// no context switch.
func (ip *IPMon) Entry(ctx *ikb.Context) vkernel.Result {
	t := ctx.Thread
	c := ctx.Call
	t.SetInIPMon(true)
	defer t.SetInIPMon(false)

	ip.stats.dispatched.Add(1)
	var h *Handler
	if uint(c.Num) < uint(len(ip.handlers)) {
		h = ip.handlers[c.Num]
	}

	if h == nil {
		// Registered mask and handler table disagree — be conservative.
		return ctx.ForwardToMonitor()
	}

	ltid := 0
	if ip.LtidOf != nil {
		ltid = ip.LtidOf(t)
	}
	// Resolve the stream's pinned policy snapshot. Overflow ltids (beyond
	// the RB partition count) have no stream to advance a pin through, so
	// they stay on the initial snapshot — deterministic across replicas,
	// and harmless: they are forwarded to the lockstep path below no
	// matter what the policy says.
	var st *ltState
	var snap *policy.Snapshot
	if ltid < ip.Buf.Partitions() {
		st = ip.state(ltid)
		snap = st.snap
	} else {
		snap = ip.Engine.Initial()
	}

	// MAYBE_CHECKED: policy verification (Listing 1) against the pinned
	// snapshot's layered per-descriptor rules.
	if h.MaybeChecked != nil && h.MaybeChecked(ip, t, c, snap) {
		ip.stats.forwardedPolicy.Add(1)
		if ip.Temporal != nil {
			ip.Temporal.Approve(ltid, c.Num)
		}
		// Policy pin advance at a forwarded call: the call rendezvouses in
		// GHUMVEE, so every replica passes this same stream position —
		// adopt the first-arriver-agreed snapshot for the decisions that
		// follow (the current call was decided under the old pin on every
		// replica).
		if st != nil {
			seq := st.fwdSeq
			st.fwdSeq++
			if ns := ip.Engine.AgreeForward(st.gp, seq); ns != nil {
				st.snap = ns
			}
		}
		return ctx.ForwardToMonitor()
	}

	// §3.8: GHUMVEE raised the signals-pending flag; restart as a
	// monitored call so the monitor can deliver at a rendezvous. Checked
	// AFTER the policy decision: the flag is raised asynchronously, so
	// replicas may observe it differently for the same logical call — it
	// must therefore not influence the deterministic per-stream state
	// (the fwdSeq agreement counter, temporal approval streaks) that the
	// MaybeChecked branch maintains.
	if ip.Buf.SignalsPending() {
		ip.stats.forwardedSignal.Add(1)
		return ctx.ForwardToMonitor()
	}

	if h.PreSide != nil {
		h.PreSide(ip, t, c)
	}

	// Threads beyond the partitioned RB's capacity fall back to the
	// lockstep path rather than sharing a partition (each replica thread
	// must own its RB position, §3.2).
	if st == nil {
		ip.stats.forwardedTooBig.Add(1)
		return ctx.ForwardToMonitor()
	}

	if ip.Replica == 0 {
		return ip.masterPath(ctx, h, st)
	}
	return ip.slavePath(ctx, h, st)
}

// masterPath: PRECALL logs args into the RB, the call is restarted with
// the token intact, POSTCALL replicates the results (§3.3). Input and
// output payloads are gathered into the logical thread's reusable scratch
// buffer, so a steady-state call allocates nothing.
func (ip *IPMon) masterPath(ctx *ikb.Context, h *Handler, st *ltState) vkernel.Result {
	t := ctx.Thread
	c := ctx.Call

	inPayload := h.GatherIn(ip, t, c, st.scratch[:0])
	if inPayload != nil {
		st.scratch = inPayload
	}
	outCap := h.OutCap(ip, c)

	var flags uint32
	if h.MasterOnly {
		flags |= rb.FlagMasterCall
	}
	blocking := blockingExpected(ip, h.Desc, c)
	if ip.BlockingOverride != nil {
		blocking = *ip.BlockingOverride
	}
	if blocking {
		flags |= rb.FlagBlocking
	}
	// Under a lag window (DESIGN.md §9) a checked, policy-batchable,
	// non-blocking call is completed without waiting for slave
	// consumption — its entry is staged and published by the next group
	// commit. Sensitive calls (blocking, descriptor-lifecycle, special
	// handling) keep immediate publication so slaves overlap with the
	// master's execution, and they flush the staged run first (inside
	// Reserve) to preserve publication order.
	if !blocking && ip.Buf.MaxLag() > 0 && batchableFast(h.Desc, c.Num) {
		flags |= rb.FlagBatched
	}

	// Policy pin advance (engine hot reload): re-pin the stream to the
	// engine's current snapshot and stamp its version into the entry so
	// slaves re-pin at the same stream position. The pin moves only if
	// Reserve succeeds — a forwarded call writes no entry, so slaves
	// would never learn of the move.
	cand := ip.Engine.Current()
	st.w.SetPolicyVer(cand.Version())

	res, err := st.w.Reserve(t, c, flags, inPayload, outCap)
	if err != nil {
		// CALCSIZE overflow: forward to GHUMVEE (§3.3).
		ip.stats.forwardedTooBig.Add(1)
		return ctx.ForwardToMonitor()
	}
	st.snap = cand

	// Step 3: restart the call with the authorization token intact.
	r := ctx.CompleteWithToken(ctx.Token, c)

	// The input payload has been copied into the RB; the scratch buffer
	// is free for the output gather.
	st.scratch = h.GatherOut(ip, t, c, r, st.scratch[:0])
	var errno vkernel.Errno
	if !r.Ok() {
		errno = r.Errno
	}
	res.Complete(t, r.Val, errno, st.scratch)

	ip.stats.unmonitored.Add(1)
	return r
}

// slavePath: compare own arguments against the master's record, then
// either consume replicated results (MASTERCALL) or execute the local
// call (process-local calls like futex/nanosleep). The comparison runs
// against the master's RB entry in place — the only copy is the slave's
// own gather into its reusable scratch buffer.
func (ip *IPMon) slavePath(ctx *ikb.Context, h *Handler, st *ltState) vkernel.Result {
	t := ctx.Thread
	c := ctx.Call

	ev, err := st.r.Next(t)
	if err != nil {
		if t.Exited() {
			// Torn down while waiting for the master (a verdict raised
			// elsewhere, or Shutdown): unwind without counting a
			// divergence of this replica's own.
			return vkernel.Result{Errno: vkernel.EPERM}
		}
		ip.divergenceCrash(t, err.Error())
		return vkernel.Result{Errno: vkernel.EPERM}
	}

	// Policy pin advance: the entry carries the snapshot version the
	// master pinned after writing it; adopt it for this stream's *next*
	// decision (the current call was already decided under the previous
	// pin — on both sides). Unknown versions are impossible through the
	// engine (ByVersion only serves installed snapshots); a zero or
	// unknown stamp leaves the pin unchanged.
	if ev.PolicyVer != st.snap.Version() {
		if ns := ip.Engine.ByVersion(ev.PolicyVer); ns != nil {
			st.snap = ns
		}
	}

	slavePayload := h.GatherIn(ip, t, c, st.scratch[:0])
	if slavePayload != nil {
		st.scratch = slavePayload
	}
	if err := ev.CompareCall(t, c, h.RegMask, slavePayload); err != nil {
		// "IP-MON triggers an intentional crash, thereby signalling
		// GHUMVEE through the ptrace mechanism" (§3.3).
		ip.divergenceCrash(t, err.Error())
		return vkernel.Result{Errno: vkernel.EPERM}
	}

	if h.MasterOnly {
		// Abort the original call; results come from the RB.
		ctx.AbortCall()
		ret, errno, out := ev.WaitResults(t)
		r := vkernel.Result{Val: ret, Errno: errno}
		if r.Ok() && h.ApplyOut != nil {
			h.ApplyOut(ip, t, c, out, r)
		}
		ev.Consume()
		ip.stats.unmonitored.Add(1)
		return r
	}

	// Process-local call: execute our own copy with our own token.
	r := ctx.CompleteWithToken(ctx.Token, c)
	ev.WaitResults(t) // drain the master's results for ordering
	ev.Consume()
	ip.stats.unmonitored.Add(1)
	return r
}

// batchableFast reports whether a fast-path call's publication may be
// deferred to a group commit. It reuses the epoch-batching class
// (policy.Batchable: the read-only BASE + NONSOCKET_RO sets) plus the
// same descriptor-level guards GHUMVEE's epoch engine applies: no
// special handling, no descriptor lifecycle effects. Deferral never
// weakens detection — the master executes before any slave check in
// both modes — it only bounds how late the slave's comparison can run.
func batchableFast(d *sysdesc.Desc, nr int) bool {
	return d != nil && d.Special == sysdesc.SpecNone &&
		!d.FDCreating && !d.FDClosing &&
		policy.Batchable(nr)
}

// FlushThread publishes any staged group-commit entries of t's logical
// stream — the hard-barrier hook. IK-B invokes it on every route to the
// CP monitor (rendezvous, signals-pending restarts, RB overflow
// forwards) and the orchestrator invokes it at thread exit, so a slave
// can always consume its stream up to any point where the replica set
// synchronises. No-op on slave replicas and on streams with nothing
// staged.
func (ip *IPMon) FlushThread(t *vkernel.Thread) {
	if ip.Replica != 0 {
		return
	}
	ltid := 0
	if ip.LtidOf != nil {
		ltid = ip.LtidOf(t)
	}
	if ltid >= ip.Buf.Partitions() {
		return
	}
	if st := ip.states[ltid].Load(); st != nil && st.w != nil {
		st.w.Flush(t)
	}
}

func (ip *IPMon) divergenceCrash(t *vkernel.Thread, reason string) {
	ip.stats.divergences.Add(1)
	ip.mu.Lock()
	ip.lastDivergence = reason
	ip.mu.Unlock()
	t.Clock.Advance(model.CostSignalDeliver)
	t.Crash("ipmon divergence: " + reason)
}

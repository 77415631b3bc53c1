// The dynamic relaxation engine: ReMon's Table 1 as a *runtime* policy
// surface instead of a process-lifetime constant. A layered rule set —
// global default level < per-descriptor-class rule < per-descriptor
// override — compiles into an immutable Snapshot, and an Engine publishes
// the active snapshot through a single atomic pointer so monitors can
// hot-reload policy mid-traffic without stalling the IP-MON fast path.
//
// Read-side discipline (DESIGN.md §8): a fast-path policy decision is one
// atomic pointer load plus dense-table indexing — no locks, no maps, no
// allocation. Snapshots are never mutated after Install publishes them,
// so a reader that loaded an older snapshot keeps a fully consistent rule
// set; there is no torn intermediate state to observe.
//
// Replica-consistency contract: two replicas of one MVEE must make the
// same monitored/unmonitored decision for the same logical call, or their
// call streams desynchronise. The engine therefore never decides *when* a
// snapshot takes effect for a stream — it only versions and retains
// snapshots (ByVersion). IP-MON pins each logical thread's stream to a
// version and advances the pin through replication-buffer entries, which
// the master and slaves observe in the same stream positions (see
// internal/ipmon).
package policy

import (
	"fmt"
	"sync"
	"sync/atomic"

	"remon/internal/vkernel"
)

// numFDClasses bounds the per-class rule table (FDUnknown..FDPollFD).
const numFDClasses = 4

// fdTableSize bounds per-descriptor overrides; it matches the IP-MON file
// map (one page, one descriptor per byte — fdmap.MapSize).
const fdTableSize = 4096

// verdictTab[level][nr] is the dense Table 1 classification for every
// (level, syscall) pair, built once at package init with exactly the
// ascending-level override order NewSpatial uses. Row LevelNone is all
// Monitored (the zero value).
var verdictTab = func() [SocketRWLevel + 1][vkernel.MaxSyscall]Verdict {
	var tab [SocketRWLevel + 1][vkernel.MaxSyscall]Verdict
	for lv := BaseLevel; lv <= SocketRWLevel; lv++ {
		for l := BaseLevel; l <= lv; l++ {
			for _, nr := range conditional[l] {
				tab[lv][nr] = Conditional
			}
			for _, nr := range unconditional[l] {
				tab[lv][nr] = Unmonitored
			}
		}
	}
	return tab
}()

// VerdictAt reports the Table 1 verdict for nr at a fixed level via the
// dense table (allocation-free; equivalent to NewSpatial(level).Verdict).
func VerdictAt(level Level, nr int) Verdict {
	if level < LevelNone || level > SocketRWLevel || nr < 0 || nr >= vkernel.MaxSyscall {
		return Monitored
	}
	return verdictTab[level][nr]
}

// checkConditionalAt resolves a Conditional verdict at the given level for
// the descriptor class of the call's fd argument — the "file type / op
// type" columns of Table 1 (shared by Spatial.CheckConditional and the
// snapshot fast path).
func checkConditionalAt(level Level, nr int, class FDClass) bool {
	switch nr {
	case vkernel.SysRead, vkernel.SysReadv, vkernel.SysPread64,
		vkernel.SysPreadv, vkernel.SysSelect, vkernel.SysPselect6,
		vkernel.SysPoll:
		return class == FDNonSocket && level >= NonsocketROLevel
	case vkernel.SysWrite, vkernel.SysWritev, vkernel.SysPwrite64,
		vkernel.SysPwritev:
		return class == FDNonSocket && level >= NonsocketRWLevel
	case vkernel.SysFutex:
		return level >= NonsocketROLevel
	case vkernel.SysIoctl, vkernel.SysFcntl:
		// Only query-style operations on non-sockets are exempt; the
		// dispatcher restricts further by command (F_GETFL etc.).
		return class == FDNonSocket && level >= NonsocketROLevel
	}
	return false
}

// Rules is the layered relaxation configuration the engine compiles.
// Precedence, lowest to highest: Default, ByClass, ByFD — a
// per-descriptor override beats its class rule, which beats the global
// default. Absent layers simply fall through.
type Rules struct {
	// Default is the global relaxation level (Table 1 semantics).
	Default Level
	// ByClass pins all descriptors of one class (socket, non-socket,
	// pollfd, unknown) to a level regardless of the default.
	ByClass map[FDClass]Level
	// ByFD pins individual descriptors. Keys must be in [0, 4096) — the
	// file-map range.
	ByFD map[int]Level
}

// LevelRules is the common single-layer case: a global level, no
// per-class or per-fd refinement.
func LevelRules(l Level) Rules { return Rules{Default: l} }

func validLevel(l Level) bool { return l >= LevelNone && l <= SocketRWLevel }

// Validate rejects out-of-range levels, classes and descriptors before
// anything is published.
func (r Rules) Validate() error {
	if !validLevel(r.Default) {
		return fmt.Errorf("policy: invalid default level %d", int(r.Default))
	}
	for c, l := range r.ByClass {
		if c >= numFDClasses {
			return fmt.Errorf("policy: invalid fd class %d", int(c))
		}
		if !validLevel(l) {
			return fmt.Errorf("policy: invalid level %d for class %d", int(l), int(c))
		}
	}
	for fd, l := range r.ByFD {
		if fd < 0 || fd >= fdTableSize {
			return fmt.Errorf("policy: fd override %d outside the file-map range", fd)
		}
		if !validLevel(l) {
			return fmt.Errorf("policy: invalid level %d for fd %d", int(l), fd)
		}
	}
	return nil
}

// Snapshot is one compiled, immutable rule set. All lookup state is dense
// (arrays indexed by fd, class and syscall number) so the read side is
// branch-light and allocation-free; the only pointer the fast path
// touches is the snapshot itself.
type Snapshot struct {
	version uint32
	def     Level
	classLv [numFDClasses]int8 // -1 = no class rule
	fdLv    [fdTableSize]int8  // -1 = no fd override
	max     Level              // highest level any layer can resolve to
}

func compile(version uint32, r Rules) *Snapshot {
	s := &Snapshot{version: version, def: r.Default, max: r.Default}
	for i := range s.classLv {
		s.classLv[i] = -1
	}
	for i := range s.fdLv {
		s.fdLv[i] = -1
	}
	for c, l := range r.ByClass {
		s.classLv[c] = int8(l)
		if l > s.max {
			s.max = l
		}
	}
	for fd, l := range r.ByFD {
		s.fdLv[fd] = int8(l)
		if l > s.max {
			s.max = l
		}
	}
	return s
}

// Version is the snapshot's install sequence number (1-based).
func (s *Snapshot) Version() uint32 { return s.version }

// Default reports the snapshot's global default level.
func (s *Snapshot) Default() Level { return s.def }

// MaxLevel reports the highest level any (fd, class) can resolve to under
// this snapshot — the bound the kernel-side grant check works against.
func (s *Snapshot) MaxLevel() Level { return s.max }

// Level resolves the effective relaxation level for a call on descriptor
// fd of the given class. fd < 0 means the call has no descriptor argument
// (only the global default applies).
func (s *Snapshot) Level(fd int, class FDClass) Level {
	if fd >= 0 && fd < fdTableSize {
		if l := s.fdLv[fd]; l >= 0 {
			return Level(l)
		}
	}
	if class < numFDClasses {
		if l := s.classLv[class]; l >= 0 {
			return Level(l)
		}
	}
	return s.def
}

// Verdict is the layered policy decision for syscall nr on (fd, class):
// resolve the effective level, then index Table 1.
func (s *Snapshot) Verdict(nr, fd int, class FDClass) Verdict {
	if nr < 0 || nr >= vkernel.MaxSyscall {
		return Monitored
	}
	return verdictTab[s.Level(fd, class)][nr]
}

// CheckConditional resolves a Conditional verdict against the effective
// level for (fd, class).
func (s *Snapshot) CheckConditional(nr, fd int, class FDClass) bool {
	return checkConditionalAt(s.Level(fd, class), nr, class)
}

// Engine owns the active snapshot and the full install history. Installs
// are serialised by a mutex; reads are a single atomic pointer load.
type Engine struct {
	cur atomic.Pointer[Snapshot]
	// maxEver is the highest MaxLevel across every installed snapshot — a
	// ratchet, never lowered. Any live stream's pin came from the install
	// history, so no legitimate unmonitored completion can exceed this
	// bound; IK-B uses it as the kernel-side grant check (GrantableEver).
	maxEver atomic.Int32

	// history[v-1] is the snapshot with version v. Retained for the
	// engine's lifetime: a lagging slave stream may still need any
	// version stamped into an unconsumed RB entry, and computing a safe
	// prune watermark across live pins is not worth it — installs are
	// operator-rate control-plane events at ~4.3KB per snapshot, not a
	// data-path allocation.
	mu      sync.Mutex
	history []*Snapshot

	// groups holds the per-ltid forwarded-call agreement cells
	// (GroupPinFor).
	groups sync.Map // int -> *GroupPin
}

// NewEngine builds an engine with rules installed as version 1. Invalid
// rules fall back to their zero value (LevelNone everywhere) — callers
// that need the error should Install explicitly.
func NewEngine(rules Rules) *Engine {
	e := &Engine{}
	if _, err := e.Install(rules); err != nil {
		_, _ = e.Install(Rules{})
	}
	return e
}

// Install validates, compiles and atomically publishes a new rule set,
// returning its snapshot. Concurrent readers keep whichever snapshot they
// already loaded; the swap itself is the only synchronisation.
func (e *Engine) Install(rules Rules) (*Snapshot, error) {
	if err := rules.Validate(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	s := compile(uint32(len(e.history)+1), rules)
	e.history = append(e.history, s)
	if s.max > Level(e.maxEver.Load()) {
		e.maxEver.Store(int32(s.max))
	}
	// Publish inside the critical section: two racing installs must leave
	// cur at the higher version, matching the history order.
	e.cur.Store(s)
	e.mu.Unlock()
	return s, nil
}

// Current returns the active snapshot (never nil).
func (e *Engine) Current() *Snapshot { return e.cur.Load() }

// EngineStats is the engine's control-plane summary: install history
// depth, the live snapshot's identity and the grant ratchet's position.
type EngineStats struct {
	// Installs is the number of rule sets ever installed (== the live
	// snapshot version — versions are dense from 1).
	Installs uint64
	// Version / DefaultLevel / MaxLevel describe the active snapshot.
	Version      uint64
	DefaultLevel Level
	MaxLevel     Level
	// MaxEverLevel is the GrantableEver ratchet: the highest MaxLevel
	// across the install history (never lowered).
	MaxEverLevel Level
}

// Stats snapshots the engine.
func (e *Engine) Stats() EngineStats {
	cur := e.Current()
	e.mu.Lock()
	installs := uint64(len(e.history))
	e.mu.Unlock()
	return EngineStats{
		Installs:     installs,
		Version:      uint64(cur.version),
		DefaultLevel: cur.def,
		MaxLevel:     cur.max,
		MaxEverLevel: Level(e.maxEver.Load()),
	}
}

// Emit reports the snapshot as (metric, value) pairs under the
// telemetry naming convention ("_total" marks cumulative counters).
// Plain func signature so this package never imports the registry.
func (s EngineStats) Emit(emit func(name string, v uint64)) {
	emit("installs_total", s.Installs)
	emit("snapshot_version", s.Version)
	emit("default_level", uint64(s.DefaultLevel))
	emit("max_level", uint64(s.MaxLevel))
	emit("max_ever_level", uint64(s.MaxEverLevel))
}

// Initial returns version 1 — the snapshot every logical-thread stream is
// pinned to before its first replication-buffer handoff.
func (e *Engine) Initial() *Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.history[0]
}

// ByVersion returns the snapshot installed with version v, or nil if no
// such version was ever installed — a stream can therefore never be
// switched onto rules that did not go through Install.
func (e *Engine) ByVersion(v uint32) *Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	if v < 1 || int(v) > len(e.history) {
		return nil
	}
	return e.history[v-1]
}

// Version reports the active snapshot's version.
func (e *Engine) Version() uint32 { return e.Current().version }

// agreeRing bounds the per-group agreement window. Monitored calls are
// lockstep rendezvous rounds, so replicas can be at most one forwarded
// round apart when they consult a slot; 16 leaves an order of magnitude
// of slack.
const agreeRing = 16

// GroupPin is the per-logical-thread-group agreement cell set for
// forwarded (monitored) calls: streams that produce no replication-buffer
// entries still need an agreed point to adopt new snapshots, and every
// monitored call is one — all replicas rendezvous on it. The first
// replica to reach forwarded call #seq publishes (seq, current version)
// with a CAS; the others adopt that version. One GroupPin is shared by
// all replicas' IP-MON instances for one ltid.
type GroupPin struct {
	slots [agreeRing]atomic.Uint64 // packed (seq+1)<<32 | version
}

// GroupPinFor returns the shared agreement cell set for a logical thread
// group, creating it on first use.
func (e *Engine) GroupPinFor(group int) *GroupPin {
	if p, ok := e.groups.Load(group); ok {
		return p.(*GroupPin)
	}
	p, _ := e.groups.LoadOrStore(group, &GroupPin{})
	return p.(*GroupPin)
}

// AgreeForward resolves the snapshot a stream adopts after its forwarded
// call #seq: whichever replica arrives first fixes it to the engine's
// then-current version, and every replica — arriving at the same stream
// position by construction — returns the same snapshot. Never returns a
// snapshot that was not installed (the slot only ever holds versions read
// from Current).
func (e *Engine) AgreeForward(gp *GroupPin, seq uint32) *Snapshot {
	slot := &gp.slots[int(seq)%agreeRing]
	key := uint64(seq+1) << 32
	for {
		v := slot.Load()
		if v>>32 == uint64(seq+1) {
			return e.ByVersion(uint32(v))
		}
		cand := e.Current()
		if slot.CompareAndSwap(v, key|uint64(cand.Version())) {
			return cand
		}
	}
}

// Grantable reports whether Table 1 could ever exempt nr at any level —
// the in-kernel broker's completion check (§3.1/§3.5): no rule set, and
// no compromised in-process monitor, can complete a call outside this set
// unmonitored.
func Grantable(nr int) bool {
	if nr < 0 || nr >= vkernel.MaxSyscall {
		return false
	}
	return verdictTab[SocketRWLevel][nr] != Monitored
}

// GrantableEver tightens Grantable to this engine's install history: nr
// is completable unmonitored only if some installed rule set could have
// exempted it (Table 1 at the ratcheted maximum level). A deployment that
// has only ever run at BASE therefore keeps socket I/O kernel-denied even
// to a compromised IP-MON with a valid token. The bound is deliberately a
// ratchet — relaxing downward must not deny streams still pinned to an
// older, higher snapshot.
func (e *Engine) GrantableEver(nr int) bool {
	if nr < 0 || nr >= vkernel.MaxSyscall {
		return false
	}
	return verdictTab[Level(e.maxEver.Load())][nr] != Monitored
}

// Package policy implements ReMon's configurable monitoring relaxation
// policies (§3.4): the five spatial exemption levels of Table 1, including
// the per-descriptor conditional rules evaluated against the IP-MON file
// map, and the probabilistic temporal exemption policy.
package policy

import (
	"fmt"
	"sync"

	"remon/internal/model"
	"remon/internal/vkernel"
)

// Level is a spatial exemption level. Selecting a level enables
// unmonitored execution for all calls at that level *and all preceding
// levels* (Table 1).
type Level int

// Spatial exemption levels.
const (
	// LevelNone disables IP-MON entirely: every call is monitored by
	// GHUMVEE (the "no IP-MON" baseline bars in Figures 3–5).
	LevelNone Level = iota
	// BaseLevel: read-only calls that do not operate on file descriptors
	// and do not affect the file system.
	BaseLevel
	// NonsocketROLevel: read-only calls on regular files, pipes and other
	// non-socket descriptors; read-only filesystem calls; write calls on
	// process-local variables.
	NonsocketROLevel
	// NonsocketRWLevel: write calls on regular files, pipes and other
	// non-socket descriptors.
	NonsocketRWLevel
	// SocketROLevel: read calls on sockets.
	SocketROLevel
	// SocketRWLevel: write calls on sockets.
	SocketRWLevel
)

var levelNames = map[Level]string{
	LevelNone:        "NO_IPMON",
	BaseLevel:        "BASE_LEVEL",
	NonsocketROLevel: "NONSOCKET_RO_LEVEL",
	NonsocketRWLevel: "NONSOCKET_RW_LEVEL",
	SocketROLevel:    "SOCKET_RO_LEVEL",
	SocketRWLevel:    "SOCKET_RW_LEVEL",
}

func (l Level) String() string {
	if s, ok := levelNames[l]; ok {
		return s
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Levels lists all spatial levels in ascending order.
func Levels() []Level {
	return []Level{LevelNone, BaseLevel, NonsocketROLevel, NonsocketRWLevel, SocketROLevel, SocketRWLevel}
}

// Verdict is a policy decision for one syscall.
type Verdict uint8

// Policy verdicts.
const (
	// Monitored: the call must go to GHUMVEE.
	Monitored Verdict = iota
	// Unmonitored: IP-MON may replicate the call without cross-process
	// monitoring.
	Unmonitored
	// Conditional: IP-MON must evaluate the call's arguments against the
	// file map (MAYBE_CHECKED) to decide.
	Conditional
)

func (v Verdict) String() string {
	switch v {
	case Monitored:
		return "monitored"
	case Unmonitored:
		return "unmonitored"
	case Conditional:
		return "conditional"
	}
	return "?"
}

// FDClass is the subset of descriptor metadata the conditional rules need,
// read from the IP-MON file map (§3.6).
type FDClass uint8

// Descriptor classes for policy purposes.
const (
	FDUnknown   FDClass = iota
	FDNonSocket         // regular file, pipe, directory, timer, special
	FDSock              // socket or listener
	FDPollFD            // epoll instance
)

// unconditional[level] lists the calls Table 1 allows unconditionally at
// that level.
var unconditional = map[Level][]int{
	BaseLevel: {
		vkernel.SysGettimeofday, vkernel.SysClockGettime, vkernel.SysTime,
		vkernel.SysGetpid, vkernel.SysGettid, vkernel.SysGetpgrp,
		vkernel.SysGetppid, vkernel.SysGetgid, vkernel.SysGetegid,
		vkernel.SysGetuid, vkernel.SysGeteuid, vkernel.SysGetcwd,
		vkernel.SysGetpriority, vkernel.SysGetrusage, vkernel.SysTimes,
		vkernel.SysCapget, vkernel.SysGetitimer, vkernel.SysSysinfo,
		vkernel.SysUname, vkernel.SysSchedYield, vkernel.SysNanosleep,
	},
	NonsocketROLevel: {
		vkernel.SysAccess, vkernel.SysFaccessat, vkernel.SysLseek,
		vkernel.SysStat, vkernel.SysLstat, vkernel.SysFstat,
		vkernel.SysNewfstatat, vkernel.SysGetdents, vkernel.SysGetdents64,
		vkernel.SysReadlink, vkernel.SysReadlinkat, vkernel.SysGetxattr,
		vkernel.SysLgetxattr, vkernel.SysFgetxattr, vkernel.SysAlarm,
		vkernel.SysSetitimer, vkernel.SysTimerfdGettime, vkernel.SysMadvise,
		vkernel.SysFadvise64,
	},
	NonsocketRWLevel: {
		vkernel.SysSync, vkernel.SysSyncfs, vkernel.SysFsync,
		vkernel.SysFdatasync, vkernel.SysTimerfdSettime,
	},
	SocketROLevel: {
		vkernel.SysRead, vkernel.SysReadv, vkernel.SysPread64,
		vkernel.SysPreadv, vkernel.SysSelect, vkernel.SysPselect6,
		vkernel.SysPoll, vkernel.SysEpollWait, vkernel.SysEpollPwait,
		vkernel.SysRecvfrom, vkernel.SysRecvmsg, vkernel.SysRecvmmsg,
		vkernel.SysGetsockname, vkernel.SysGetpeername, vkernel.SysGetsockopt,
	},
	SocketRWLevel: {
		vkernel.SysWrite, vkernel.SysWritev, vkernel.SysPwrite64,
		vkernel.SysPwritev, vkernel.SysSendto, vkernel.SysSendmsg,
		vkernel.SysSendmmsg, vkernel.SysSendfile, vkernel.SysEpollCtl,
		vkernel.SysSetsockopt, vkernel.SysShutdown,
	},
}

// conditional[level] lists calls allowed at that level only when their
// arguments pass the file-map check (second column of Table 1).
var conditional = map[Level][]int{
	NonsocketROLevel: {
		vkernel.SysRead, vkernel.SysReadv, vkernel.SysPread64,
		vkernel.SysPreadv, vkernel.SysSelect, vkernel.SysPselect6,
		vkernel.SysPoll, vkernel.SysFutex, vkernel.SysIoctl, vkernel.SysFcntl,
	},
	NonsocketRWLevel: {
		vkernel.SysWrite, vkernel.SysWritev, vkernel.SysPwrite64,
		vkernel.SysPwritev,
	},
}

// batchable is the call set whose RB publication IP-MON may defer to a
// group commit under a lag window: the read-only, side-effect-light
// calls Table 1 grants unconditionally at BASE_LEVEL and
// NONSOCKET_RO_LEVEL. Everything above those levels (writes, socket
// traffic) — and every call outside Table 1 — is published per call.
var batchable = func() vkernel.SyscallMask {
	var m vkernel.SyscallMask
	for _, l := range []Level{BaseLevel, NonsocketROLevel} {
		for _, nr := range unconditional[l] {
			m.Set(nr)
		}
	}
	return m
}()

// Batchable reports whether nr belongs to the batchable class. Its one
// user is IP-MON's lag-window group commit, which applies its own
// descriptor-level guards on top.
func Batchable(nr int) bool { return batchable.Has(nr) }

// Spatial is a spatial exemption policy at a fixed level.
type Spatial struct {
	Level Level

	verdicts map[int]Verdict
}

// NewSpatial builds the policy for a level.
func NewSpatial(level Level) *Spatial {
	s := &Spatial{Level: level, verdicts: map[int]Verdict{}}
	for l := BaseLevel; l <= level; l++ {
		for _, nr := range unconditional[l] {
			s.verdicts[nr] = Unmonitored
		}
		for _, nr := range conditional[l] {
			// A later level's unconditional grant overrides an earlier
			// conditional one (read: conditional at NONSOCKET_RO,
			// unconditional at SOCKET_RO).
			if s.verdicts[nr] != Unmonitored {
				s.verdicts[nr] = Conditional
			}
		}
	}
	// Unconditional grants from levels above the chosen one do not apply,
	// but conditional entries at or below do; recompute override order:
	// process levels ascending so the highest applicable wins.
	s.verdicts = map[int]Verdict{}
	for l := BaseLevel; l <= level; l++ {
		for _, nr := range conditional[l] {
			s.verdicts[nr] = Conditional
		}
		for _, nr := range unconditional[l] {
			s.verdicts[nr] = Unmonitored
		}
	}
	return s
}

// Verdict reports the policy decision for syscall nr.
func (s *Spatial) Verdict(nr int) Verdict {
	if s.Level == LevelNone {
		return Monitored
	}
	if v, ok := s.verdicts[nr]; ok {
		return v
	}
	return Monitored
}

// CheckConditional resolves a Conditional verdict given the descriptor
// class of the call's fd argument. It implements the "file type / op type"
// columns of Table 1: reads on non-sockets pass at NONSOCKET_RO+, writes
// on non-sockets at NONSOCKET_RW+; socket operations only pass via the
// unconditional grants of SOCKET_RO/SOCKET_RW.
func (s *Spatial) CheckConditional(nr int, class FDClass) bool {
	return checkConditionalAt(s.Level, nr, class)
}

// UnmonitoredSet builds the syscall mask IP-MON registers with IK-B
// (§3.5): every call that could be handled without GHUMVEE at this level
// (unconditional plus conditional).
func (s *Spatial) UnmonitoredSet() vkernel.SyscallMask {
	var m vkernel.SyscallMask
	for nr, v := range s.verdicts {
		if v != Monitored {
			m.Set(nr)
		}
	}
	return m
}

// Temporal is the probabilistic temporal exemption policy (§3.4): after a
// syscall number has been approved by the monitor repeatedly, subsequent
// identical calls are stochastically exempted. Two requirements shape the
// implementation:
//
//   - Unpredictability to the attacker (§3.4: "temporal relaxation
//     policies must be highly unpredictable"): the decision stream derives
//     from a secret seed; knowing the policy parameters does not reveal
//     which concrete invocation goes unmonitored.
//   - Consistency across replicas: every replica's IP-MON must reach the
//     same decision for the same logical invocation, or the replicas'
//     monitored/unmonitored call streams desynchronise. Decisions are
//     therefore a pure function of (seed, logical thread, syscall number,
//     per-stream invocation index) — identical across replicas because
//     each logical thread's syscall stream is identical, and independent
//     of scheduling and wall-clock noise.
type Temporal struct {
	// MinApprovals is the approval streak required before any exemption.
	MinApprovals int
	// ExemptProb is the per-call exemption probability once eligible.
	ExemptProb float64
	// WindowCalls bounds how many invocations past the last approval the
	// streak stays valid (0 = no window).
	WindowCalls int

	seed uint64

	mu    sync.Mutex
	state map[tkey]*tstate
}

type tkey struct {
	ltid int
	nr   int
}

type tstate struct {
	streak       int
	invocations  int
	sinceApprove int
}

// NewTemporal builds a temporal policy with the given parameters. All
// replicas of one MVEE must share the same seed.
func NewTemporal(minApprovals int, exemptProb float64, windowCalls int, seed uint64) *Temporal {
	return &Temporal{
		MinApprovals: minApprovals,
		ExemptProb:   exemptProb,
		WindowCalls:  windowCalls,
		seed:         seed,
		state:        map[tkey]*tstate{},
	}
}

func (t *Temporal) get(ltid, nr int) *tstate {
	k := tkey{ltid, nr}
	s, ok := t.state[k]
	if !ok {
		s = &tstate{}
		t.state[k] = s
	}
	return s
}

// Approve records that the monitor approved syscall nr on logical thread
// ltid.
func (t *Temporal) Approve(ltid, nr int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.get(ltid, nr)
	s.streak++
	s.sinceApprove = 0
}

// Deny resets the streak (the monitor saw something anomalous).
func (t *Temporal) Deny(ltid, nr int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.get(ltid, nr)
	s.streak = 0
	s.sinceApprove = 0
}

// Exempt reports whether this invocation of nr on ltid may skip
// monitoring. Each call advances the stream's invocation index, so the
// decision sequence is reproducible stream-by-stream.
func (t *Temporal) Exempt(ltid, nr int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.get(ltid, nr)
	s.invocations++
	if s.streak < t.MinApprovals {
		return false
	}
	s.sinceApprove++
	if t.WindowCalls > 0 && s.sinceApprove > t.WindowCalls {
		s.streak = 0
		s.sinceApprove = 0
		return false
	}
	// Keyed draw: splitmix over (seed, ltid, nr, invocation index).
	h := t.seed ^ uint64(ltid)*0x9E3779B97F4A7C15 ^ uint64(nr)*0xBF58476D1CE4E5B9 ^ uint64(s.invocations)*0x94D049BB133111EB
	draw := model.NewRNG(h).Float64()
	return draw < t.ExemptProb
}

// Table1 renders the policy classification as the rows of Table 1, for
// the table1 experiment driver.
func Table1() []Table1Row {
	rows := []Table1Row{}
	for _, l := range []Level{BaseLevel, NonsocketROLevel, NonsocketRWLevel, SocketROLevel, SocketRWLevel} {
		row := Table1Row{Level: l}
		for _, nr := range unconditional[l] {
			row.Unconditional = append(row.Unconditional, vkernel.SyscallName(nr))
		}
		for _, nr := range conditional[l] {
			row.Conditional = append(row.Conditional, vkernel.SyscallName(nr))
		}
		rows = append(rows, row)
	}
	return rows
}

// Table1Row is one monitor level's classification.
type Table1Row struct {
	Level         Level
	Unconditional []string
	Conditional   []string
}

// The divergence-fuzz harness: random syscall traces interpreted under
// every spatial relaxation level and a sweep of master-ahead lag windows,
// asserting the verdict-equivalence invariant (DESIGN.md §8): the
// relaxation spectrum trades *where* monitoring happens (in-process RB
// comparison vs cross-process lockstep) and *when* a slave checks
// (lockstep vs lag window), never *what* the program observes or whether
// an attack is caught.
//
//   - Healthy traces: per-replica syscall results are bit-identical
//     across all 5 levels and across MaxLag settings.
//   - Tampered traces (a compromised-master write): every configuration
//     must reach a divergence verdict, and the pre-divergence result
//     prefix must still be bit-identical.
//
// go test runs the seed corpus as unit tests; CI additionally runs a
// short `-fuzz=Fuzz` exploration (see .github/workflows/ci.yml).
package policy_test

import (
	"fmt"
	"testing"
	"time"

	"remon/internal/attack/gen"
	"remon/internal/core"
	"remon/internal/libc"
	"remon/internal/policy"
	"remon/internal/vkernel"
)

// maxFuzzOps bounds a trace (each op is a handful of syscalls ×
// 9 configurations).
const maxFuzzOps = 48

const fuzzOpKinds = 10

// opDiverge is the tampered-write op: the master writes different bytes
// than the slave — the compromised-master signature every configuration
// must catch. Only the first occurrence is interpreted (a crashed replica
// set cannot diverge twice); later occurrences degrade to healthy writes.
const opDiverge = 9

// traceResult is one configuration's outcome.
type traceResult struct {
	diverged bool
	// perReplica[r] is replica r's flattened (val, errno) result stream.
	perReplica [2][]int64
}

// runTrace interprets script under one (level, maxLag) configuration.
func runTrace(script []byte, level policy.Level, maxLag int) (*traceResult, error) {
	res := &traceResult{}
	rep, err := core.RunProgram(core.Config{
		Mode: core.ModeReMon, Replicas: 2, Policy: level,
		MaxLag: maxLag,
		// Generous watchdog: healthy and tampered traces both terminate
		// through comparisons, never the watchdog — it exists only to
		// bound a genuinely wedged run, and a tight value flakes under
		// heavily loaded -race CI runs.
		LockstepTimeout: 60 * time.Second,
		Seed:            0xF0220001,
	}, func(env *libc.Env) {
		ri := env.T.Proc.ReplicaIndex
		rec := func(val int64, errno vkernel.Errno) {
			res.perReplica[ri] = append(res.perReplica[ri], val, int64(errno))
		}
		fd, errno := env.Open("/tmp/fuzz-data", vkernel.OCreat|vkernel.ORdwr, 0o644)
		rec(int64(fd), errno)
		if errno != 0 {
			return
		}
		seed := make([]byte, 256)
		for i := range seed {
			seed[i] = byte('A' + i%23)
		}
		n, errno := env.Write(fd, seed)
		rec(int64(n), errno)

		buf := make([]byte, 48)
		tampered := false
		for i, b := range script {
			if i >= maxFuzzOps {
				break
			}
			arg := int64(b >> 4) // 0..15 operand nibble
			op := int(b) % fuzzOpKinds
			if op == opDiverge && tampered {
				op = 3 // degrade to a healthy write
			}
			switch op {
			case 0:
				// Clock read: virtual time legitimately differs across
				// levels (monitoring costs differ), so only the success is
				// part of the invariant.
				env.TimeNow()
				rec(0, 0)
			case 1:
				rec(int64(env.Getpid()), 0)
			case 2:
				n, errno := env.Pread(fd, buf, arg*13%200)
				rec(int64(n), errno)
			case 3:
				n, errno := env.Write(fd, seed[:8+arg])
				rec(int64(n), errno)
			case 4:
				off, errno := env.Lseek(fd, arg*7, 0)
				rec(off, errno)
			case 5:
				rec(0, env.Access("/tmp/fuzz-data"))
			case 6:
				st, errno := env.Stat("/tmp/fuzz-data")
				rec(int64(st.Size), errno)
			case 7:
				rec(0, env.Fsync(fd))
			case 8:
				fd2, errno := env.Open(fmt.Sprintf("/tmp/fuzz-%d", arg), vkernel.OCreat|vkernel.ORdwr, 0o644)
				rec(int64(fd2), errno)
				if errno == 0 {
					n, errno := env.Write(fd2, seed[:16])
					rec(int64(n), errno)
					rec(0, env.Close(fd2))
				}
			case opDiverge:
				tampered = true
				payload := seed[:16]
				if ri == 0 {
					payload = []byte("PWNED-EXFILTRATE") // same length, different bytes
				}
				n, errno := env.Write(fd, payload)
				rec(int64(n), errno)
			}
		}
		env.Close(fd)
	})
	if err != nil {
		return nil, err
	}
	res.diverged = rep.Verdict.Diverged
	return res, nil
}

// divergePoint returns the op index of the first tampered write, or -1.
func divergePoint(script []byte) int {
	for i, b := range script {
		if i >= maxFuzzOps {
			break
		}
		if int(b)%fuzzOpKinds == opDiverge {
			return i
		}
	}
	return -1
}

// checkEquivalence runs script under every level at MaxLag 0 (plus, for
// the boundary levels, the master-ahead MaxLag {8, 64} sweep) and asserts
// the invariant against the BASE/lockstep reference.
func checkEquivalence(t *testing.T, script []byte) {
	t.Helper()
	type cfg struct {
		level  policy.Level
		maxLag int
	}
	var cfgs []cfg
	for _, lv := range policy.Levels()[1:] {
		cfgs = append(cfgs, cfg{lv, 0})
	}
	// Pipeline grid: the lowest and highest relaxation levels sweep the
	// lag window.
	for _, lv := range []policy.Level{policy.BaseLevel, policy.SocketRWLevel} {
		for _, lag := range []int{8, 64} {
			cfgs = append(cfgs, cfg{lv, lag})
		}
	}
	tampered := divergePoint(script) >= 0

	ref, err := runTrace(script, cfgs[0].level, cfgs[0].maxLag)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if ref.diverged != tampered {
		t.Fatalf("reference diverged=%v, tampered=%v", ref.diverged, tampered)
	}
	for _, c := range cfgs[1:] {
		got, err := runTrace(script, c.level, c.maxLag)
		if err != nil {
			t.Fatalf("%v/lag=%d: %v", c.level, c.maxLag, err)
		}
		if got.diverged != ref.diverged {
			t.Fatalf("%v/lag=%d: diverged=%v, reference=%v — verdict must not depend on the relaxation level or the lag window",
				c.level, c.maxLag, got.diverged, ref.diverged)
		}
		for r := 0; r < 2; r++ {
			refT, gotT := ref.perReplica[r], got.perReplica[r]
			if tampered {
				// Post-divergence results depend on how far the master ran
				// ahead before the crash landed; only the pre-tamper prefix
				// is part of the invariant. The prelude records 2 ops
				// (open + seed write) = 4 values; each later op records at
				// least 2 values — compare the guaranteed-complete prefix.
				n := 4 + 2*divergePoint(script)
				if len(refT) < n || len(gotT) < n {
					t.Fatalf("%v/lag=%d replica %d: trace truncated before the tamper point (%d/%d < %d)",
						c.level, c.maxLag, r, len(refT), len(gotT), n)
				}
				refT, gotT = refT[:n], gotT[:n]
			}
			if len(refT) != len(gotT) {
				t.Fatalf("%v/lag=%d replica %d: trace length %d, reference %d",
					c.level, c.maxLag, r, len(gotT), len(refT))
			}
			for i := range refT {
				if refT[i] != gotT[i] {
					t.Fatalf("%v/lag=%d replica %d: result %d = %d, reference %d — results must be bit-identical across levels",
						c.level, c.maxLag, r, i, gotT[i], refT[i])
				}
			}
		}
	}
}

// FuzzVerdictEquivalence is the fuzz entry point.
func FuzzVerdictEquivalence(f *testing.F) {
	// Healthy mixes of every op class.
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{2, 2, 2, 3, 3, 3, 0, 0, 1, 4, 4, 7, 8, 8, 6, 5})
	f.Add([]byte{0x12, 0x23, 0x34, 0x45, 0x56, 0x67, 0x78, 0x83, 0xf2, 0xe3})
	// Empty and single-op traces.
	f.Add([]byte{})
	f.Add([]byte{3})
	// Tampered traces: divergence first, middle, last.
	f.Add([]byte{9, 3, 2, 0})
	f.Add([]byte{0, 1, 2, 3, 9, 3, 2, 1, 0})
	f.Add([]byte{2, 3, 2, 3, 0, 1, 4, 9})
	// Double tamper byte (second degrades to a healthy write).
	f.Add([]byte{1, 9, 1, 9, 1})
	// The attack generator's template corpus, projected into this op
	// alphabet: every vulnerability class × variant contributes its op
	// skeleton with the tamper point mapped to the divergent write.
	for _, script := range gen.FuzzScripts() {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		checkEquivalence(t, script)
	})
}

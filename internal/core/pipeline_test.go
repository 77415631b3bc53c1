// Master-ahead pipeline equivalence and lifecycle tests: MaxLag trades
// when publication happens and how long slave checks may lag, never what
// the replicas compute or whether an attack is caught (DESIGN.md §9).
package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"remon/internal/core"
	"remon/internal/libc"
	"remon/internal/policy"
	"remon/internal/vkernel"
)

// pipelineGrid is the swept configuration space of the golden tests.
var pipelineGrid = []struct{ maxLag, epoch int }{
	{0, 1}, {0, 16}, {8, 1}, {8, 16}, {64, 1}, {64, 16},
}

// runMixedTrace executes a 4-thread mixed batchable/payload workload and
// returns each worker's per-replica (val, errno) result stream.
func runMixedTrace(t *testing.T, maxLag, epoch int) (map[string][]int64, bool, string) {
	t.Helper()
	const workers = 4
	var mu sync.Mutex
	results := map[string][]int64{}
	rep, err := core.RunProgram(core.Config{
		Mode: core.ModeReMon, Replicas: 3, Policy: policy.SocketRWLevel,
		MaxLag: maxLag, EpochSize: epoch, Partitions: workers,
		Seed: 0x91AC0001, LockstepTimeout: 60 * time.Second,
	}, func(env *libc.Env) {
		ri := env.T.Proc.ReplicaIndex
		// All descriptors are opened by the main thread before any worker
		// spawns: concurrent opens would race on fd-number assignment
		// (host-scheduling order), which is workload nondeterminism, not a
		// monitoring property.
		fds := make([]int, workers)
		for w := range fds {
			fd, errno := env.Open(fmt.Sprintf("/tmp/pipe-mix-%d", w), vkernel.OCreat|vkernel.ORdwr, 0o644)
			if errno != 0 {
				t.Errorf("open worker file %d: %v", w, errno)
				return
			}
			fds[w] = fd
		}
		body := func(worker int) libc.Program {
			return func(env *libc.Env) {
				key := fmt.Sprintf("r%d-w%d", ri, worker)
				fd := fds[worker]
				var trace []int64
				rec := func(val int64, errno vkernel.Errno) {
					trace = append(trace, val, int64(errno))
				}
				buf := make([]byte, 32)
				for i := 0; i < 53; i++ { // odd count: leaves a partial group staged at exit
					rec(int64(env.Getpid()), 0)
					n, errno := env.Write(fd, []byte(fmt.Sprintf("chunk-%02d-%d", i, worker)))
					rec(int64(n), errno)
					if i%7 == 3 {
						n, errno := env.Pread(fd, buf, int64(i%5)*4)
						rec(int64(n), errno)
					}
					if i%11 == 5 {
						st, errno := env.Stat(fmt.Sprintf("/tmp/pipe-mix-%d", worker))
						rec(st.Size, errno)
						off, errno := env.Lseek(fd, int64(i), 0)
						rec(off, errno)
					}
				}
				mu.Lock()
				results[key] = trace
				mu.Unlock()
			}
		}
		var hs []*libc.ThreadHandle
		for wkr := 1; wkr < workers; wkr++ {
			hs = append(hs, env.Spawn(body(wkr)))
		}
		body(0)(env)
		for _, h := range hs {
			h.Join()
		}
		for _, fd := range fds {
			env.Close(fd)
		}
	})
	if err != nil {
		t.Fatalf("MaxLag=%d epoch=%d: %v", maxLag, epoch, err)
	}
	return results, rep.Verdict.Diverged, rep.Verdict.Reason
}

// TestPipelineResultEquivalence: per-replica, per-thread result streams
// of a healthy mixed workload are bit-identical across every MaxLag ×
// epoch cell — the pipeline moves publication, not semantics. The
// per-thread call counts are deliberately not multiples of the group
// commit, so exit-time flushing of partial groups is exercised in every
// pipelined cell.
func TestPipelineResultEquivalence(t *testing.T) {
	ref, diverged, reason := runMixedTrace(t, pipelineGrid[0].maxLag, pipelineGrid[0].epoch)
	if diverged {
		t.Fatalf("reference diverged: %s", reason)
	}
	for _, cell := range pipelineGrid[1:] {
		got, diverged, reason := runMixedTrace(t, cell.maxLag, cell.epoch)
		if diverged {
			t.Fatalf("MaxLag=%d epoch=%d diverged: %s", cell.maxLag, cell.epoch, reason)
		}
		if len(got) != len(ref) {
			t.Fatalf("MaxLag=%d epoch=%d: %d streams, reference %d", cell.maxLag, cell.epoch, len(got), len(ref))
		}
		for key, refT := range ref {
			gotT := got[key]
			if len(gotT) != len(refT) {
				t.Fatalf("MaxLag=%d epoch=%d %s: %d results, reference %d", cell.maxLag, cell.epoch, key, len(gotT), len(refT))
			}
			for i := range refT {
				if gotT[i] != refT[i] {
					t.Fatalf("MaxLag=%d epoch=%d %s: result %d = %d, reference %d — results must be bit-identical across lag windows",
						cell.maxLag, cell.epoch, key, i, gotT[i], refT[i])
				}
			}
		}
	}
}

// TestPipelineTamperEquivalence: a compromised master's divergent
// unmonitored write is caught in every MaxLag × epoch cell, with the
// identical verdict reason — detection may happen later in host time
// under a lag window, but never differently.
func TestPipelineTamperEquivalence(t *testing.T) {
	run := func(maxLag, epoch int) (bool, string) {
		rep, err := core.RunProgram(core.Config{
			Mode: core.ModeReMon, Replicas: 2, Policy: policy.SocketRWLevel,
			MaxLag: maxLag, EpochSize: epoch, Seed: 0x91AC0002,
			LockstepTimeout: 60 * time.Second,
		}, func(env *libc.Env) {
			fd, _ := env.Open("/tmp/pipe-tamper", vkernel.OCreat|vkernel.ORdwr, 0o644)
			for i := 0; i < 10; i++ {
				env.Getpid()
			}
			payload := []byte("legitimate-data!")
			if env.T.Proc.ReplicaIndex == 0 {
				payload = []byte("PWNED-EXFILTRATE")
			}
			env.Write(fd, payload)
			for i := 0; i < 10; i++ {
				env.Getpid()
			}
			env.Close(fd)
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Verdict.Diverged, rep.Verdict.Reason
	}
	refDiverged, refReason := run(pipelineGrid[0].maxLag, pipelineGrid[0].epoch)
	if !refDiverged {
		t.Fatal("reference run missed the tampered write")
	}
	for _, cell := range pipelineGrid[1:] {
		diverged, reason := run(cell.maxLag, cell.epoch)
		if !diverged {
			t.Fatalf("MaxLag=%d epoch=%d missed the tampered write", cell.maxLag, cell.epoch)
		}
		if reason != refReason {
			t.Fatalf("MaxLag=%d epoch=%d verdict %q, reference %q", cell.maxLag, cell.epoch, reason, refReason)
		}
	}
}

// TestPipelineCountersByMaxLag tells lag windows apart by their
// deterministic counters on a dense batchable workload (4 threads x 120
// getpid): at MaxLag 0 every unmonitored call probes wake suppression
// twice (reserve + complete) and nothing is group-committed; at MaxLag 64
// most calls are batched and the probe rate collapses by the group size.
// Host time and issued wakes are scheduling figures and not asserted.
func TestPipelineCountersByMaxLag(t *testing.T) {
	const threads, calls = 4, 120
	prog := func(env *libc.Env) {
		work := func(env *libc.Env) {
			for i := 0; i < calls; i++ {
				env.Getpid()
			}
		}
		var hs []*libc.ThreadHandle
		for j := 1; j < threads; j++ {
			hs = append(hs, env.Spawn(work))
		}
		work(env)
		for _, h := range hs {
			h.Join()
		}
	}
	run := func(maxLag int) (*core.Report, float64) {
		rep, err := core.RunProgram(core.Config{
			Mode: core.ModeReMon, Replicas: 2, Policy: policy.SocketRWLevel,
			Partitions: threads, Seed: 9, MaxLag: maxLag,
		}, prog)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Verdict.Diverged {
			t.Fatalf("MaxLag=%d diverged: %s", maxLag, rep.Verdict.Reason)
		}
		unmon := rep.IPMon[0].Unmonitored
		if unmon < threads*calls {
			t.Fatalf("MaxLag=%d: %d unmonitored calls, want >= %d", maxLag, unmon, threads*calls)
		}
		return rep, float64(rep.RB.WakeChecks) / float64(unmon)
	}

	lockstep, lockstepChecks := run(0)
	if rb := lockstep.RB; rb.Flushes != 0 || rb.Batched != 0 {
		t.Fatalf("MaxLag 0 group-committed: %+v", rb)
	}
	if lockstepChecks < 1.9 {
		t.Fatalf("MaxLag 0: %.3f wake checks/call, want ~2 (reserve + complete)", lockstepChecks)
	}
	piped, pipedChecks := run(64)
	t.Logf("wake checks/call: MaxLag 0 %.3f, MaxLag 64 %.3f (batched %d, flushes %d)",
		lockstepChecks, pipedChecks, piped.RB.Batched, piped.RB.Flushes)
	if piped.RB.Batched == 0 || piped.RB.Flushes == 0 {
		t.Fatalf("MaxLag 64 never group-committed: %+v", piped.RB)
	}
	if pipedChecks > lockstepChecks/4 {
		t.Fatalf("MaxLag 64: %.3f wake checks/call, want at least 4x below MaxLag 0's %.3f",
			pipedChecks, lockstepChecks)
	}
}

// TestPipelineLiveLagReload: SetMaxLag adjusts the window between and
// during runs, from any window to any other, 0 included; entries are
// group-committed only while the window is above 0.
func TestPipelineLiveLagReload(t *testing.T) {
	m, err := core.New(core.Config{
		Mode: core.ModeReMon, Replicas: 2, Policy: policy.SocketRWLevel, MaxLag: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	prog := func(env *libc.Env) {
		for i := 0; i < 200; i++ {
			env.Getpid()
		}
	}
	if rep := m.Run(prog); rep.Verdict.Diverged {
		t.Fatalf("diverged: %s", rep.Verdict.Reason)
	}
	if err := m.SetMaxLag(64); err != nil {
		t.Fatal(err)
	}
	if got := m.MaxLag(); got != 64 {
		t.Fatalf("MaxLag = %d after reload", got)
	}
	rep := m.Run(prog)
	if rep.Verdict.Diverged {
		t.Fatalf("diverged after lag reload: %s", rep.Verdict.Reason)
	}
	if rep.RB.Batched == 0 || rep.RB.Flushes == 0 {
		t.Fatalf("pipeline counters flat after reload: %+v", rep.RB)
	}

	// An instance booted at 0 goes 0 -> 8 -> 0 live.
	zero, err := core.New(core.Config{Mode: core.ModeReMon, Replicas: 2, Policy: policy.SocketRWLevel, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer zero.Close()
	var batched uint64
	for _, lag := range []int{0, 8, 0} {
		if err := zero.SetMaxLag(lag); err != nil {
			t.Fatal(err)
		}
		if got := zero.MaxLag(); got != lag {
			t.Fatalf("MaxLag = %d after setting %d", got, lag)
		}
		rep := zero.Run(prog)
		if rep.Verdict.Diverged {
			t.Fatalf("MaxLag %d diverged: %s", lag, rep.Verdict.Reason)
		}
		if grew := rep.RB.Batched > batched; grew != (lag > 0) {
			t.Fatalf("MaxLag %d: batched %d -> %d", lag, batched, rep.RB.Batched)
		}
		batched = rep.RB.Batched
	}
	if err := zero.SetMaxLag(-1); err == nil {
		t.Fatal("SetMaxLag accepted a negative window")
	}
}

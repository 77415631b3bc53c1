package ghumvee

import (
	"sync"
	"testing"
	"time"

	"remon/internal/vkernel"
)

// TestRendezvousStress is the -race stress: 8 replicas x 16 logical
// threads x mixed blocking-class/non-blocking calls, run twice with a
// golden comparison of verdicts, per-thread results, final virtual
// clocks and the monitor's counters (Wakeups aside). Virtual time is the paper's
// metric, so host scheduling must not leak into any of them.
func TestRendezvousStress(t *testing.T) {
	replicas, groups, calls := 8, 16, 10
	if testing.Short() {
		replicas, groups, calls = 4, 8, 6
	}
	refTraces, refClocks, refStats, refVerdict := goldenRun(t, replicas, groups, calls)
	runTraces, runClocks, runStats, runVerdict := goldenRun(t, replicas, groups, calls)

	if refVerdict.Diverged {
		t.Fatalf("healthy run diverged: %+v", refVerdict)
	}
	if runVerdict != refVerdict {
		t.Fatalf("verdicts differ: %+v vs %+v", refVerdict, runVerdict)
	}
	for i := range refTraces {
		if len(refTraces[i]) == 0 || len(refTraces[i]) != len(runTraces[i]) {
			t.Fatalf("thread %d trace lengths: %d vs %d", i, len(refTraces[i]), len(runTraces[i]))
		}
		for j := range refTraces[i] {
			if refTraces[i][j] != runTraces[i][j] {
				t.Fatalf("thread %d call %d: %d vs %d", i, j, refTraces[i][j], runTraces[i][j])
			}
		}
	}
	for i := range refClocks {
		if refClocks[i] != runClocks[i] {
			t.Fatalf("thread %d clock: %d vs %d", i, refClocks[i], runClocks[i])
		}
	}
	refStats.Wakeups, runStats.Wakeups = 0, 0 // host scheduling, not virtual time
	if refStats != runStats {
		t.Fatalf("stats differ: %+v vs %+v", refStats, runStats)
	}
}

// TestTargetedWakeOnSlowArrival forces the park path: the first arrival
// outspins its budget while the second shows up late, so the round's
// monitor must issue a targeted wake (counted in Stats.Wakeups).
func TestTargetedWakeOnSlowArrival(t *testing.T) {
	e := newMonEnv(t, 2)
	done := make(chan vkernel.Result, 1)
	go func() {
		th := e.threads[0]
		done <- e.m.MonitorCall(th, &vkernel.Call{Num: vkernel.SysGetpid},
			func(c *vkernel.Call) vkernel.Result { return th.RawSyscallC(c) })
	}()
	time.Sleep(20 * time.Millisecond) // let the early arrival park
	th := e.threads[1]
	r2 := e.m.MonitorCall(th, &vkernel.Call{Num: vkernel.SysGetpid},
		func(c *vkernel.Call) vkernel.Result { return th.RawSyscallC(c) })
	r1 := <-done
	if !r1.Ok() || !r2.Ok() || r1.Val != r2.Val {
		t.Fatalf("results: %+v %+v", r1, r2)
	}
	if st := e.m.Stats(); st.Wakeups != 1 {
		t.Fatalf("Wakeups = %d, want 1 targeted wake", st.Wakeups)
	}
}

// TestStressDivergenceUnderLoad injects a single divergent batchable call
// after healthy traffic on a 4-replica set: the verdict names that call
// with the comparator's exact reason.
func TestStressDivergenceUnderLoad(t *testing.T) {
	e := newMonEnv(t, 4)
	healthy := make([]*vkernel.Call, 4)
	for r := range healthy {
		healthy[r] = &vkernel.Call{Num: vkernel.SysGetpid}
	}
	for i := 0; i < 5; i++ {
		if res := e.lockstep(t, healthy); !res[0].Ok() {
			t.Fatalf("healthy round %d failed: %+v", i, res[0])
		}
	}
	divergent := make([]*vkernel.Call, 4)
	for r := range divergent {
		divergent[r] = &vkernel.Call{Num: vkernel.SysLseek, Args: [6]uint64{3, uint64(10 + r%2), 0}}
	}
	e.lockstep(t, divergent)
	want := Verdict{Diverged: true, Reason: "lseek: arg1 11 != master 10", Syscall: "lseek"}
	if v := e.m.Verdict(); v != want {
		t.Fatalf("verdict = %+v, want %+v", v, want)
	}
}

// TestWatchdogSparesBlockingMasterCall: once every replica has arrived,
// the round is closed and the watchdog must stand down even when the
// master call blocks far beyond the lockstep timeout (an idle accept or
// epoll_wait) — only an unclosed round (a replica that never showed up)
// is desynchronisation.
func TestWatchdogSparesBlockingMasterCall(t *testing.T) {
	e := newMonEnv(t, 2)
	e.m.SetLockstepTimeout(30 * time.Millisecond)
	release := make(chan struct{})
	results := make([]vkernel.Result, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			th := e.threads[i]
			results[i] = e.m.MonitorCall(th, &vkernel.Call{Num: vkernel.SysGetpid},
				func(c *vkernel.Call) vkernel.Result {
					if th.Proc.ReplicaIndex == 0 {
						<-release // master call blocks well past the watchdog
					}
					return th.RawSyscallC(c)
				})
		}(i)
	}
	time.Sleep(150 * time.Millisecond) // 5x the timeout
	if e.m.Diverged() {
		t.Fatalf("watchdog fired on a closed round with a blocking master call: %+v", e.m.Verdict())
	}
	close(release)
	wg.Wait()
	if e.m.Diverged() {
		t.Fatalf("diverged after completion: %+v", e.m.Verdict())
	}
	if !results[0].Ok() || results[0].Val != results[1].Val {
		t.Fatalf("results: %+v", results)
	}
}

// goldenRun drives one deterministic mixed workload (per-group files,
// batchable reads and metadata calls, sensitive writes, an all-replicas
// call) on a fresh monitor and returns per-thread result traces, final
// clocks and stats.
func goldenRun(t *testing.T, replicas, groups, callsPerThread int) ([][]int64, []int64, Stats, Verdict) {
	t.Helper()
	e := newMonEnv(t, replicas)

	// One extra registered thread set per group beyond ltid 0.
	type lane struct {
		threads []*vkernel.Thread
		bufs    []uint64 // per-replica scratch, pre-allocated (alloc is not goroutine-safe)
	}
	lanes := make([]*lane, groups)
	paths := make([][]uint64, groups)
	for g := 0; g < groups; g++ {
		ln := &lane{}
		paths[g] = make([]uint64, replicas)
		for r := 0; r < replicas; r++ {
			var th *vkernel.Thread
			if g == 0 {
				th = e.threads[r]
			} else {
				th = e.threads[r].Proc.NewThread(nil)
				e.m.RegisterThread(th, g)
			}
			ln.threads = append(ln.threads, th)
			ln.bufs = append(ln.bufs, uint64(e.alloc(r, 256)))
		}
		lanes[g] = ln
	}
	// Deterministic setup phase: create one file per group and record the
	// path bytes in every replica, sequentially so fd numbers and results
	// do not depend on host scheduling.
	fds := make([]uint64, groups)
	for g := 0; g < groups; g++ {
		name := "/tmp/golden-" + string(rune('a'+g%26)) + string(rune('0'+g/26))
		e.k.FS.WriteFile(name, []byte("golden-seed-content"), 0o644)
		for r := 0; r < replicas; r++ {
			paths[g][r] = uint64(e.put(r, append([]byte(name), 0)))
		}
		calls := make([]*vkernel.Call, replicas)
		results := make([]vkernel.Result, replicas)
		var wg sync.WaitGroup
		for r := 0; r < replicas; r++ {
			calls[r] = &vkernel.Call{Num: vkernel.SysOpen, Args: [6]uint64{paths[g][r], vkernel.ORdwr, 0}}
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				th := lanes[g].threads[r]
				results[r] = e.m.MonitorCall(th, calls[r], func(c *vkernel.Call) vkernel.Result {
					return th.RawSyscallC(c)
				})
			}(r)
		}
		wg.Wait()
		if !results[0].Ok() {
			t.Fatalf("group %d open failed: %+v", g, results[0])
		}
		fds[g] = results[0].Val
	}

	// Concurrent mixed phase: every group's threads run the same call
	// script against group-private state.
	traces := make([][]int64, groups*replicas)
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		for r := 0; r < replicas; r++ {
			wg.Add(1)
			go func(g, r int) {
				defer wg.Done()
				th := lanes[g].threads[r]
				buf := lanes[g].bufs[r]
				exec := func(c *vkernel.Call) vkernel.Result { return th.RawSyscallC(c) }
				var trace []int64
				do := func(c *vkernel.Call) {
					trace = append(trace, e.m.MonitorCall(th, c, exec).Ret())
				}
				for i := 0; i < callsPerThread; i++ {
					do(&vkernel.Call{Num: vkernel.SysGetpid})
					do(&vkernel.Call{Num: vkernel.SysLseek, Args: [6]uint64{fds[g], uint64(i % 8), 0}})
					do(&vkernel.Call{Num: vkernel.SysAccess, Args: [6]uint64{paths[g][r], 0}})
					do(&vkernel.Call{Num: vkernel.SysFstat, Args: [6]uint64{fds[g], buf}})
					if i%3 == 0 { // sensitive: replication
						do(&vkernel.Call{Num: vkernel.SysPread64, Args: [6]uint64{fds[g], buf, 8, 0}})
					}
					if i%5 == 0 { // all-replicas call (runOwn path)
						do(&vkernel.Call{Num: vkernel.SysRtSigprocmask, Args: [6]uint64{0, 0}})
					}
				}
				traces[g*replicas+r] = trace
			}(g, r)
		}
	}
	wg.Wait()

	clocks := make([]int64, 0, groups*replicas)
	for g := 0; g < groups; g++ {
		for r := 0; r < replicas; r++ {
			clocks = append(clocks, int64(lanes[g].threads[r].Clock.Now()))
		}
	}
	return traces, clocks, e.m.Stats(), e.m.Verdict()
}

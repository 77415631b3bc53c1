// BenchmarkGhumveeLockstep measures the monitored-path host wall-clock of
// the GHUMVEE rendezvous engine: R replicas x T logical threads, every
// syscall lockstepped (ModeGHUMVEE), on the micro-syscall profile the
// figures' "no IP-MON" bars are built from. The reported host-ns/mcall
// metric is the optimisation target; the virtual metrics are
// deterministic (asserted by the ghumvee golden tests).
package remon

import (
	"fmt"
	"testing"

	"remon/internal/core"
	"remon/internal/libc"
)

// lockstepProgram spawns threads-1 workers (plus the main thread) that
// each issue calls monitored getpids.
func lockstepProgram(threads, calls int) libc.Program {
	return func(env *libc.Env) {
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
}

func benchLockstep(b *testing.B, replicas, threads int) {
	const callsPerThread = 60
	prog := lockstepProgram(threads, callsPerThread)
	m, err := core.New(core.Config{
		Mode: core.ModeGHUMVEE, Replicas: replicas, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	// Warm-up run outside the timed region (replica bootstrap, group
	// ring creation); the timed loop measures the monitored path.
	if rep := m.Run(prog); rep.Verdict.Diverged {
		b.Fatalf("diverged: %s", rep.Verdict.Reason)
	}
	start := m.Monitor.Stats().MonitoredCalls
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := m.Run(prog)
		if rep.Verdict.Diverged {
			b.Fatalf("diverged: %s", rep.Verdict.Reason)
		}
	}
	b.StopTimer()
	mcalls := m.Monitor.Stats().MonitoredCalls - start
	if mcalls == 0 {
		b.Fatal("no monitored calls measured")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(mcalls), "host-ns/mcall")
}

// BenchmarkGhumveeLockstep sweeps 2/4/8 replicas x 1/4/16 threads.
func BenchmarkGhumveeLockstep(b *testing.B) {
	for _, r := range []int{2, 4, 8} {
		for _, t := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("r%d/t%d", r, t), func(b *testing.B) {
				benchLockstep(b, r, t)
			})
		}
	}
}

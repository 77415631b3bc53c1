// Top-level benchmark harness: one testing.B benchmark per table and
// figure of the paper's evaluation, plus the ablation benches DESIGN.md §5
// calls out. Each benchmark runs a reduced-size version of the experiment
// (the full-size runs live behind cmd/remon-bench -experiment) and reports
// the key figure-of-merit as custom metrics, in virtual time.
//
//	go test -bench=. -benchmem
package remon

import (
	"testing"

	"remon/internal/bench"
	"remon/internal/core"
	"remon/internal/model"
	"remon/internal/policy"
	"remon/internal/vnet"
	"remon/internal/workload"
)

// BenchmarkTable1PolicyClassification regenerates Table 1 (the spatial
// exemption levels and their call sets).
func BenchmarkTable1PolicyClassification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(bench.FormatTable1()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// benchProfile measures one synthetic profile under one mode and reports
// the normalized execution time.
func benchProfile(b *testing.B, p workload.Profile, mode core.Mode, level policy.Level, metric string) {
	b.Helper()
	var norm float64
	for i := 0; i < b.N; i++ {
		native, err := core.RunProgram(core.Config{Mode: core.ModeNative, Seed: 7}, workload.SyntheticProgram(p))
		if err != nil {
			b.Fatal(err)
		}
		rep, err := core.RunProgram(core.Config{
			Mode: mode, Replicas: 2, Policy: level, Seed: 7, Partitions: 16,
		}, workload.SyntheticProgram(p))
		if err != nil {
			b.Fatal(err)
		}
		if rep.Verdict.Diverged {
			b.Fatalf("diverged: %s", rep.Verdict.Reason)
		}
		norm = float64(rep.Duration) / float64(native.Duration)
	}
	b.ReportMetric(norm, metric)
}

// BenchmarkFig3SyntheticSuites regenerates Figure 3's two series on its
// highest-density benchmark (dedup) — the bar the figure's story hinges
// on.
func BenchmarkFig3SyntheticSuites(b *testing.B) {
	profiles := workload.Fig3Profiles(300)
	dedup := profiles[2]
	b.Run("dedup/no-IPMON", func(b *testing.B) {
		benchProfile(b, dedup, core.ModeGHUMVEE, policy.LevelNone, "normalized-time")
	})
	b.Run("dedup/IPMON-NONSOCKET_RW", func(b *testing.B) {
		benchProfile(b, dedup, core.ModeReMon, policy.NonsocketRWLevel, "normalized-time")
	})
}

// BenchmarkFig4PhoronixPolicies regenerates Figure 4's per-level series on
// network-loopback (the strongest slope in the figure).
func BenchmarkFig4PhoronixPolicies(b *testing.B) {
	p := workload.Fig4Profiles(250)[6] // network-loopback
	levels := []struct {
		name  string
		mode  core.Mode
		level policy.Level
	}{
		{"NO_IPMON", core.ModeGHUMVEE, policy.LevelNone},
		{"BASE", core.ModeReMon, policy.BaseLevel},
		{"NONSOCKET_RO", core.ModeReMon, policy.NonsocketROLevel},
		{"NONSOCKET_RW", core.ModeReMon, policy.NonsocketRWLevel},
		{"SOCKET_RO", core.ModeReMon, policy.SocketROLevel},
		{"SOCKET_RW", core.ModeReMon, policy.SocketRWLevel},
	}
	for _, lv := range levels {
		b.Run("network-loopback/"+lv.name, func(b *testing.B) {
			benchProfile(b, p, lv.mode, lv.level, "normalized-time")
		})
	}
}

// BenchmarkFig5ServerScaling regenerates Figure 5's shape on one epoll
// server: overhead versus replica count in the two network scenarios.
func BenchmarkFig5ServerScaling(b *testing.B) {
	o := bench.Quick()
	sb := bench.ServerBenchmarks()[4] // redis
	scenarios := []struct {
		name string
		link vnet.Link
	}{
		{"gigabit-0.1ms", vnet.GigabitLocal},
		{"realistic-2ms", vnet.LowLatency2ms},
	}
	for _, sc := range scenarios {
		for _, replicas := range []int{2, 4} {
			name := sc.name + "/replicas-" + string(rune('0'+replicas))
			b.Run(name, func(b *testing.B) {
				var overhead float64
				for i := 0; i < b.N; i++ {
					native, err := bench.RunServerOnce(sb, sc.link, core.ModeNative, 1, o)
					if err != nil {
						b.Fatal(err)
					}
					d, err := bench.RunServerOnce(sb, sc.link, core.ModeReMon, replicas, o)
					if err != nil {
						b.Fatal(err)
					}
					overhead = float64(d)/float64(native) - 1
				}
				b.ReportMetric(100*overhead, "overhead-%")
			})
		}
	}
}

// BenchmarkTable2MVEEComparison regenerates Table 2's design comparison on
// one server benchmark.
func BenchmarkTable2MVEEComparison(b *testing.B) {
	o := bench.Quick()
	sb := bench.ServerBenchmarks()[0] // beanstalkd
	b.Run("VARAN-like", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.RunServerVaran(sb, vnet.GigabitLocal, 2, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GHUMVEE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.RunServerOnce(sb, vnet.GigabitLocal, core.ModeGHUMVEE, 2, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ReMon-gigabit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.RunServerOnce(sb, vnet.GigabitLocal, core.ModeReMon, 2, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ReMon-5ms", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.RunServerOnce(sb, vnet.Simulated5ms, core.ModeReMon, 2, o); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// runAblate measures the virtual duration of the dense workload
// (bench.SyscallDenseProgram) under a config.
func runAblate(b *testing.B, cfg core.Config) model.Duration {
	b.Helper()
	cfg.Mode = core.ModeReMon
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.Policy == 0 {
		cfg.Policy = policy.SocketRWLevel
	}
	cfg.Seed = 11
	rep, err := core.RunProgram(cfg, bench.SyscallDenseProgram(800))
	if err != nil {
		b.Fatal(err)
	}
	if rep.Verdict.Diverged {
		b.Fatalf("diverged: %s", rep.Verdict.Reason)
	}
	return rep.Duration
}

// BenchmarkAblationRBSize: linear RB + arbiter reset — the smaller the
// buffer, the more GHUMVEE-arbitrated resets, the shorter the master's
// run-ahead window (§3.2 / §4 trade-off).
func BenchmarkAblationRBSize(b *testing.B) {
	for _, size := range []uint64{64 << 10, 512 << 10, 16 << 20} {
		name := map[uint64]string{64 << 10: "64KiB", 512 << 10: "512KiB", 16 << 20: "16MiB"}[size]
		b.Run(name, func(b *testing.B) {
			var d model.Duration
			for i := 0; i < b.N; i++ {
				d = runAblate(b, core.Config{RBSize: size, Partitions: 1})
			}
			b.ReportMetric(d.Seconds()*1e6, "virtual-us")
		})
	}
}

// BenchmarkAblationWakeSuppression: §3.7's "no FUTEX_WAKE when no slave
// waits" versus always waking.
func BenchmarkAblationWakeSuppression(b *testing.B) {
	b.Run("suppressed", func(b *testing.B) {
		var d model.Duration
		for i := 0; i < b.N; i++ {
			d = runAblate(b, core.Config{})
		}
		b.ReportMetric(d.Seconds()*1e6, "virtual-us")
	})
	b.Run("always-wake", func(b *testing.B) {
		var d model.Duration
		for i := 0; i < b.N; i++ {
			d = runAblate(b, core.Config{AblateAlwaysWake: true})
		}
		b.ReportMetric(d.Seconds()*1e6, "virtual-us")
	})
}

// BenchmarkAblationSpinVsFutex: §3.7's two slave wait strategies, forced
// on for the whole run.
func BenchmarkAblationSpinVsFutex(b *testing.B) {
	spin := false
	futex := true
	b.Run("predicted", func(b *testing.B) {
		var d model.Duration
		for i := 0; i < b.N; i++ {
			d = runAblate(b, core.Config{})
		}
		b.ReportMetric(d.Seconds()*1e6, "virtual-us")
	})
	b.Run("always-spin", func(b *testing.B) {
		var d model.Duration
		for i := 0; i < b.N; i++ {
			d = runAblate(b, core.Config{AblateBlocking: &spin})
		}
		b.ReportMetric(d.Seconds()*1e6, "virtual-us")
	})
	b.Run("always-futex", func(b *testing.B) {
		var d model.Duration
		for i := 0; i < b.N; i++ {
			d = runAblate(b, core.Config{AblateBlocking: &futex})
		}
		b.ReportMetric(d.Seconds()*1e6, "virtual-us")
	})
}

// BenchmarkAblationCondvarPerInvocation approximates the shared-condvar
// alternative of §3.7: per-invocation condvars never need a reset and
// wake only interested slaves; the ablation compares 2 vs 6 replicas on
// the same entry stream, where per-invocation condvars keep the wake cost
// flat per publish.
func BenchmarkAblationCondvarPerInvocation(b *testing.B) {
	for _, replicas := range []int{2, 6} {
		name := map[int]string{2: "replicas-2", 6: "replicas-6"}[replicas]
		b.Run(name, func(b *testing.B) {
			var d model.Duration
			for i := 0; i < b.N; i++ {
				d = runAblate(b, core.Config{Replicas: replicas})
			}
			b.ReportMetric(d.Seconds()*1e6, "virtual-us")
		})
	}
}

// BenchmarkMicroSyscallPaths measures the three per-call paths directly:
// native, IP-MON fast path, GHUMVEE lockstep — the cost hierarchy the
// whole design rests on.
func BenchmarkMicroSyscallPaths(b *testing.B) {
	prog := bench.MicroProgram()
	run := func(b *testing.B, cfg core.Config) model.Duration {
		rep, err := core.RunProgram(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		return rep.Duration
	}
	b.Run("native", func(b *testing.B) {
		var d model.Duration
		for i := 0; i < b.N; i++ {
			d = run(b, core.Config{Mode: core.ModeNative, Seed: 3})
		}
		b.ReportMetric(d.Seconds()*1e9/bench.MicroCallCount, "virtual-ns/call")
	})
	b.Run("ipmon", func(b *testing.B) {
		var d model.Duration
		for i := 0; i < b.N; i++ {
			d = run(b, core.Config{Mode: core.ModeReMon, Replicas: 2, Policy: policy.BaseLevel, Seed: 3})
		}
		b.ReportMetric(d.Seconds()*1e9/bench.MicroCallCount, "virtual-ns/call")
	})
	b.Run("ghumvee", func(b *testing.B) {
		var d model.Duration
		for i := 0; i < b.N; i++ {
			d = run(b, core.Config{Mode: core.ModeGHUMVEE, Replicas: 2, Seed: 3})
		}
		b.ReportMetric(d.Seconds()*1e9/bench.MicroCallCount, "virtual-ns/call")
	})
}

package main

import "encoding/json"

// The benchmark's declaration: BENCHMARK.json at the root of the repo is
// `go run ./benchmark -spec`, and a test keeps the two identical.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change is a regression (per-layer
	// metrics have none).
	Bound float64 `json:"bound,omitempty"`
}

type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

const defaultSeconds = 16

var workloads = []workloadDef{
	{"lockstep", "GHUMVEE only: every call takes the rendezvous, so ghumvee, rr, ikb's monitor route and mem work, rb/ipmon do not; control for fastpath. All five run workers at GOMAXPROCS 1 so no operation fails"},
	{"fastpath", "ReMon at NONSOCKET_RW, MaxLag 0: 95% of calls go IK-B -> IP-MON -> RB publish-per-call and ghumvee sees only the sensitive 5%; with lockstep it is the paper's Fig. 3/4 comparison"},
	{"pipeline", "fastpath with MaxLag 64: the same rb/ipmon layers under group commit and a lag window, so a gain for one RB protocol that costs the other shows here"},
	{"server", "nginx-shaped epoll server under ReMon at SOCKET_RW with closed-loop native clients: blocking socket calls, 4 KiB RB payloads, vkernel epoll/net and vnet.Conn carry it (the paper's Fig. 5 case)"},
	{"fleet_open", "open loop at 3000 conns/s against a 2-shard fleet: vnet poller/splice and fleet admission dominate while the per-shard syscall path is light, the mirror image of fastpath"},
}

// The contract asks for bounds three times the spread between runs. On a
// shared 2-core host while other containers were busy the quartile distance
// reached 6% for ops_per_s and 9% for op_p50_ms (on the 7µs requests of
// `server`), hence 15/20/20% where ISSUE 24 has 10/10/15; the virtual-time
// and allocation metrics repeat to four digits and keep its 2%.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"op_p50_ms", "ms", "lower", 0.20},
	{"op_p90_ms", "ms", "lower", 0.20},
	{"virt_overhead_x", "x", "lower", 0.02},
	{"alloc_kb_per_op", "KiB", "lower", 0.02},
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

var perLayerMetrics = []metricDef{
	layer("fail.share", "ratio", "lower"),
	layer("fail.verdict", "count", "lower"),
	layer("fail.hang", "count", "lower"),
	layer("fail.crash", "count", "lower"),
	layer("fail.wrong", "count", "lower"),
	layer("core.new_us", "us", "lower"),
	layer("core.run_us", "us", "lower"),
	layer("core.close_us", "us", "lower"),
	layer("core.shutdown_us", "us", "lower"),
	layer("core.calls_per_op", "count", "lower"),
	layer("mem.probe_map_us", "us", "lower"),
	layer("mem.probe_map_kb", "KiB", "lower"),
	layer("mem.arena_hit_share", "ratio", "higher"),
	layer("vkernel.probe_call_ns", "ns", "lower"),
	layer("policy.probe_verdict_ns", "ns", "lower"),
	layer("ikb.routed_ipmon_share", "ratio", "higher"),
	layer("ikb.token_violations", "count", "lower"),
	layer("ipmon.unmonitored_share", "ratio", "higher"),
	layer("ipmon.forwarded_policy_per_kcall", "count", "lower"),
	layer("ipmon.forwarded_toobig", "count", "lower"),
	layer("rb.probe_roundtrip_ns", "ns", "lower"),
	layer("rb.probe_roundtrip_4k_ns", "ns", "lower"),
	layer("rb.probe_allocs", "count", "lower"),
	layer("rb.wakes_per_kcall", "count", "lower"),
	layer("rb.wake_checks_per_kcall", "count", "lower"),
	layer("rb.flushes_per_kcall", "count", "lower"),
	layer("rb.batched_share", "ratio", "higher"),
	layer("rb.lag_waits_per_kcall", "count", "lower"),
	layer("rb.lowwater_waits_per_kcall", "count", "lower"),
	layer("rb.flips", "count", "lower"),
	layer("rb.highwater_lag", "count", "lower"),
	layer("ghumvee.ns_per_monitored_call", "ns", "lower"),
	layer("ghumvee.monitored_per_kcall", "count", "lower"),
	layer("ghumvee.wakeups_per_monitored", "count", "lower"),
	layer("ghumvee.bytes_compared_per_call", "count", "lower"),
	layer("ghumvee.epoch_flushes", "count", "lower"),
	layer("ghumvee.rb_resets", "count", "lower"),
	layer("ghumvee.false_verdicts", "count", "lower"),
	layer("vnet.probe_rtt_ns", "ns", "lower"),
	layer("vnet.probe_poll_ns", "ns", "lower"),
	layer("vnet.probe_splice_ns", "ns", "lower"),
	layer("client.connect_us", "us", "lower"),
	layer("client.send_us", "us", "lower"),
	layer("client.wait_us", "us", "lower"),
	layer("fleet.new_ms", "ms", "lower"),
	layer("fleet.close_ms", "ms", "lower"),
	layer("fleet.probe_admit_us", "us", "lower"),
	layer("fleet.recoveries", "count", "lower"),
	layer("fleet.failovers", "count", "lower"),
	layer("fleet.conns_refused", "count", "lower"),
	layer("fleet.conns_shed", "count", "lower"),
	layer("fleet.admit_waits", "count", "lower"),
	layer("fleet.recovery_p50_ms", "ms", "lower"),
	layer("fleet.goroutines_peak", "count", "lower"),
	layer("fleet.ramp_p90_ms.r1500", "ms", "lower"),
	layer("fleet.ramp_p90_ms.r3000", "ms", "lower"),
	layer("fleet.ramp_p90_ms.r6000", "ms", "lower"),
	layer("fleet.ramp_max_ok_rate", "1/s", "higher"),
	layer("gen.late_p50_ms", "ms", "lower"),
	layer("gen.late_p99_ms", "ms", "lower"),
	layer("gen.active_at_end", "count", "lower"),
	layer("tail.op_p99_ms", "ms", "lower"),
	layer("telemetry.probe_scrape_ms", "ms", "lower"),
	layer("rt.gc_cycles", "count", "lower"),
	layer("rt.gc_pause_ms", "ms", "lower"),
	layer("rt.heap_peak_mb", "MiB", "lower"),
	layer("rt.page_faults_per_op", "count", "lower"),
	layer("trace.overhead_share", "ratio", "lower"),
	layer("trace.spans", "count", "lower"),
}

func spec() benchmarkSpec {
	return benchmarkSpec{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
}

// specJSON renders BENCHMARK.json. Per-layer metrics carry no bound key.
func specJSON() []byte {
	b, err := json.MarshalIndent(spec(), "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(b, '\n')
}

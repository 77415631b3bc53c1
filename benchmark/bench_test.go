package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// The test binary doubles as the worker: the smoke test re-executes it
// with workerEnv=real, the crash test with workerEnv=fake.
const (
	workerEnv    = "REMON_BENCH_TEST_WORKER"
	fakeStateEnv = "REMON_BENCH_TEST_STATE"
)

func TestMain(m *testing.M) {
	switch os.Getenv(workerEnv) {
	case "real":
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	case "fake":
		os.Exit(fakeWorker(os.Getenv(fakeStateEnv), os.Stdout))
	}
	os.Exit(m.Run())
}

func testLauncher(mode, state string) launcher {
	return func(ctx context.Context, a workerArgs) *exec.Cmd {
		cmd := exec.CommandContext(ctx, os.Args[0], a.flags()...)
		cmd.Env = append(os.Environ(), workerEnv+"="+mode, fakeStateEnv+"="+state)
		return cmd
	}
}

// fakeWorker dies mid-operation the first time it runs (no state file
// yet) and completes the second time.
func fakeWorker(state string, stdout io.Writer) int {
	e := newEmitter(stdout)
	e.send(msg{T: "setup", Setup: 0.01})
	e.startMeasuring()
	op := batch{OK: []int64{1000}, VirtX: []float64{1.5}, Busy: 1000}
	if _, err := os.Stat(state); err != nil {
		if err := os.WriteFile(state, []byte("crashed once"), 0o644); err != nil {
			return 3
		}
		for i := 0; i < 3; i++ {
			e.ops(op)
		}
		fmt.Fprintln(os.Stderr, "panic: libc: mmap arena: EPERM")
		return 2 // as a Go panic exits
	}
	e.ops(op)
	e.ops(op)
	e.send(msg{T: "mem", AllocBytes: 4096, AllocOps: 2})
	e.send(msg{T: "done"})
	return 0
}

func TestCrashedWorkerCountedOnceAndRelaunched(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state")
	var log bytes.Buffer
	r, err := runWorkload(runSpec{workload: "fastpath", seed: 1, seconds: 2}, testLauncher("fake", state), &log)
	if err != nil {
		t.Fatal(err)
	}
	if r.relaunches != 1 {
		t.Errorf("relaunches = %d, want 1", r.relaunches)
	}
	if got := r.agg.kinds[kindCrash]; got != 1 {
		t.Errorf("crash failures = %d, want exactly 1 (the operation in flight)", got)
	}
	if r.agg.attempted != 6 || r.agg.failed() != 1 || len(r.agg.ok) != 5 {
		t.Errorf("attempted %d failed %d ok %d, want 6, 1, 5", r.agg.attempted, r.agg.failed(), len(r.agg.ok))
	}
	if len(r.setups) != 2 {
		t.Errorf("set-ups reported = %d, want 2 (one per incarnation)", len(r.setups))
	}
	if !bytes.Contains(log.Bytes(), []byte("mmap arena: EPERM")) {
		t.Errorf("the worker's panic line was not logged: %q", log.String())
	}
	if v := r.endToEnd()["virt_overhead_x"]; v != 1.5 {
		t.Errorf("virt_overhead_x = %v, want 1.5", v)
	}
	if v := r.endToEnd()["alloc_kb_per_op"]; v != 2 {
		t.Errorf("alloc_kb_per_op = %v, want 2 (only checkpoints that arrived count)", v)
	}
}

// TestSmoke runs every workload through the real parent/worker path for a
// fraction of a second: one set-up, probes at 1/100 of their counts. It
// asserts what load on the test host cannot change: the run completes,
// operations succeed, no output check fails, every metric is reported.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var log bytes.Buffer
			r, err := runWorkload(runSpec{workload: w.Name, seed: 3, seconds: 0.3, setups: 1}, testLauncher("real", ""), &log)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if len(r.agg.ok) == 0 || !r.correct() {
				t.Fatalf("ok %d of %d attempted, failed by kind %v", len(r.agg.ok), r.agg.attempted, r.agg.kinds)
			}
			for name, v := range r.endToEnd() {
				if !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", name, v)
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		t.Parallel()
		spans := filepath.Join(t.TempDir(), "spans.jsonl")
		var log bytes.Buffer
		sp := runSpec{workload: "pipeline", seed: 3, seconds: 0.6, trace: true, traceOut: spans, setups: 1, probeDiv: 100}
		r, err := runWorkload(sp, testLauncher("real", ""), &log)
		if err != nil {
			t.Fatalf("%v\n%s", err, log.String())
		}
		got := r.perLayer()
		for _, name := range []string{"core.run_us", "core.calls_per_op", "mem.probe_map_us", "vkernel.probe_call_ns",
			"policy.probe_verdict_ns", "rb.probe_roundtrip_ns", "rb.probe_roundtrip_4k_ns", "vnet.probe_rtt_ns",
			"vnet.probe_poll_ns", "vnet.probe_splice_ns", "tail.op_p99_ms", "trace.spans"} {
			if !(got[name] > 0) {
				t.Errorf("traced run: %s = %v, want a positive number", name, got[name])
			}
		}
		for name := range got {
			if !declared(perLayerMetrics, name) {
				t.Errorf("traced run reported undeclared metric %s", name)
			}
		}
		if got["rb.flushes_per_kcall"] <= 0 || got["ikb.routed_ipmon_share"] < 0.9 {
			t.Errorf("pipeline: rb.flushes_per_kcall %v, ikb.routed_ipmon_share %v", got["rb.flushes_per_kcall"], got["ikb.routed_ipmon_share"])
		}
		checkSpanFile(t, spans)
	})
}

func declared(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// checkSpanFile verifies that, for every operation, the self times of the
// operation's span and of its descendants add up to its duration.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		ID, Parent       int
		Name             string
		Start, End, Self int64
	}
	var recs []rec
	dec := json.NewDecoder(bytes.NewReader(b))
	for dec.More() {
		var r struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int    `json:"parent"`
			Self   int64  `json:"self_ns"`
		}
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec{r.ID, r.Parent, r.Name, r.Start, r.End, r.Self})
	}
	if len(recs) == 0 {
		t.Fatal("no spans written")
	}
	// Spans are written in start order, so a parent precedes its children.
	root := make([]int, len(recs))
	selfSum := map[int]int64{}
	for i, r := range recs {
		root[i] = i
		if r.Parent >= 0 {
			root[i] = root[r.Parent]
		}
		selfSum[root[i]] += r.Self
	}
	ops := 0
	for i, r := range recs {
		if r.Name != "op" || r.Parent >= 0 {
			continue
		}
		ops++
		dur := r.End - r.Start
		if diff := math.Abs(float64(selfSum[i] - dur)); diff > 0.05*float64(dur) {
			t.Fatalf("op span %d: self times sum to %d ns, duration %d ns", r.ID, selfSum[i], dur)
		}
	}
	if ops == 0 {
		t.Fatal("no operation spans")
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0.5, 3}, {0.9, 5}, {0.2, 1}, {1, 5}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
}

func TestLatencyRanksFailuresLast(t *testing.T) {
	a := newAgg()
	for i := 1; i <= 8; i++ {
		a.add(batch{OK: []int64{int64(i) * 1e6}, Busy: 1})
	}
	a.add(batch{Fail: map[string]int{kindHang: 2}})
	// 10 attempted: p50 is the 5th fastest, p90 the 9th, which is a
	// failure, so the slowest success stands in.
	if got := a.latencyMs(0.5); got != 5 {
		t.Errorf("p50 = %v ms, want 5", got)
	}
	if got := a.latencyMs(0.9); got != 8 {
		t.Errorf("p90 = %v ms, want 8 (slowest success)", got)
	}
	if a.attempted != 10 || a.failed() != 2 {
		t.Errorf("attempted %d failed %d, want 10 and 2", a.attempted, a.failed())
	}
}

func TestMedianOfFifths(t *testing.T) {
	// Ten one-operation batches; the fourth fifth is ten times slower
	// (a disturbed stretch) and must not move the result.
	ok := make([]int, 10)
	busy := make([]int64, 10)
	for i := range ok {
		ok[i], busy[i] = 1, 1e6
	}
	busy[6], busy[7] = 1e7, 1e7
	if got := medianOfFifths(ok, busy); got != 1000 {
		t.Errorf("medianOfFifths = %v ops/s, want 1000", got)
	}
	if got := medianOfFifths(nil, nil); got != 0 {
		t.Errorf("medianOfFifths of nothing = %v, want 0", got)
	}
	// Batches with no busy time (failed server runs) are left out.
	a := newAgg()
	a.add(batch{OK: []int64{1, 1}, Busy: 2e9})
	a.add(batch{OK: []int64{1}, Fail: map[string]int{kindHang: 3}})
	if got := a.opsPerSec(); got != 1 {
		t.Errorf("opsPerSec = %v, want 1", got)
	}
}

func TestBoundComparison(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d             metricDef
		first, second float64
		pass          bool
	}{
		{lower, 1.00, 1.09, true},
		{lower, 1.00, 1.11, false},
		{lower, 1.11, 1.00, false}, // order of the two runs does not matter
		{higher, 1000, 905, true},
		{higher, 1000, 890, false},
		{higher, 890, 1000, false},
	} {
		if _, pass := verdictOf(c.first, c.second, c.d); pass != c.pass {
			t.Errorf("%s %v vs %v: pass = %v, want %v", c.d.Name, c.first, c.second, pass, c.pass)
		}
	}
	if got := worseBy(100, 110, "lower"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("worseBy lower = %v, want 0.10", got)
	}
	if got := worseBy(100, 110, "higher"); math.Abs(got+0.10) > 1e-12 {
		t.Errorf("worseBy higher = %v, want -0.10", got)
	}
}

func TestCounterSetDelta(t *testing.T) {
	sum := counterSet{}
	sum.addDelta(counterSet{"rb.wakes_total": 5, "rb.high_water_lag": 9}, counterSet{"rb.wakes_total": 12, "rb.high_water_lag": 7})
	sum.addDelta(nil, counterSet{"rb.wakes_total": 3, "rb.high_water_lag": 11})
	if sum["rb.wakes_total"] != 10 || sum["rb.high_water_lag"] != 11 {
		t.Errorf("sum = %v, want wakes 10 (7+3) and high-water 11 (max)", sum)
	}
	c := counterSet{}
	c.into("rb")("cur_lag", 4)
	if len(c) != 0 {
		t.Errorf("instantaneous sample kept: %v", c)
	}
}

func TestArrivalScheduleSeededAndSorted(t *testing.T) {
	a := arrivalSchedule(7, 3000, time.Second)
	b := arrivalSchedule(7, 3000, time.Second)
	c := arrivalSchedule(8, 3000, time.Second)
	if len(a) != 3000 {
		t.Fatalf("len = %d, want 3000", len(a))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule at %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule not sorted at %d", i)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json identical to what the
// code declares, and inside the limits of the benchmark contract.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, specJSON()) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -spec`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	s := spec()
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 || len(s.EndToEnd) > 16 || len(s.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(s.Workloads), len(s.EndToEnd), len(s.PerLayer))
	}
	for _, w := range s.Workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range s.EndToEnd {
		check(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q bound %v", d.Name, d.Unit, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, d := range s.PerLayer {
		check(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound != 0 {
			t.Errorf("per-layer %s: unit %q bound %v", d.Name, d.Unit, d.Bound)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", s.RunSeconds)
	}
}

// Package bench regenerates every table and figure of the paper's
// evaluation (§5) on the simulated substrate: Figure 3 (PARSEC/SPLASH
// under GHUMVEE-only vs IP-MON), Figure 4 (Phoronix across all five
// spatial exemption levels), Figure 5 (server benchmarks over two network
// scenarios and 2–7 replicas), Table 1 (the policy classification) and
// Table 2 (comparison across MVEE designs), plus the programs the root
// bench_test.go ablation benches (DESIGN.md §5) run.
//
// All numbers are normalized execution time: virtual duration under the
// monitor divided by virtual duration of the identical workload running
// natively on the same kernel substrate. Host-time and per-layer numbers
// come from the benchmark program (go run ./benchmark), not from here.
package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"remon/internal/apps"
	"remon/internal/core"
	"remon/internal/libc"
	"remon/internal/model"
	"remon/internal/policy"
	"remon/internal/varan"
	"remon/internal/vkernel"
	"remon/internal/vnet"
	"remon/internal/workload"
)

// MicroCallCount is the number of getpid calls in MicroProgram (the
// per-call virtual metric divides by it).
const MicroCallCount = 500

// MicroProgram is the syscall-dense getpid loop BenchmarkMicroSyscallPaths
// runs on the native, IP-MON and GHUMVEE paths.
func MicroProgram() libc.Program {
	return func(env *libc.Env) {
		for i := 0; i < MicroCallCount; i++ {
			env.Getpid()
		}
	}
}

// SyscallDenseProgram is the file-write loop the ablation benches run: a
// workload dense enough that RB mechanics dominate.
func SyscallDenseProgram(iters int) libc.Program {
	return func(env *libc.Env) {
		fd, errno := env.Open("/tmp/ablate", vkernel.OCreat|vkernel.ORdwr, 0o644)
		if errno != 0 {
			return
		}
		for i := 0; i < iters; i++ {
			env.Write(fd, []byte("0123456789abcdef0123456789abcdef"))
			env.Compute(500 * model.Nanosecond)
		}
		env.Close(fd)
	}
}

// Options trims experiment size (the *_test.go benches and remon-bench
// -quick use Quick; remon-bench runs full size by default).
type Options struct {
	// Iterations per worker thread for synthetic profiles.
	Iterations int
	// ServerConnections / RequestsPerConn for server benchmarks.
	ServerConnections int
	RequestsPerConn   int
	// MaxReplicas bounds Figure 5's replica sweep.
	MaxReplicas int
	Seed        uint64
}

// Defaults fills unset fields.
func (o Options) Defaults() Options {
	if o.Iterations <= 0 {
		o.Iterations = 1200
	}
	if o.ServerConnections <= 0 {
		o.ServerConnections = 8
	}
	if o.RequestsPerConn <= 0 {
		o.RequestsPerConn = 25
	}
	if o.MaxReplicas <= 0 {
		o.MaxReplicas = 7
	}
	if o.Seed == 0 {
		o.Seed = 0xBE7C4
	}
	return o
}

// Quick returns a small configuration for unit/bench tests.
func Quick() Options {
	return Options{Iterations: 150, ServerConnections: 4, RequestsPerConn: 20, MaxReplicas: 4}.Defaults()
}

// SuiteResult is one benchmark's row in a figure.
type SuiteResult struct {
	Benchmark string
	Suite     string
	// Series maps series label -> normalized execution time (measured).
	Series map[string]float64
	// Paper maps series label -> the paper's reported value (when the
	// figure provides it).
	Paper map[string]float64
}

// runProfileMode measures one profile under one configuration and returns
// the virtual duration.
func runProfileMode(p workload.Profile, cfg core.Config) (model.Duration, error) {
	rep, err := core.RunProgram(cfg, workload.SyntheticProgram(p))
	if err != nil {
		return 0, err
	}
	if rep.Verdict.Diverged {
		return 0, fmt.Errorf("bench: %s diverged under %v: %s", p.Name, cfg.Mode, rep.Verdict.Reason)
	}
	return rep.Duration, nil
}

// normalize computes d/native as a float.
func normalize(d, native model.Duration) float64 {
	if native <= 0 {
		return 0
	}
	return float64(d) / float64(native)
}

const benchPartitions = 16

// RunFig3 regenerates Figure 3: PARSEC 2.1 and SPLASH-2x, two replicas,
// GHUMVEE-only vs ReMon at NONSOCKET_RW_LEVEL.
func RunFig3(o Options) ([]SuiteResult, error) {
	o = o.Defaults()
	var out []SuiteResult
	for _, p := range workload.Fig3Profiles(o.Iterations) {
		native, err := runProfileMode(p, core.Config{Mode: core.ModeNative, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		gh, err := runProfileMode(p, core.Config{
			Mode: core.ModeGHUMVEE, Replicas: 2, Seed: o.Seed, Partitions: benchPartitions,
		})
		if err != nil {
			return nil, err
		}
		rm, err := runProfileMode(p, core.Config{
			Mode: core.ModeReMon, Replicas: 2, Policy: policy.NonsocketRWLevel,
			Seed: o.Seed, Partitions: benchPartitions,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, SuiteResult{
			Benchmark: p.Name,
			Suite:     p.Suite,
			Series: map[string]float64{
				"no IP-MON":                 normalize(gh, native),
				"IP-MON/NONSOCKET_RW_LEVEL": normalize(rm, native),
			},
			Paper: map[string]float64{
				"no IP-MON":                 p.PaperNoIPMon,
				"IP-MON/NONSOCKET_RW_LEVEL": p.PaperIPMon["NONSOCKET_RW_LEVEL"],
			},
		})
	}
	return out, nil
}

// fig4Levels pairs series labels with policy levels.
var fig4Levels = []struct {
	Label string
	Level policy.Level
}{
	{"BASE_LEVEL", policy.BaseLevel},
	{"NONSOCKET_RO_LEVEL", policy.NonsocketROLevel},
	{"NONSOCKET_RW_LEVEL", policy.NonsocketRWLevel},
	{"SOCKET_RO_LEVEL", policy.SocketROLevel},
	{"SOCKET_RW_LEVEL", policy.SocketRWLevel},
}

// RunFig4 regenerates Figure 4: the Phoronix benchmarks under no IP-MON
// and all five spatial exemption levels (two replicas).
func RunFig4(o Options) ([]SuiteResult, error) {
	o = o.Defaults()
	var out []SuiteResult
	for _, p := range workload.Fig4Profiles(o.Iterations) {
		native, err := runProfileMode(p, core.Config{Mode: core.ModeNative, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		res := SuiteResult{
			Benchmark: p.Name,
			Suite:     p.Suite,
			Series:    map[string]float64{},
			Paper:     p.PaperIPMon,
		}
		gh, err := runProfileMode(p, core.Config{
			Mode: core.ModeGHUMVEE, Replicas: 2, Seed: o.Seed, Partitions: benchPartitions,
		})
		if err != nil {
			return nil, err
		}
		res.Series["NO_IPMON"] = normalize(gh, native)
		for _, lv := range fig4Levels {
			d, err := runProfileMode(p, core.Config{
				Mode: core.ModeReMon, Replicas: 2, Policy: lv.Level,
				Seed: o.Seed, Partitions: benchPartitions,
			})
			if err != nil {
				return nil, err
			}
			res.Series[lv.Label] = normalize(d, native)
		}
		out = append(out, res)
	}
	return out, nil
}

// Fig5Row is one server benchmark × scenario row.
type Fig5Row struct {
	Benchmark string
	Scenario  string // "gigabit (0.1ms)" or "realistic (2ms)"
	// Overhead maps series label ("2 replicas (no IP-MON)", "2 replicas",
	// ... "7 replicas") -> normalized runtime overhead (0 = native speed).
	Overhead map[string]float64
}

// serverBench describes one Figure 5 server benchmark.
type serverBench struct {
	Name     string
	Style    apps.Style
	ReqSize  int
	RespSize int
	Compute  model.Duration
}

// ServerBenchmarks lists the §5.2 applications.
func ServerBenchmarks() []serverBench {
	return []serverBench{
		{"beanstalkd", apps.StyleEpoll, 64, 64, 3 * model.Microsecond},
		{"lighttpd (wrk)", apps.StyleEpoll, 128, 4096, 8 * model.Microsecond},
		{"memcached", apps.StyleEpoll, 64, 256, 2 * model.Microsecond},
		{"nginx (wrk)", apps.StyleEpoll, 128, 4096, 10 * model.Microsecond},
		{"redis", apps.StyleEpoll, 64, 128, 2 * model.Microsecond},
		{"apache (ab)", apps.StyleThreaded, 128, 8192, 20 * model.Microsecond},
		{"thttpd (ab)", apps.StyleThreaded, 128, 4096, 6 * model.Microsecond},
		{"lighttpd (ab)", apps.StyleEpoll, 128, 4096, 8 * model.Microsecond},
		{"lighttpd (http_load)", apps.StyleEpoll, 128, 16384, 12 * model.Microsecond},
	}
}

// benchAddrSeq keeps server addresses unique across runs.
var benchAddrSeq int

// RunServerOnce runs one server benchmark under one configuration and
// returns the client-side makespan. Host-scheduling noise is damped by
// running the measurement twice and keeping the minimum (virtual costs
// are deterministic; only event interleaving varies).
func RunServerOnce(sb serverBench, link vnet.Link, mode core.Mode, replicas int, o Options) (model.Duration, error) {
	best := model.Duration(0)
	for rep := 0; rep < 2; rep++ {
		d, err := runServerMeasured(sb, link, mode, replicas, o)
		if err != nil {
			return 0, err
		}
		if best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

func runServerMeasured(sb serverBench, link vnet.Link, mode core.Mode, replicas int, o Options) (model.Duration, error) {
	benchAddrSeq++
	addr := fmt.Sprintf("%s-%d:80", strings.ReplaceAll(sb.Name, " ", ""), benchAddrSeq)
	net := vnet.New(link)
	k := vkernel.New(net)
	scfg := apps.ServerConfig{
		Name: sb.Name, Addr: addr,
		RequestSize: sb.ReqSize, ResponseSize: sb.RespSize,
		ComputePerRequest: sb.Compute,
		TotalConnections:  o.ServerConnections,
		Style:             sb.Style,
	}
	ccfg := workload.ClientConfig{
		Addr:            addr,
		Connections:     o.ServerConnections,
		RequestsPerConn: o.RequestsPerConn,
		RequestSize:     sb.ReqSize, ResponseSize: sb.RespSize,
		ThinkTime: 5 * model.Microsecond,
	}
	mvee, err := core.New(core.Config{
		Mode: mode, Replicas: replicas, Policy: policy.SocketRWLevel,
		Kernel: k, Seed: o.Seed, Partitions: o.ServerConnections + 8,
	})
	if err != nil {
		return 0, err
	}
	done := make(chan *core.Report, 1)
	go func() { done <- mvee.Run(apps.Server(scfg)) }()
	res := workload.RunClients(k, ccfg, o.Seed)
	rep := <-done
	mvee.Close()
	if rep.Verdict.Diverged {
		detail := rep.Verdict.Reason
		for _, s := range rep.IPMon {
			if s.LastDivergence != "" {
				detail += "; ipmon: " + s.LastDivergence
			}
		}
		return 0, fmt.Errorf("bench: server %s diverged: %s", sb.Name, detail)
	}
	if res.Errors > 0 {
		return 0, fmt.Errorf("bench: server %s: %d client errors", sb.Name, res.Errors)
	}
	return res.Duration, nil
}

// RunServerVaran runs a server benchmark under the VARAN-like baseline.
func RunServerVaran(sb serverBench, link vnet.Link, replicas int, o Options) (model.Duration, error) {
	benchAddrSeq++
	addr := fmt.Sprintf("%s-v%d:80", strings.ReplaceAll(sb.Name, " ", ""), benchAddrSeq)
	net := vnet.New(link)
	k := vkernel.New(net)
	scfg := apps.ServerConfig{
		Name: sb.Name, Addr: addr,
		RequestSize: sb.ReqSize, ResponseSize: sb.RespSize,
		ComputePerRequest: sb.Compute,
		TotalConnections:  o.ServerConnections,
		Style:             sb.Style,
	}
	ccfg := workload.ClientConfig{
		Addr:            addr,
		Connections:     o.ServerConnections,
		RequestsPerConn: o.RequestsPerConn,
		RequestSize:     sb.ReqSize, ResponseSize: sb.RespSize,
		ThinkTime: 5 * model.Microsecond,
	}
	m, err := varan.New(varan.Config{
		Replicas: replicas, Kernel: k, Seed: o.Seed,
		Partitions: o.ServerConnections + 8,
	})
	if err != nil {
		return 0, err
	}
	done := make(chan *varan.Report, 1)
	go func() { done <- m.Run(apps.Server(scfg)) }()
	res := workload.RunClients(k, ccfg, o.Seed)
	rep := <-done
	m.Close()
	if rep.Diverged {
		return 0, fmt.Errorf("bench: varan server %s diverged", sb.Name)
	}
	if res.Errors > 0 {
		return 0, fmt.Errorf("bench: varan server %s: %d client errors", sb.Name, res.Errors)
	}
	return res.Duration, nil
}

// RunFig5 regenerates Figure 5: every server benchmark, two network
// scenarios, 2..MaxReplicas replicas with IP-MON plus the 2-replica
// no-IP-MON bar.
func RunFig5(o Options) ([]Fig5Row, error) {
	o = o.Defaults()
	scenarios := []struct {
		label string
		link  vnet.Link
	}{
		{"gigabit (0.1ms)", vnet.GigabitLocal},
		{"realistic (2ms)", vnet.LowLatency2ms},
	}
	var out []Fig5Row
	for _, sb := range ServerBenchmarks() {
		for _, sc := range scenarios {
			native, err := RunServerOnce(sb, sc.link, core.ModeNative, 1, o)
			if err != nil {
				return nil, err
			}
			row := Fig5Row{Benchmark: sb.Name, Scenario: sc.label, Overhead: map[string]float64{}}
			gh, err := RunServerOnce(sb, sc.link, core.ModeGHUMVEE, 2, o)
			if err != nil {
				return nil, err
			}
			row.Overhead["2 replicas (no IP-MON)"] = normalize(gh, native) - 1
			for n := 2; n <= o.MaxReplicas; n++ {
				d, err := RunServerOnce(sb, sc.link, core.ModeReMon, n, o)
				if err != nil {
					return nil, err
				}
				row.Overhead[fmt.Sprintf("%d replicas", n)] = normalize(d, native) - 1
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// Table2Row is one row of the MVEE comparison.
type Table2Row struct {
	Benchmark string
	// Overheads in percent, keyed by design.
	Overheads map[string]float64
}

// RunTable2 regenerates Table 2's comparison on the shared substrate:
// the VARAN-like IP baseline, GHUMVEE standalone and ReMon (worst case
// gigabit + best case 5 ms) on the server benchmarks, plus the SPEC-like
// CPU suite under GHUMVEE and ReMon.
func RunTable2(o Options) ([]Table2Row, error) {
	o = o.Defaults()
	var out []Table2Row
	subset := ServerBenchmarks()
	for _, sb := range subset {
		native, err := RunServerOnce(sb, vnet.GigabitLocal, core.ModeNative, 1, o)
		if err != nil {
			return nil, err
		}
		native5, err := RunServerOnce(sb, vnet.Simulated5ms, core.ModeNative, 1, o)
		if err != nil {
			return nil, err
		}
		va, err := RunServerVaran(sb, vnet.GigabitLocal, 2, o)
		if err != nil {
			return nil, err
		}
		gh, err := RunServerOnce(sb, vnet.GigabitLocal, core.ModeGHUMVEE, 2, o)
		if err != nil {
			return nil, err
		}
		rm, err := RunServerOnce(sb, vnet.GigabitLocal, core.ModeReMon, 2, o)
		if err != nil {
			return nil, err
		}
		rm5, err := RunServerOnce(sb, vnet.Simulated5ms, core.ModeReMon, 2, o)
		if err != nil {
			return nil, err
		}
		out = append(out, Table2Row{
			Benchmark: sb.Name,
			Overheads: map[string]float64{
				"VARAN-like (IP)":   100 * (normalize(va, native) - 1),
				"GHUMVEE (CP)":      100 * (normalize(gh, native) - 1),
				"ReMon (gigabit)":   100 * (normalize(rm, native) - 1),
				"ReMon (5ms netem)": 100 * (normalize(rm5, native5) - 1),
			},
		})
	}

	// SPEC-like CPU suite: geometric means across the suite.
	specs := workload.SpecProfiles(o.Iterations / 2)
	var ghRatios, rmRatios []float64
	for _, p := range specs {
		native, err := runProfileMode(p, core.Config{Mode: core.ModeNative, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		gh, err := runProfileMode(p, core.Config{
			Mode: core.ModeGHUMVEE, Replicas: 2, Seed: o.Seed, Partitions: benchPartitions,
		})
		if err != nil {
			return nil, err
		}
		rm, err := runProfileMode(p, core.Config{
			Mode: core.ModeReMon, Replicas: 2, Policy: policy.NonsocketRWLevel,
			Seed: o.Seed, Partitions: benchPartitions,
		})
		if err != nil {
			return nil, err
		}
		ghRatios = append(ghRatios, normalize(gh, native))
		rmRatios = append(rmRatios, normalize(rm, native))
	}
	out = append(out, Table2Row{
		Benchmark: "SPEC-like CPU suite (geomean)",
		Overheads: map[string]float64{
			"GHUMVEE (CP)":    100 * (Geomean(ghRatios) - 1),
			"ReMon (gigabit)": 100 * (Geomean(rmRatios) - 1),
		},
	})
	return out, nil
}

// Geomean computes the geometric mean of vs.
func Geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	prod := 1.0
	for _, v := range vs {
		if v <= 0 {
			v = 1e-9
		}
		prod *= v
	}
	return math.Pow(prod, 1/float64(len(vs)))
}

// FormatFig renders suite results as the figure's table.
func FormatFig(results []SuiteResult, seriesOrder []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s", "benchmark")
	for _, s := range seriesOrder {
		fmt.Fprintf(&b, " %22s", s)
	}
	b.WriteString("\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%-20s", r.Benchmark)
		for _, s := range seriesOrder {
			v, ok := r.Series[s]
			if !ok {
				fmt.Fprintf(&b, " %22s", "-")
				continue
			}
			paper := ""
			if pv, ok := r.Paper[s]; ok && pv > 0 {
				paper = fmt.Sprintf(" (paper %.2f)", pv)
			}
			fmt.Fprintf(&b, " %9.2f%-12s", v, paper)
		}
		b.WriteString("\n")
	}
	// Geomean row.
	fmt.Fprintf(&b, "%-20s", "GEOMEAN")
	for _, s := range seriesOrder {
		var vs []float64
		for _, r := range results {
			if v, ok := r.Series[s]; ok {
				vs = append(vs, v)
			}
		}
		fmt.Fprintf(&b, " %9.2f%-12s", Geomean(vs), "")
	}
	b.WriteString("\n")
	return b.String()
}

// FormatFig5 renders Figure 5 rows.
func FormatFig5(rows []Fig5Row) string {
	var b strings.Builder
	for _, row := range rows {
		fmt.Fprintf(&b, "%-22s [%s]\n", row.Benchmark, row.Scenario)
		keys := make([]string, 0, len(row.Overhead))
		for k := range row.Overhead {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "    %-24s %+7.1f%%\n", k, 100*row.Overhead[k])
		}
	}
	return b.String()
}

// FormatTable2 renders the comparison table.
func FormatTable2(rows []Table2Row) string {
	cols := []string{"VARAN-like (IP)", "GHUMVEE (CP)", "ReMon (gigabit)", "ReMon (5ms netem)"}
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s", "benchmark")
	for _, c := range cols {
		fmt.Fprintf(&b, " %18s", c)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s", r.Benchmark)
		for _, c := range cols {
			if v, ok := r.Overheads[c]; ok {
				fmt.Fprintf(&b, " %17.1f%%", v)
			} else {
				fmt.Fprintf(&b, " %18s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatTable1 renders Table 1 (the policy classification itself).
func FormatTable1() string {
	var b strings.Builder
	for _, row := range policy.Table1() {
		fmt.Fprintf(&b, "%s\n", row.Level)
		fmt.Fprintf(&b, "  unconditional: %s\n", strings.Join(row.Unconditional, ", "))
		if len(row.Conditional) > 0 {
			fmt.Fprintf(&b, "  conditional:   %s\n", strings.Join(row.Conditional, ", "))
		}
	}
	return b.String()
}

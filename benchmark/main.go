// Command benchmark is the repository's one benchmark: five workloads over
// the whole ReMon stack, end-to-end metrics from an untraced run, per-layer
// metrics from a separate traced run, and a harness that survives the
// hangs and crashes of the code it measures. See README.md.
//
//	go run ./benchmark --workload fastpath --seed 1 --seconds 16 --trace 0
//	go run ./benchmark -seed 1 -out r.json          # all five workloads
//	go run ./benchmark -seed 1 -trace 1             # per-layer metrics
//	go run ./benchmark -selfcheck                   # two sets of runs against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "run one workload and end with the result as one JSON line (default: all five, as a table)")
		seed      = fs.Uint64("seed", 1, "seed of every generated input")
		seconds   = fs.Float64("seconds", defaultSeconds, "how long each workload measures")
		trace     = fs.Int("trace", 0, "1: the traced run (per-layer metrics); 0: the untraced run (end-to-end metrics)")
		traceOut  = fs.String("trace-out", "", "traced run: write the spans to this file as JSON lines")
		out       = fs.String("out", "", "write all results to this file as JSON")
		selfcheck = fs.Bool("selfcheck", false, "run the untraced set twice and compare against the bounds in BENCHMARK.json")
		printSpec = fs.Bool("spec", false, "print BENCHMARK.json and exit")
		worker    = fs.Bool("worker", false, "internal: run as the worker process of one workload")
		setups    = fs.Int("setups", setupRepeats, "internal: how many times the worker sets up")
		probeDiv  = fs.Int("probe-div", 0, "internal: divide the layer probes' iteration counts (the package's smoke test)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *worker:
		return workerMain(workerArgs{
			workload: *name, seed: *seed, seconds: *seconds, trace: *trace != 0,
			traceOut: *traceOut, setups: *setups, probeDiv: *probeDiv,
		}, stdout)
	case *printSpec:
		stdout.Write(specJSON())
		return 0
	}
	sp := runSpec{seed: *seed, seconds: *seconds, trace: *trace != 0, traceOut: *traceOut}
	h := makeHeader(sp)
	fmt.Fprintf(stderr, "benchmark: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Seed, h.Seconds)
	if *selfcheck {
		return selfCheck(sp, stdout, stderr)
	}
	if *name != "" {
		return runOne(sp, *name, stdout, stderr)
	}
	return runAll(sp, h, *out, stdout, stderr)
}

// header identifies the host and the code a result came from.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func makeHeader(sp runSpec) header {
	h := header{NProc: runtime.NumCPU(), GOMAXPROCS: workerProcs, GoVersion: runtime.Version(), Commit: "unknown", Seed: sp.seed, Seconds: sp.seconds}
	// Only inside a git work tree: the driver's checkout is not one, and
	// git would otherwise search the directories above it.
	if _, err := os.Stat(".git"); err == nil {
		if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(b))
		}
	}
	return h
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func reported(defs []metricDef, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{vals[d.Name], d.Unit}
	}
	return out
}

// metricsOf picks the metric set the run's mode reports.
func metricsOf(r *runResult) ([]metricDef, map[string]float64) {
	if r.spec.trace {
		return perLayerMetrics, r.perLayer()
	}
	return endToEndMetrics, r.endToEnd()
}

// runOne is the driver's entry: one workload, and as the last line of
// standard output one JSON object with correct, attempted, failed and
// metrics.
func runOne(sp runSpec, name string, stdout, stderr io.Writer) int {
	if !knownWorkload(name) {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	sp.workload = name
	r, err := runWorkload(sp, selfLauncher, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printResult(stderr, r)
	defs, vals := metricsOf(r)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.agg.attempted, r.agg.failed(), reported(defs, vals)})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !r.correct() || r.agg.attempted == 0 {
		return 1
	}
	return 0
}

// runAll runs the five workloads in order and prints every metric by name
// with its unit.
func runAll(sp runSpec, h header, outPath string, stdout, stderr io.Writer) int {
	type entry struct {
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Kinds     map[string]int   `json:"failed_by_kind"`
		Samples   int              `json:"latency_samples"`
		Metrics   map[string]value `json:"metrics"`
		Notes     []string         `json:"notes,omitempty"`
	}
	results := map[string]entry{}
	code := 0
	for _, w := range workloads {
		s := sp
		s.workload = w.Name
		if sp.traceOut != "" {
			s.traceOut = sp.traceOut + "." + w.Name
		}
		r, err := runWorkload(s, selfLauncher, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		printResult(stdout, r)
		if !r.correct() {
			code = 1
		}
		defs, vals := metricsOf(r)
		results[w.Name] = entry{r.agg.attempted, r.agg.failed(), r.agg.kinds, len(r.agg.ok), reported(defs, vals), r.notes}
	}
	if outPath != "" {
		b, err := json.MarshalIndent(struct {
			Header    header           `json:"header"`
			Workloads map[string]entry `json:"workloads"`
		}{h, results}, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// printResult prints one workload's metrics, failures by kind and sample
// counts.
func printResult(w io.Writer, r *runResult) {
	a := r.agg
	fmt.Fprintf(w, "%s: attempted %d, failed %d", r.spec.workload, a.attempted, a.failed())
	for _, k := range failKinds {
		if a.kinds[k] > 0 {
			fmt.Fprintf(w, " (%s %d)", k, a.kinds[k])
		}
	}
	fmt.Fprintf(w, ", %d latency samples, %d worker relaunches\n", len(a.ok), r.relaunches)
	defs, vals := metricsOf(r)
	names := make([]string, 0, len(defs))
	units := map[string]string{}
	for _, d := range defs {
		names = append(names, d.Name)
		units[d.Name] = d.Unit
	}
	if r.spec.trace {
		sort.Strings(names)
	}
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, vals[n], units[n])
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

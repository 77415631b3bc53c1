// Command remon-bench regenerates the paper's evaluation (§5): every
// figure and table, printed as the same rows/series the paper reports.
//
// Usage:
//
//	remon-bench [-experiment table1|fig3|fig4|fig5|table2|all]
//	            [-iterations N] [-connections N] [-requests N]
//	            [-max-replicas N] [-quick]
//
// Absolute numbers are virtual-time measurements on the simulated
// substrate; the claim being reproduced is the *shape*. Host-time and
// per-layer numbers come from the benchmark program (go run ./benchmark).
// An unknown experiment name is a usage error (exit status 2).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"remon/internal/bench"
	"remon/internal/workload"
)

// experiment is one paper artifact: its -experiment name, its heading and
// the function that measures and renders it.
type experiment struct {
	name, title string
	run         func(o bench.Options) (string, error)
}

var experiments = []experiment{
	{"table1", "Table 1: monitor levels for spatial system call exemption", func(bench.Options) (string, error) {
		return bench.FormatTable1(), nil
	}},
	{"fig3", "Figure 3: PARSEC 2.1 + SPLASH-2x normalized execution time (2 replicas)", func(o bench.Options) (string, error) {
		res, err := bench.RunFig3(o)
		return bench.FormatFig(res, []string{"no IP-MON", "IP-MON/NONSOCKET_RW_LEVEL"}), err
	}},
	{"fig4", "Figure 4: Phoronix suite across spatial relaxation policies (2 replicas)", func(o bench.Options) (string, error) {
		res, err := bench.RunFig4(o)
		return bench.FormatFig(res, workload.Fig4LevelNames), err
	}},
	{"fig5", "Figure 5: server benchmarks, two network scenarios, 2-7 replicas", func(o bench.Options) (string, error) {
		rows, err := bench.RunFig5(o)
		return bench.FormatFig5(rows), err
	}},
	{"table2", "Table 2: comparison with other MVEE designs (2 replicas)", func(o bench.Options) (string, error) {
		rows, err := bench.RunTable2(o)
		return bench.FormatTable2(rows), err
	}},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes remon-bench with args and returns its exit status: 0 on
// success, 1 when an experiment fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
	}
	names = append(names, "all")
	valid := strings.Join(names, ", ")

	fs := flag.NewFlagSet("remon-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	which := fs.String("experiment", "all", valid)
	iterations := fs.Int("iterations", 0, "synthetic profile iterations per thread (0 = default)")
	connections := fs.Int("connections", 0, "server benchmark client connections (0 = default)")
	requests := fs.Int("requests", 0, "requests per connection (0 = default)")
	maxReplicas := fs.Int("max-replicas", 0, "Figure 5 replica sweep upper bound (0 = 7)")
	quick := fs.Bool("quick", false, "small sizes for a fast smoke run")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if !slices.Contains(names, *which) {
		fmt.Fprintf(stderr, "remon-bench: unknown experiment %q (valid: %s)\n", *which, valid)
		return 2
	}

	o := bench.Options{
		Iterations:        *iterations,
		ServerConnections: *connections,
		RequestsPerConn:   *requests,
		MaxReplicas:       *maxReplicas,
	}.Defaults()
	if *quick {
		o = bench.Quick()
	}
	for _, e := range experiments {
		if *which != "all" && *which != e.name {
			continue
		}
		fmt.Fprintf(stdout, "==== %s ====\n", e.title)
		out, err := e.run(o)
		if err != nil {
			fmt.Fprintf(stderr, "remon-bench: %s: %v\n", e.title, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", out)
	}
	return 0
}

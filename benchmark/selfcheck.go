package main

import (
	"fmt"
	"io"
)

// verdictOf compares two runs of the same code on one metric. The same
// code cannot regress against itself, so a difference beyond the bound
// means the metric cannot resolve a change of that size on this host:
// UNRESOLVED, not a pass.
func verdictOf(first, second float64, d metricDef) (diff float64, pass bool) {
	diff = worseBy(first, second, d.Better)
	if diff < 0 {
		diff = worseBy(second, first, d.Better)
	}
	return diff, diff <= d.Bound
}

// selfCheck runs the untraced set twice, the second time in reverse
// order, and holds every end-to-end metric of every workload against its
// bound (BENCHMARK.json's, which a test keeps equal to endToEndMetrics).
func selfCheck(sp runSpec, stdout, stderr io.Writer) int {
	sp.trace = false
	sets := [2]map[string]*runResult{{}, {}}
	for set := range sets {
		order := append([]workloadDef(nil), workloads...)
		if set == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			s := sp
			s.workload = w.Name
			r, err := runWorkload(s, selfLauncher, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			fmt.Fprintf(stderr, "set %d: %s done (%d attempted, %d failed)\n", set+1, w.Name, r.agg.attempted, r.agg.failed())
			sets[set][w.Name] = r
		}
	}
	code := 0
	fmt.Fprintf(stdout, "%-12s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "first", "second", "diff", "bound", "verdict")
	for _, w := range workloads {
		a, b := sets[0][w.Name], sets[1][w.Name]
		va, vb := a.endToEnd(), b.endToEnd()
		for _, d := range endToEndMetrics {
			diff, pass := verdictOf(va[d.Name], vb[d.Name], d)
			verdict := "PASS"
			if !pass {
				verdict, code = "UNRESOLVED", 1
			}
			fmt.Fprintf(stdout, "%-12s %-18s %14.4f %14.4f %8.2f%% %6.0f%%  %s\n",
				w.Name, d.Name, va[d.Name], vb[d.Name], diff*100, d.Bound*100, verdict)
		}
		for _, r := range []*runResult{a, b} {
			if !r.correct() {
				fmt.Fprintf(stdout, "%-12s an output check failed\n", w.Name)
				code = 1
			}
		}
		fmt.Fprintf(stdout, "%-12s %-18s %14d %14d\n", w.Name, "failed", a.agg.failed(), b.agg.failed())
	}
	return code
}

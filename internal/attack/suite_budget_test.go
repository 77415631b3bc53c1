package attack

import (
	"strings"
	"testing"

	"remon/internal/attack/gen"
	"remon/internal/policy"
)

// DetailStable must hold for every suite scenario and every generated
// trace except the run-ahead family, whose Detail reports the
// host-scheduling-dependent run-ahead depth (how many unmonitored calls
// the master got in before the checker caught up varies with goroutine
// scheduling, so golden comparisons pin its verdict but not its detail).
func TestDetailStableTable(t *testing.T) {
	stable := []string{
		"divergent write (monitored)",
		"divergent write (unmonitored)",
		"divergent syscall sequence",
		"token forgery",
		"stale token replay",
		"shared-memory channel",
		"RB disclosure via /proc/maps",
		"RB pointer leak scan",
		"RB guessing entropy",
		"baseline contrast (VARAN-like)",
		"disjoint code layouts",
		"fleet shard compromise",
	}
	for _, tr := range gen.Traces(gen.Params{}) {
		stable = append(stable, tr.Name)
	}
	for _, name := range stable {
		if !DetailStable(name) {
			t.Errorf("DetailStable(%q) = false, want true", name)
		}
	}
	unstable := []string{
		"master run-ahead window",
		"master run-ahead window (rb=256KiB)",
		"master run-ahead window (rb=1024KiB)",
	}
	for _, name := range unstable {
		if DetailStable(name) {
			t.Errorf("DetailStable(%q) = true, want false", name)
		}
	}
}

// The budgeted suite entry point: the full budget folds the RB-size
// run-ahead sweep and the entropy sampling into a lagged cell, and every
// outcome is a defeat.
func TestRunSuiteAtBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full-budget suite skipped in -short")
	}
	out := RunSuiteAtBudget(policy.SocketRWLevel, 8, FullBudget())
	names := map[string]bool{}
	for _, o := range out {
		names[o.Name] = true
		if !o.Detected {
			t.Errorf("attack survived: %s", o)
		}
	}
	for _, want := range []string{
		"master run-ahead window (rb=256KiB)",
		"master run-ahead window (rb=1024KiB)",
		"RB guessing entropy",
	} {
		if !names[want] {
			t.Errorf("budgeted scenario %q missing from suite", want)
		}
	}
	// The unbudgeted entry point keeps the historical single-window name
	// (golden matrices depend on it) and omits the entropy scan.
	lean := RunSuiteAt(policy.SocketRWLevel, 0)
	leanNames := map[string]bool{}
	for _, o := range lean {
		leanNames[o.Name] = true
	}
	if !leanNames["master run-ahead window"] {
		t.Error("unbudgeted suite lost the historical run-ahead scenario name")
	}
	for n := range leanNames {
		if strings.Contains(n, "rb=") || n == "RB guessing entropy" {
			t.Errorf("unbudgeted suite unexpectedly includes %q", n)
		}
	}
}

package attack

import (
	"fmt"
	"testing"

	"remon/internal/policy"
)

// compareCells checks one golden-matrix cell against its reference cell:
// every scenario DEFEATED, the same scenario order, and bit-identical
// verdict detail — except the run-ahead scenario, whose detail reports a
// host-timing-dependent depth (DetailStable).
func compareCells(t *testing.T, label string, ref, got []Outcome) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: suite sizes differ: %d vs %d", label, len(got), len(ref))
	}
	for i := range got {
		re, o := ref[i], got[i]
		if re.Name != o.Name {
			t.Fatalf("%s: scenario order drift: %q vs %q", label, re.Name, o.Name)
		}
		if !o.Detected {
			t.Errorf("%s: %s", label, o)
		}
		if DetailStable(o.Name) && o.Detail != re.Detail {
			t.Errorf("%s %q: verdict detail differs from the lockstep reference:\n  ref: %s\n  got: %s",
				label, o.Name, re.Detail, o.Detail)
		}
	}
}

// TestGoldenVerdictMatrix runs the single-instance attack suite at every
// relaxation level × MaxLag {0, 64} and snapshot-compares the verdicts:
//
//   - every scenario must be DEFEATED in every cell — the relaxation
//     spectrum moves detection between monitors (GHUMVEE lockstep vs the
//     slave's in-process RB comparison) but never loses it;
//   - for a fixed level, the verdict detail strings must be
//     bit-identical between lockstep publication and the widest lag
//     window.
//
// Level-dependent detail drift (beyond the detector attribution the
// scenarios explicitly model) would show up here as a DEFEATED/SURVIVED
// flip.
func TestGoldenVerdictMatrix(t *testing.T) {
	levels := policy.Levels()[1:]
	if testing.Short() {
		levels = []policy.Level{policy.BaseLevel, policy.SocketRWLevel}
	}
	for _, lv := range levels {
		ref := RunSuiteAt(lv, 0)
		for i := range ref {
			if !ref[i].Detected {
				t.Errorf("%v lag=0: %s", lv, ref[i])
			}
		}
		compareCells(t, fmt.Sprintf("%v lag=64", lv), ref, RunSuiteAt(lv, 64))
	}
}

// TestGoldenVerdictMatrixPipeline sweeps the master-ahead lag window
// MaxLag ∈ {0, 8, 64} at the suite's standard SOCKET_RW level. Every
// scenario must stay DEFEATED in every cell, and the stable verdict
// detail strings must be bit-identical to the MaxLag=0 lockstep
// reference — the pipeline moves publication and detection timing,
// never verdicts.
func TestGoldenVerdictMatrixPipeline(t *testing.T) {
	lags := []int{0, 8, 64}
	if testing.Short() {
		lags = []int{0, 64}
	}
	ref := RunSuiteAt(policy.SocketRWLevel, 0)
	for i := range ref {
		if !ref[i].Detected {
			t.Errorf("lag=0: %s", ref[i])
		}
	}
	for _, lag := range lags[1:] {
		compareCells(t, fmt.Sprintf("lag=%d", lag), ref, RunSuiteAt(policy.SocketRWLevel, lag))
	}
}

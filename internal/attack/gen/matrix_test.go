package gen

import (
	"testing"

	"remon/internal/mem"
	"remon/internal/policy"
)

func TestGridShape(t *testing.T) {
	if got := len(Grid()); got != 60 {
		t.Errorf("full grid has %d cells, want 60", got)
	}
	if got := len(SmallGrid()); got != 12 {
		t.Errorf("small grid has %d cells, want 12", got)
	}
}

// acceptanceCells picks the grid for the environment: the full 120-cell
// grid for tier-1 runs, the 12-cell smoke slice under -short and under
// the race detector (where the full grid is a multi-minute run and the
// job is interleaving coverage, not grid coverage).
func acceptanceCells(t *testing.T) []Cell {
	if testing.Short() || raceEnabled {
		return SmallGrid()
	}
	return Grid()
}

// TestAttackGenMatrix is the tentpole acceptance bar: every generated
// trace must end DEFEATED in every grid cell, and within each (trace,
// level) group the verdict detail must be bit-identical across every
// epoch, lag and shard setting — deployment tuning may change *cost*,
// never the verdict or its evidence.
func TestAttackGenMatrix(t *testing.T) {
	traces := Traces(Params{})
	cells := acceptanceCells(t)
	results := RunMatrix(traces, cells)
	if len(results) != len(traces)*len(cells) {
		t.Fatalf("got %d results, want %d", len(results), len(traces)*len(cells))
	}

	type group struct {
		level  policy.Level
		trace  string
		detail string
		cell   Cell
	}
	canon := map[[2]string]*group{}
	failed := 0
	for i := range results {
		r := &results[i]
		if !r.Defeated {
			failed++
			if failed <= 10 {
				t.Errorf("SURVIVED %s @ %s: %s", r.Trace, r.Cell, r.Detail)
			}
			continue
		}
		key := [2]string{r.Trace, r.Cell.Level.String()}
		if g, ok := canon[key]; ok {
			if r.Detail != g.detail {
				t.Errorf("%s @ level %s: detail drifts across cells:\n  %s: %q\n  %s: %q",
					r.Trace, r.Cell.Level, g.cell, g.detail, r.Cell, r.Detail)
			}
		} else {
			canon[key] = &group{level: r.Cell.Level, trace: r.Trace, detail: r.Detail, cell: r.Cell}
		}
	}
	if failed > 10 {
		t.Errorf("... and %d more surviving cells", failed-10)
	}
}

// Attribution sanity on a known cell: at SOCKET_RW a socket-target
// overflow must be caught in-process (the send is relaxed), while at
// BASE the same trace must be caught by the lockstep monitor.
func TestAttackGenAttribution(t *testing.T) {
	var sockTrace *Trace
	for _, tr := range Traces(Params{}) {
		if tr.Class == OverflowSyscallArgs && tr.TamperClass == policy.FDSock {
			sockTrace = tr
			break
		}
	}
	if sockTrace == nil {
		t.Fatal("no socket-target overflow trace in corpus")
	}
	relaxed := RunCell(sockTrace, Cell{Level: policy.SocketRWLevel, Epoch: 1, Shards: 1})
	if !relaxed.Defeated || !relaxed.IPMonCaught {
		t.Errorf("SOCKET_RW: want in-process catch, got defeated=%v ipmon=%v (%s)",
			relaxed.Defeated, relaxed.IPMonCaught, relaxed.Detail)
	}
	strict := RunCell(sockTrace, Cell{Level: policy.BaseLevel, Epoch: 1, Shards: 1})
	if !strict.Defeated || strict.IPMonCaught {
		t.Errorf("BASE: want lockstep catch, got defeated=%v ipmon=%v (%s)",
			strict.Defeated, strict.IPMonCaught, strict.Detail)
	}
}

// The fleet-path leg: each class's generated exfiltration payload is
// spliced over a live served response by a compromised shard master; the
// shard must be quarantined and recovered with a divergence verdict.
func TestAttackGenFleetPath(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet path skipped in -short")
	}
	traces := Traces(Params{})
	for _, class := range Classes() {
		for _, tr := range traces {
			if tr.Class != class || tr.Variant != 0 {
				continue
			}
			res := RunFleetClass(tr, 4, policy.SocketRWLevel)
			if !res.Defeated {
				t.Errorf("fleet path SURVIVED for %s: %s", tr.Name, res.Detail)
			}
			break
		}
	}
}

// Every instance RunMatrix boots must return its RB segment to the mem
// arena: an unclosed MVEE allocates a fresh segment per cell, which is
// how the full grid once outgrew a 7 GiB host.
func TestRunMatrixReleasesEverySegment(t *testing.T) {
	before := mem.ArenaSnapshot()
	RunMatrix(Traces(Params{}), SmallGrid())
	after := mem.ArenaSnapshot()
	acquired := (after.Hits - before.Hits) + (after.Misses - before.Misses)
	released := after.Releases - before.Releases
	if acquired == 0 || acquired != released {
		t.Fatalf("arena: %d segments acquired, %d released", acquired, released)
	}
}

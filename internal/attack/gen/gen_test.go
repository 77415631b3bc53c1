package gen

import (
	"reflect"
	"testing"

	"remon/internal/core"
	"remon/internal/policy"
	"remon/internal/workload"
)

// The corpus must be byte-identical run to run for a fixed seed: the
// golden matrix, the fuzz seeds and the bench snapshot all assume
// Traces(p) is a pure function of p.
func TestCorpusDeterministic(t *testing.T) {
	a := Traces(Params{})
	b := Traces(Params{})
	if len(a) != len(b) {
		t.Fatalf("corpus sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("trace %d (%s) differs between runs", i, a[i].Name)
		}
	}
	// A different seed must actually move the template parameters.
	c := Traces(Params{Seed: 0xDEADBEEF})
	same := 0
	for i := range a {
		if a[i].Name == c[i].Name {
			same++
		}
	}
	if same == len(a) {
		t.Error("changing the seed changed no trace parameters")
	}
}

// Shape: the acceptance bar demands >= 6 classes x >= 4 variants, each a
// well-formed trace — unique name, tamper point in range, and either a
// tamper substitution or a token probe (never both, never neither).
func TestCorpusShape(t *testing.T) {
	traces := Traces(Params{})
	if len(Classes()) < 6 {
		t.Fatalf("only %d classes", len(Classes()))
	}
	perClass := map[Class]int{}
	names := map[string]bool{}
	for _, tr := range traces {
		perClass[tr.Class]++
		if names[tr.Name] {
			t.Errorf("duplicate trace name %q", tr.Name)
		}
		names[tr.Name] = true
		if tr.TamperIndex < 0 || tr.TamperIndex >= len(tr.Ops) {
			t.Errorf("%s: tamper index %d out of range [0,%d)", tr.Name, tr.TamperIndex, len(tr.Ops))
			continue
		}
		op := tr.Ops[tr.TamperIndex]
		if tr.Probe != nil {
			if op.Kind != workload.TraceProbe || op.Tamper != nil {
				t.Errorf("%s: probe trace has malformed injection op", tr.Name)
			}
			if tr.Probe.Token == 0 {
				t.Errorf("%s: zero guessed token", tr.Name)
			}
			if tr.WantDiverged() {
				t.Errorf("%s: probe trace must not expect divergence", tr.Name)
			}
		} else {
			if op.Tamper == nil {
				t.Errorf("%s: no tamper at injection point", tr.Name)
			}
			if len(tr.TamperPayload) == 0 {
				t.Errorf("%s: empty tamper payload", tr.Name)
			}
			if !tr.WantDiverged() {
				t.Errorf("%s: divergence trace must expect divergence", tr.Name)
			}
		}
	}
	for _, class := range Classes() {
		if perClass[class] < 4 {
			t.Errorf("class %s has %d variants, want >= 4", class, perClass[class])
		}
	}
}

// Stripped of their tampers (and probes), generated traces must replay
// as healthy workloads: the benign half of every template is well-formed,
// so any divergence in the matrix is attributable to the tamper alone.
func TestCorpusHealthyWithoutTamper(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus replay skipped in -short")
	}
	for _, tr := range Traces(Params{}) {
		ops := make([]workload.TraceOp, len(tr.Ops))
		copy(ops, tr.Ops)
		for i := range ops {
			ops[i].Tamper = nil
			ops[i].Probe = nil
		}
		rep, err := core.RunProgram(core.Config{
			Mode: core.ModeReMon, Replicas: 2, Policy: policy.SocketRWLevel,
			Partitions: 8, Seed: instanceSeed(0),
		}, workload.TraceProgram(ops, nil))
		if err != nil {
			t.Fatalf("%s: %v", tr.Name, err)
		}
		if rep.Verdict.Diverged {
			t.Errorf("%s: benign replay diverged: %s", tr.Name, rep.Verdict.Reason)
		}
	}
}

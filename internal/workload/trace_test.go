package workload

import (
	"testing"

	"remon/internal/core"
	"remon/internal/policy"
)

func traceCfg(level policy.Level) core.Config {
	return core.Config{
		Mode: core.ModeReMon, Replicas: 2, Policy: level,
		Partitions: 8, Seed: 7,
	}
}

// A tamper-free trace must replay as a healthy workload: identical op
// counts on every replica and no divergence verdict — the baseline the
// attack generator's defeat results are measured against.
func TestTraceProgramHealthyReplay(t *testing.T) {
	ops := []TraceOp{
		{Kind: TraceOpen, Path: "/tmp/trace-healthy.dat"},
		{Kind: TraceWrite, Slot: 0, Data: []byte("hello trace replay")},
		{Kind: TracePipe},
		{Kind: TraceWrite, Slot: 2, Data: []byte("pipe bytes")},
		{Kind: TracePread, Slot: 0, Len: 8},
		{Kind: TraceStat, Path: "/tmp/trace-healthy.dat"},
		{Kind: TraceAccess, Path: "/tmp/trace-healthy.dat"},
		{Kind: TraceLseek, Slot: 0, Off: 4},
		{Kind: TraceFsync, Slot: 0},
		{Kind: TraceGetpid},
		{Kind: TraceTime},
		{Kind: TraceClose, Slot: 0},
	}
	counts := &TraceCounts{}
	rep, err := core.RunProgram(traceCfg(policy.SocketRWLevel), TraceProgram(ops, counts))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict.Diverged {
		t.Fatalf("healthy trace diverged: %s", rep.Verdict.Reason)
	}
	for r := 0; r < 2; r++ {
		if got := counts.Executed(r); got != int64(len(ops)) {
			t.Errorf("replica %d executed %d ops, want %d", r, got, len(ops))
		}
	}
}

// The tamper must apply to replica 0 only — and therefore must diverge
// the replicas.
func TestTraceTamperDiverges(t *testing.T) {
	tam := NoTamper()
	tam.Data = []byte("EXFILTRATED-BYTES!")
	ops := []TraceOp{
		{Kind: TraceOpen, Path: "/tmp/trace-tamper.dat"},
		{Kind: TraceWrite, Slot: 0, Data: []byte("benign payload byte"), Tamper: &tam},
	}
	rep, err := core.RunProgram(traceCfg(policy.NonsocketRWLevel), TraceProgram(ops, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verdict.Diverged {
		t.Fatal("tampered trace did not diverge")
	}
}

// Socket traces provision their own sink: connect, pre-pumped recvs and
// sends must complete without external plumbing.
func TestTraceSocketSink(t *testing.T) {
	ops := []TraceOp{
		{Kind: TraceSocket},
		{Kind: TraceSend, Slot: 0, Data: []byte("request-0")},
		{Kind: TraceRecv, Slot: 0, Len: 16},
		{Kind: TraceSend, Slot: 0, Data: []byte("request-1")},
	}
	counts := &TraceCounts{}
	rep, err := core.RunProgram(traceCfg(policy.SocketRWLevel), TraceProgram(ops, counts))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict.Diverged {
		t.Fatalf("socket trace diverged: %s", rep.Verdict.Reason)
	}
	if got := counts.Executed(0); got != int64(len(ops)) {
		t.Errorf("master executed %d ops, want %d", got, len(ops))
	}
}

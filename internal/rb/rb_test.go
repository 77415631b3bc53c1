package rb

import (
	"errors"
	"sync"
	"testing"
	"time"

	"remon/internal/mem"
	"remon/internal/vkernel"
)

// rbEnv is a two-replica harness: a kernel, two processes with the RB
// segment mapped at different addresses, and a thread in each.
type rbEnv struct {
	k             *vkernel.Kernel
	master, slave *vkernel.Thread
	buf           *Buffer
	mBase, sBase  mem.Addr
}

// testArbiter spins until the partition drains, then resets it.
type testArbiter struct{ resets int }

func (a *testArbiter) ResetPartition(b *Buffer, part int) {
	for !b.Drained(part) {
		time.Sleep(50 * time.Microsecond)
	}
	b.DoReset(part)
	a.resets++
}

func newRBEnv(t *testing.T, segSize uint64, parts int, arb Arbiter) *rbEnv {
	t.Helper()
	k := vkernel.New(nil)
	mp := k.NewProcess("master", 1, 0)
	sp := k.NewProcess("slave", 2, 1)
	mt := mp.NewThread(nil)
	st := sp.NewThread(nil)

	shmID := mt.RawSyscall(vkernel.SysShmget, 0, segSize, 0)
	if !shmID.Ok() {
		t.Fatalf("shmget: %v", shmID.Errno)
	}
	seg := k.ShmSegment(int(shmID.Val))
	mr := mt.RawSyscall(vkernel.SysShmat, shmID.Val, 0, 0)
	sr := st.RawSyscall(vkernel.SysShmat, shmID.Val, 0, 0)
	if !mr.Ok() || !sr.Ok() {
		t.Fatalf("shmat: %v / %v", mr.Errno, sr.Errno)
	}
	if arb == nil {
		arb = &testArbiter{}
	}
	buf, err := New(seg, 2, parts, arb)
	if err != nil {
		t.Fatal(err)
	}
	return &rbEnv{k: k, master: mt, slave: st, buf: buf,
		mBase: mem.Addr(mr.Val), sBase: mem.Addr(sr.Val)}
}

func TestReserveCompleteConsume(t *testing.T) {
	e := newRBEnv(t, 1<<20, 1, nil)
	w := e.buf.NewWriter(0, e.mBase)
	r := e.buf.NewReader(0, 1, e.sBase)

	call := &vkernel.Call{Num: vkernel.SysRead, Args: [6]uint64{3, 0x1000, 64}}
	res, err := w.Reserve(e.master, call, FlagMasterCall, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	res.Complete(e.master, 11, 0, []byte("hello world"))

	ev, err := r.Next(e.slave)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Nr != vkernel.SysRead || ev.Args[0] != 3 || ev.Args[2] != 64 {
		t.Fatalf("entry = %+v", ev)
	}
	ret, errno, out := ev.WaitResults(e.slave)
	if ret != 11 || errno != 0 || string(out) != "hello world" {
		t.Fatalf("results = %d %v %q", ret, errno, out)
	}
	ev.Consume()
	if e.buf.ConsumedBy(0, 1) != 1 {
		t.Fatal("consumed counter not published")
	}
}

func TestInPayloadComparison(t *testing.T) {
	e := newRBEnv(t, 1<<20, 1, nil)
	w := e.buf.NewWriter(0, e.mBase)
	r := e.buf.NewReader(0, 1, e.sBase)

	call := &vkernel.Call{Num: vkernel.SysWrite, Args: [6]uint64{1, 0x2000, 5}}
	res, err := w.Reserve(e.master, call, FlagMasterCall, []byte("out-5"), 0)
	if err != nil {
		t.Fatal(err)
	}
	res.Complete(e.master, 5, 0, nil)

	ev, err := r.Next(e.slave)
	if err != nil {
		t.Fatal(err)
	}
	// Matching slave call (different buffer address is fine — addresses
	// are diversified; only contents are compared).
	sc := &vkernel.Call{Num: vkernel.SysWrite, Args: [6]uint64{1, 0x9999000, 5}}
	if err := ev.CompareCall(e.slave, sc, 0b101, []byte("out-5")); err != nil {
		t.Fatalf("matching call flagged divergent: %v", err)
	}
	// Divergent payload.
	if err := ev.CompareCall(e.slave, sc, 0b101, []byte("EVIL!")); !errors.Is(err, ErrDiverged) {
		t.Fatalf("divergent payload = %v, want ErrDiverged", err)
	}
	// Divergent register.
	bad := &vkernel.Call{Num: vkernel.SysWrite, Args: [6]uint64{2, 0x9999000, 5}}
	if err := ev.CompareCall(e.slave, bad, 0b101, nil); !errors.Is(err, ErrDiverged) {
		t.Fatalf("divergent reg = %v, want ErrDiverged", err)
	}
	// Divergent syscall number.
	wrongNr := &vkernel.Call{Num: vkernel.SysRead, Args: sc.Args}
	if err := ev.CompareCall(e.slave, wrongNr, 0, nil); !errors.Is(err, ErrDiverged) {
		t.Fatalf("divergent nr = %v, want ErrDiverged", err)
	}
}

func TestSlaveBlocksUntilPublish(t *testing.T) {
	e := newRBEnv(t, 1<<20, 1, nil)
	w := e.buf.NewWriter(0, e.mBase)
	r := e.buf.NewReader(0, 1, e.sBase)

	got := make(chan uint64, 1)
	go func() {
		ev, err := r.Next(e.slave)
		if err != nil {
			t.Errorf("Next: %v", err)
			got <- 0
			return
		}
		ret, _, _ := ev.WaitResults(e.slave)
		ev.Consume()
		got <- ret
	}()

	// Give the slave time to park.
	time.Sleep(2 * time.Millisecond)
	call := &vkernel.Call{Num: vkernel.SysGetpid}
	e.master.Clock.Advance(777777)
	res, err := w.Reserve(e.master, call, FlagBlocking|FlagMasterCall, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	res.Complete(e.master, 42, 0, nil)
	if v := <-got; v != 42 {
		t.Fatalf("slave result = %d", v)
	}
	// Virtual-time handoff: the slave synced to the master's publish time.
	if e.slave.Clock.Now() < 777777 {
		t.Fatalf("slave clock %v did not sync to master publish", e.slave.Clock.Now())
	}
}

func TestTooBig(t *testing.T) {
	e := newRBEnv(t, 64*1024, 1, nil)
	w := e.buf.NewWriter(0, e.mBase)
	call := &vkernel.Call{Num: vkernel.SysWrite}
	if _, err := w.Reserve(e.master, call, 0, make([]byte, 1<<20), 0); !errors.Is(err, ErrTooBig) {
		t.Fatalf("oversized reserve = %v, want ErrTooBig", err)
	}
}

func TestOverflowResetRoundTrip(t *testing.T) {
	arb := &testArbiter{}
	e := newRBEnv(t, 8*1024, 1, arb) // small buffer: forces resets
	w := e.buf.NewWriter(0, e.mBase)
	r := e.buf.NewReader(0, 1, e.sBase)

	const total = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			ev, err := r.Next(e.slave)
			if err != nil {
				t.Errorf("slave Next %d: %v", i, err)
				return
			}
			ret, _, out := ev.WaitResults(e.slave)
			if int(ret) != i || len(out) != 100 {
				t.Errorf("entry %d: ret=%d len=%d", i, ret, len(out))
				return
			}
			ev.Consume()
		}
	}()

	payload := make([]byte, 100)
	for i := 0; i < total; i++ {
		call := &vkernel.Call{Num: vkernel.SysRead, Args: [6]uint64{uint64(i)}}
		res, err := w.Reserve(e.master, call, FlagMasterCall, nil, 100)
		if err != nil {
			t.Fatalf("Reserve %d: %v", i, err)
		}
		res.Complete(e.master, uint64(i), 0, payload)
	}
	wg.Wait()
	if arb.resets == 0 {
		t.Fatal("expected at least one arbiter reset with an 8 KiB buffer")
	}
}

// seqArbiter resets a drained partition and remembers the published
// sequence it saw just before each reset.
type seqArbiter struct{ before []uint32 }

func (a *seqArbiter) ResetPartition(b *Buffer, part int) {
	if !b.Drained(part) {
		panic("seqArbiter: reset of an undrained partition")
	}
	a.before = append(a.before, b.WrittenSeq(part))
	b.DoReset(part)
}

// TestResetNeverRepeatsWrittenSeq pins the lost wake-up fix for the
// linear protocol: a slave parks with FUTEX_WAIT on the writtenSeq value
// it last saw, so if a reset rewound the word and the master refilled
// the partition to the same count, that compare would pass and the
// slave would sleep through the overflow that follows. Sequence numbers
// are cumulative; a reset rewinds only the write offset.
func TestResetNeverRepeatsWrittenSeq(t *testing.T) {
	arb := &seqArbiter{}
	e := newRBEnv(t, 8*1024, 1, arb)
	w := e.buf.NewWriter(0, e.mBase)
	r := e.buf.NewReader(0, 1, e.sBase)

	payload := make([]byte, 100)
	refill := 0
	for i := 0; len(arb.before) == 0 || refill < int(arb.before[0]); i++ {
		call := &vkernel.Call{Num: vkernel.SysRead, Args: [6]uint64{uint64(i)}}
		res, err := w.Reserve(e.master, call, FlagMasterCall, nil, 100)
		if err != nil {
			t.Fatalf("Reserve %d: %v", i, err)
		}
		res.Complete(e.master, uint64(i), 0, payload)
		if len(arb.before) > 0 {
			refill++
		}
		ev, err := r.Next(e.slave)
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if ret, _, _ := ev.WaitResults(e.slave); int(ret) != i {
			t.Fatalf("entry %d: ret=%d", i, ret)
		}
		ev.Consume()
	}
	if len(arb.before) != 1 {
		t.Fatalf("%d resets, want exactly 1", len(arb.before))
	}
	if ws := e.buf.WrittenSeq(0); ws == arb.before[0] {
		t.Fatalf("writtenSeq %d after a reset and a refill to the same count repeats its pre-reset value", ws)
	}
}

func TestPartitionsIndependent(t *testing.T) {
	e := newRBEnv(t, 1<<20, 4, nil)
	w0 := e.buf.NewWriter(0, e.mBase)
	w3 := e.buf.NewWriter(3, e.mBase)
	r0 := e.buf.NewReader(0, 1, e.sBase)
	r3 := e.buf.NewReader(3, 1, e.sBase)

	c0 := &vkernel.Call{Num: vkernel.SysGetpid}
	c3 := &vkernel.Call{Num: vkernel.SysGettid}
	res3, err := w3.Reserve(e.master, c3, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	res3.Complete(e.master, 33, 0, nil)
	res0, err := w0.Reserve(e.master, c0, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	res0.Complete(e.master, 11, 0, nil)

	ev3, err := r3.Next(e.slave)
	if err != nil {
		t.Fatal(err)
	}
	if ev3.Nr != vkernel.SysGettid {
		t.Fatal("partition 3 entry wrong")
	}
	ev0, err := r0.Next(e.slave)
	if err != nil {
		t.Fatal(err)
	}
	if ev0.Nr != vkernel.SysGetpid {
		t.Fatal("partition 0 entry wrong")
	}
}

func TestSignalsPendingFlag(t *testing.T) {
	e := newRBEnv(t, 1<<20, 1, nil)
	if e.buf.SignalsPending() {
		t.Fatal("flag set initially")
	}
	e.buf.SetSignalsPending(true)
	if !e.buf.SignalsPending() {
		t.Fatal("flag not visible")
	}
	e.buf.SetSignalsPending(false)
	if e.buf.SignalsPending() {
		t.Fatal("flag not cleared")
	}
}

func TestMultipleEntriesSequential(t *testing.T) {
	e := newRBEnv(t, 1<<20, 1, nil)
	w := e.buf.NewWriter(0, e.mBase)
	r := e.buf.NewReader(0, 1, e.sBase)
	for i := 0; i < 50; i++ {
		c := &vkernel.Call{Num: vkernel.SysRead, Args: [6]uint64{uint64(i), 0, 8}}
		res, err := w.Reserve(e.master, c, 0, []byte{byte(i)}, 8)
		if err != nil {
			t.Fatal(err)
		}
		res.Complete(e.master, uint64(i), 0, []byte{byte(i), byte(i)})
	}
	for i := 0; i < 50; i++ {
		ev, err := r.Next(e.slave)
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if ev.Args[0] != uint64(i) {
			t.Fatalf("entry %d out of order: %d", i, ev.Args[0])
		}
		in := ev.InPayload()
		if len(in) != 1 || in[0] != byte(i) {
			t.Fatalf("entry %d payload %v", i, in)
		}
		ret, _, out := ev.WaitResults(e.slave)
		if int(ret) != i || len(out) != 2 {
			t.Fatalf("entry %d results %d %v", i, ret, out)
		}
		ev.Consume()
	}
}

func TestErrnoReplication(t *testing.T) {
	e := newRBEnv(t, 1<<20, 1, nil)
	w := e.buf.NewWriter(0, e.mBase)
	r := e.buf.NewReader(0, 1, e.sBase)
	c := &vkernel.Call{Num: vkernel.SysRead, Args: [6]uint64{99, 0, 8}}
	res, _ := w.Reserve(e.master, c, 0, nil, 8)
	res.Complete(e.master, 0, vkernel.EBADF, nil)
	ev, _ := r.Next(e.slave)
	_, errno, _ := ev.WaitResults(e.slave)
	if errno != vkernel.EBADF {
		t.Fatalf("replicated errno = %v", errno)
	}
}

func TestNewValidation(t *testing.T) {
	seg := mem.NewSharedSegment(1, 4096)
	if _, err := New(seg, 0, 1, nil); err == nil {
		t.Fatal("accepted zero replicas")
	}
	if _, err := New(seg, 2, 0, nil); err == nil {
		t.Fatal("accepted zero partitions")
	}
	if _, err := New(seg, 2, 1000, nil); err == nil {
		t.Fatal("accepted partitions too small")
	}
}

func TestDrained(t *testing.T) {
	e := newRBEnv(t, 1<<20, 1, nil)
	w := e.buf.NewWriter(0, e.mBase)
	if !e.buf.Drained(0) {
		t.Fatal("empty buffer not drained")
	}
	res, _ := w.Reserve(e.master, &vkernel.Call{Num: vkernel.SysGetpid}, 0, nil, 0)
	res.Complete(e.master, 1, 0, nil)
	if e.buf.Drained(0) {
		t.Fatal("unconsumed entry reported drained")
	}
	r := e.buf.NewReader(0, 1, e.sBase)
	ev, _ := r.Next(e.slave)
	ev.WaitResults(e.slave)
	ev.Consume()
	if !e.buf.Drained(0) {
		t.Fatal("fully consumed buffer not drained")
	}
}

// TestPolicyVerRoundTrip: the policy snapshot version stamped by the
// writer travels with each entry and updates per entry — the transport
// the IP-MON stream-pinning protocol rides on.
func TestPolicyVerRoundTrip(t *testing.T) {
	e := newRBEnv(t, 1<<20, 1, nil)
	w := e.buf.NewWriter(0, e.mBase)
	r := e.buf.NewReader(0, 1, e.sBase)

	c := &vkernel.Call{Num: vkernel.SysGetpid}
	// Default stamp is 0 (no engine attached).
	res, err := w.Reserve(e.master, c, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	res.Complete(e.master, 1, 0, nil)
	w.SetPolicyVer(7)
	res, err = w.Reserve(e.master, c, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	res.Complete(e.master, 2, 0, nil)
	// The stamp is sticky until changed.
	res, err = w.Reserve(e.master, c, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	res.Complete(e.master, 3, 0, nil)

	for i, want := range []uint32{0, 7, 7} {
		ev, err := r.Next(e.slave)
		if err != nil {
			t.Fatal(err)
		}
		if ev.PolicyVer != want {
			t.Fatalf("entry %d: PolicyVer = %d, want %d", i, ev.PolicyVer, want)
		}
		ev.WaitResults(e.slave)
		ev.Consume()
	}
}

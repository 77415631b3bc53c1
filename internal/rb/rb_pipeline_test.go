package rb

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"remon/internal/mem"
	"remon/internal/vkernel"
)

// pipeEnv is an n-replica harness over a buffer with a lag window.
type pipeEnv struct {
	k       *vkernel.Kernel
	threads []*vkernel.Thread // [0] = master
	bases   []mem.Addr
	buf     *Buffer
}

func newPipeEnv(t *testing.T, segSize uint64, parts, replicas, maxLag int) *pipeEnv {
	t.Helper()
	k := vkernel.New(nil)
	e := &pipeEnv{k: k}
	var seg *mem.SharedSegment
	for i := 0; i < replicas; i++ {
		p := k.NewProcess(fmt.Sprintf("replica-%d", i), uint64(i+1), i)
		th := p.NewThread(nil)
		e.threads = append(e.threads, th)
		if i == 0 {
			r := th.RawSyscall(vkernel.SysShmget, 0, segSize, 0)
			if !r.Ok() {
				t.Fatalf("shmget: %v", r.Errno)
			}
			seg = k.ShmSegment(int(r.Val))
		}
		at := th.RawSyscall(vkernel.SysShmat, uint64(seg.ID), 0, 0)
		if !at.Ok() {
			t.Fatalf("shmat replica %d: %v", i, at.Errno)
		}
		e.bases = append(e.bases, mem.Addr(at.Val))
	}
	buf, err := New(seg, replicas, parts, &testArbiter{})
	if err != nil {
		t.Fatal(err)
	}
	buf.SetMaxLag(maxLag)
	e.buf = buf
	return e
}

// reserveBatched stages one completed batched entry carrying i in arg0
// and a payload derived from it.
func reserveBatched(t *testing.T, w *Writer, th *vkernel.Thread, i int) {
	t.Helper()
	call := &vkernel.Call{Num: vkernel.SysGetpid, Args: [6]uint64{uint64(i)}}
	res, err := w.Reserve(th, call, FlagBatched|FlagMasterCall, nil, 16)
	if err != nil {
		t.Fatalf("entry %d: %v", i, err)
	}
	res.Complete(th, uint64(1000+i), 0, []byte(fmt.Sprintf("res-%04d", i)))
}

// drainOne consumes the next entry and checks its identity.
func drainOne(t *testing.T, r *Reader, th *vkernel.Thread, i int) {
	t.Helper()
	ev, err := r.Next(th)
	if err != nil {
		t.Fatalf("entry %d: %v", i, err)
	}
	if ev.Args[0] != uint64(i) {
		t.Fatalf("entry %d: arg0 = %d", i, ev.Args[0])
	}
	ret, errno, out := ev.WaitResults(th)
	if errno != 0 || ret != uint64(1000+i) {
		t.Fatalf("entry %d: ret=%d errno=%v", i, ret, errno)
	}
	if want := fmt.Sprintf("res-%04d", i); string(out) != want {
		t.Fatalf("entry %d: out=%q want %q", i, out, want)
	}
	ev.Consume()
}

// TestPipelineGroupCommit: batched entries stay unpublished until the
// group-commit size is reached or an explicit flush, and one
// writtenSeq release-store publishes the whole run.
func TestPipelineGroupCommit(t *testing.T) {
	e := newPipeEnv(t, 1<<20, 1, 2, 16) // K = DefaultGroupCommit = 8
	w := e.buf.NewWriter(0, e.bases[0])
	r := e.buf.NewReader(0, 1, e.bases[1])

	for i := 0; i < 3; i++ {
		reserveBatched(t, w, e.threads[0], i)
	}
	if ws := e.buf.WrittenSeq(0); ws != 0 {
		t.Fatalf("staged entries published early: writtenSeq=%d", ws)
	}
	w.Flush(e.threads[0])
	if ws := e.buf.WrittenSeq(0); ws != 3 {
		t.Fatalf("flush published %d, want 3", ws)
	}
	// Filling a full group commits automatically.
	for i := 3; i < 11; i++ {
		reserveBatched(t, w, e.threads[0], i)
	}
	if ws := e.buf.WrittenSeq(0); ws != 11 {
		t.Fatalf("group commit published %d, want 11", ws)
	}
	if n, err := r.NextRun(e.threads[1]); err != nil || n != 11 {
		t.Fatalf("NextRun = %d, %v; want 11", n, err)
	}
	for i := 0; i < 11; i++ {
		drainOne(t, r, e.threads[1], i)
	}
	if got := e.buf.ConsumedBy(0, 1); got != 11 {
		t.Fatalf("consumed counter = %d, want 11 (one store per drained run)", got)
	}
	st := e.buf.Stats()
	if st.Flushes < 2 || st.Batched != 11 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPipelineImmediatePublication: a non-batchable entry flushes the
// staged run first (publication order) and is visible before its
// results, exactly like an entry published at MaxLag 0.
func TestPipelineImmediatePublication(t *testing.T) {
	e := newPipeEnv(t, 1<<20, 1, 2, 16)
	w := e.buf.NewWriter(0, e.bases[0])
	r := e.buf.NewReader(0, 1, e.bases[1])

	for i := 0; i < 2; i++ {
		reserveBatched(t, w, e.threads[0], i)
	}
	call := &vkernel.Call{Num: vkernel.SysRead, Args: [6]uint64{2}}
	res, err := w.Reserve(e.threads[0], call, FlagBlocking|FlagMasterCall, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The immediate entry and both staged ones are published, results
	// still pending.
	if ws := e.buf.WrittenSeq(0); ws != 3 {
		t.Fatalf("writtenSeq = %d, want 3", ws)
	}
	drainOne(t, r, e.threads[1], 0)
	drainOne(t, r, e.threads[1], 1)
	ev, err := r.Next(e.threads[1])
	if err != nil {
		t.Fatal(err)
	}
	if ev.Flags&FlagBatched != 0 {
		t.Fatal("immediate entry carries FlagBatched")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if ret, _, _ := ev.WaitResults(e.threads[1]); ret != 7 {
			t.Errorf("ret = %d", ret)
		}
	}()
	time.Sleep(2 * time.Millisecond) // let the slave park on the status futex
	res.Complete(e.threads[0], 7, 0, nil)
	<-done
	ev.Consume()
}

// drainingArbiter is a single-goroutine arbiter: before each reset it
// drains every published entry through the test's readers, so an
// overflow test needs no scheduling.
type drainingArbiter struct {
	drain  func()
	resets int
}

func (a *drainingArbiter) ResetPartition(b *Buffer, part int) {
	a.drain()
	if !b.Drained(part) {
		panic("drainingArbiter: partition not drained after draining every published entry")
	}
	b.DoReset(part)
	a.resets++
}

// TestPipelineOverflowUnderLagWindow drives batched entries through a
// tiny partition under a lag window, so the writer overflows with a
// staged, unpublished run in hand. The overflow must publish that run
// before the arbiter resets: otherwise the reset reclaims entries no
// slave has seen and the readers below lose them. Readers drain
// synchronously (after each write and inside the arbiter), so every
// overflow happens with 31 mod 8 = 7 entries staged.
func TestPipelineOverflowUnderLagWindow(t *testing.T) {
	const n = 400
	// 4 KiB segment: a 3968-byte data area holds 31 128-byte entries.
	e := newPipeEnv(t, 4096, 1, 3, 8)
	w := e.buf.NewWriter(0, e.bases[0])
	readers := []*Reader{e.buf.NewReader(0, 1, e.bases[1]), e.buf.NewReader(0, 2, e.bases[2])}
	drain := func() {
		for i, r := range readers {
			for r.seq != e.buf.WrittenSeq(0) {
				drainOne(t, r, e.threads[i+1], int(r.seq))
			}
		}
	}
	arb := &drainingArbiter{drain: drain}
	e.buf.arbiter = arb
	for i := 0; i < n; i++ {
		reserveBatched(t, w, e.threads[0], i)
		drain()
	}
	w.Flush(e.threads[0])
	drain()
	if arb.resets < n/31-1 {
		t.Fatalf("%d arbiter resets for %d entries of a 31-entry partition", arb.resets, n)
	}
	for i, r := range readers {
		if r.seq != n {
			t.Fatalf("replica %d consumed %d of %d entries", i+1, r.seq, n)
		}
	}
	if st := e.buf.Stats(); st.Batched != n || st.LagWaits != 0 {
		t.Fatalf("stats = %+v; want %d batched and no lag waits (readers keep up)", st, n)
	}
}

// TestPipelineLagBound: the writer must stall at the lag window until
// slaves acknowledge consumption, and resume promptly when they do.
func TestPipelineLagBound(t *testing.T) {
	e := newPipeEnv(t, 1<<20, 1, 2, 4) // window of 4
	w := e.buf.NewWriter(0, e.bases[0])
	r := e.buf.NewReader(0, 1, e.bases[1])

	written := make(chan struct{})
	go func() {
		defer close(written)
		for i := 0; i < 10; i++ {
			reserveBatched(t, w, e.threads[0], i)
		}
		w.Flush(e.threads[0])
	}()
	select {
	case <-written:
		t.Fatal("writer ran 10 entries ahead through a 4-entry window")
	case <-time.After(20 * time.Millisecond):
	}
	for i := 0; i < 10; i++ {
		drainOne(t, r, e.threads[1], i)
	}
	<-written
	if st := e.buf.Stats(); st.LagWaits == 0 {
		t.Fatalf("no lag waits recorded: %+v", st)
	}
}

// waitArbiter is GHUMVEE's reset protocol without GHUMVEE: wait on the
// drain notifications, then reset.
type waitArbiter struct{ resets int }

func (a *waitArbiter) ResetPartition(b *Buffer, part int) {
	b.WaitDrained(part, nil)
	b.DoReset(part)
	a.resets++
}

// TestPipelineWraparound forces the cumulative u32 sequence numbers past
// math.MaxUint32 while arbiter resets rewind the tiny partition:
// readers, lag accounting and policy-version pinning must survive the
// wrap (offPolicyVer stamping is positional, so a version installed
// mid-wrap must surface exactly once at its entry).
func TestPipelineWraparound(t *testing.T) {
	const n = 300
	start := uint32(math.MaxUint32 - 40) // wraps inside the run
	e := newPipeEnv(t, 4096, 1, 3, 8)    // 31 entries per generation: resets across the wrap too
	arb := &waitArbiter{}
	e.buf.arbiter = arb
	w := e.buf.NewWriter(0, e.bases[0])

	// Seed the cumulative counters as if the stream had been running
	// since just below the wrap point.
	base := e.buf.partBase(0)
	e.buf.seg.StoreU32(base+phWrittenSeq, start)
	for rep := 1; rep <= 2; rep++ {
		e.buf.seg.StoreU32(base+phConsumed+uint64(rep)*4, start)
	}
	w.seq, w.published = start, start

	const verSwitch = 100 // entry index at which the policy pin advances
	var wg sync.WaitGroup
	for rep := 1; rep <= 2; rep++ {
		rep := rep
		r := e.buf.NewReader(0, rep, e.bases[rep])
		r.seq = start
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				ev, err := r.Next(e.threads[rep])
				if err != nil {
					t.Errorf("replica %d entry %d: %v", rep, i, err)
					return
				}
				if ev.Args[0] != uint64(i) {
					t.Errorf("replica %d entry %d: arg0=%d", rep, i, ev.Args[0])
					return
				}
				wantVer := uint32(1)
				if i >= verSwitch {
					wantVer = 9
				}
				if ev.PolicyVer != wantVer {
					t.Errorf("replica %d entry %d: policyVer=%d want %d", rep, i, ev.PolicyVer, wantVer)
					return
				}
				ev.WaitResults(e.threads[rep])
				ev.Consume()
			}
		}()
	}
	w.SetPolicyVer(1)
	for i := 0; i < n; i++ {
		if i == verSwitch {
			w.SetPolicyVer(9)
		}
		reserveBatched(t, w, e.threads[0], i)
	}
	w.Flush(e.threads[0])
	wg.Wait()

	// The counters wrapped; wrap-safe lag accounting must report the
	// stream as fully drained.
	if lag := w.lag(); lag != 0 {
		t.Fatalf("post-drain lag = %d", lag)
	}
	wantSeq := start + uint32(n) // wrapped value
	if ws := e.buf.WrittenSeq(0); ws != wantSeq {
		t.Fatalf("writtenSeq = %d, want wrapped %d", ws, wantSeq)
	}
	if arb.resets < 2 {
		t.Fatalf("wraparound run saw %d arbiter resets, want several", arb.resets)
	}
}

// TestWaitDrainedAbortChannel: the arbiter wait must return
// promptly when the abort channel closes, without waiting for a drain
// that will never come.
func TestWaitDrainedAbortChannel(t *testing.T) {
	e := newRBEnv(t, 1<<20, 1, nil)
	w := e.buf.NewWriter(0, e.mBase)
	call := &vkernel.Call{Num: vkernel.SysGetpid}
	res, err := w.Reserve(e.master, call, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	res.Complete(e.master, 0, 0, nil)

	abort := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.buf.WaitDrained(0, abort) // slave never consumes
	}()
	time.Sleep(2 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("WaitDrained returned without drain or abort")
	default:
	}
	start := time.Now()
	close(abort)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("WaitDrained ignored the abort channel")
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("abort took %v; want an event-driven return", el)
	}
}

// TestPipelineBarrierPublishesInFlight: a hard barrier (Flush) fired
// while a batched reservation is still in flight — the master being
// routed to the CP monitor mid-call — must publish that entry's
// arguments so the slave can mirror the stream; the late Complete must
// then wake the slave parked on the status word.
func TestPipelineBarrierPublishesInFlight(t *testing.T) {
	e := newPipeEnv(t, 1<<20, 1, 2, 16)
	w := e.buf.NewWriter(0, e.bases[0])
	r := e.buf.NewReader(0, 1, e.bases[1])

	call := &vkernel.Call{Num: vkernel.SysGetpid, Args: [6]uint64{42}}
	res, err := w.Reserve(e.threads[0], call, FlagBatched, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Barrier before Complete (e.g. the invalid-token fallback).
	w.Flush(e.threads[0])
	if ws := e.buf.WrittenSeq(0); ws != 1 {
		t.Fatalf("barrier flush published %d entries, want the in-flight reservation", ws)
	}
	ev, err := r.Next(e.threads[1])
	if err != nil {
		t.Fatal(err)
	}
	if ev.Args[0] != 42 {
		t.Fatalf("arg0 = %d", ev.Args[0])
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if ret, _, _ := ev.WaitResults(e.threads[1]); ret != 7 {
			t.Errorf("ret = %d", ret)
		}
	}()
	time.Sleep(2 * time.Millisecond) // let the slave park on the status futex
	res.Complete(e.threads[0], 7, 0, nil)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("slave never woke from the late completion")
	}
	ev.Consume()
}

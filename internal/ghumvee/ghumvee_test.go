package ghumvee

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"remon/internal/fdmap"
	"remon/internal/mem"
	"remon/internal/vkernel"
	"remon/internal/vnet"
)

// monEnv is a 2-replica monitor harness with per-replica arenas.
type monEnv struct {
	k       *vkernel.Kernel
	m       *Monitor
	threads []*vkernel.Thread
	arenas  []mem.Addr
	offs    []uint64
}

func newMonEnv(t *testing.T, replicas int) *monEnv {
	t.Helper()
	k := vkernel.New(vnet.New(vnet.Loopback))
	var procs []*vkernel.Process
	for i := 0; i < replicas; i++ {
		procs = append(procs, k.NewProcess("rep", uint64(i+1)*7, i))
	}
	m := New(k, procs)
	e := &monEnv{k: k, m: m}
	for _, p := range procs {
		th := p.NewThread(nil)
		m.RegisterThread(th, 0)
		r, err := p.Mem.Map(1<<20, mem.ProtRead|mem.ProtWrite, "arena")
		if err != nil {
			t.Fatal(err)
		}
		e.threads = append(e.threads, th)
		e.arenas = append(e.arenas, r.Start)
		e.offs = append(e.offs, 0)
	}
	return e
}

func (e *monEnv) alloc(rep, n int) mem.Addr {
	a := e.arenas[rep] + mem.Addr(e.offs[rep])
	e.offs[rep] += uint64((n + 15) &^ 15)
	return a
}

func (e *monEnv) put(rep int, b []byte) mem.Addr {
	a := e.alloc(rep, len(b))
	if err := e.threads[rep].Proc.Mem.Write(a, b); err != nil {
		panic(err)
	}
	return a
}

// lockstep issues the same logical call from every replica concurrently
// and returns the per-replica results.
func (e *monEnv) lockstep(t *testing.T, calls []*vkernel.Call) []vkernel.Result {
	t.Helper()
	results := make([]vkernel.Result, len(e.threads))
	var wg sync.WaitGroup
	for i := range e.threads {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			th := e.threads[idx]
			results[idx] = e.m.MonitorCall(th, calls[idx], func(c *vkernel.Call) vkernel.Result {
				return th.RawSyscallC(c)
			})
		}(i)
	}
	wg.Wait()
	return results
}

func TestLockstepMasterCallReplication(t *testing.T) {
	e := newMonEnv(t, 2)
	e.k.FS.WriteFile("/etc/data", []byte("replicate-me"), 0o644)

	// Both replicas open the file (paths at different addresses, same
	// content).
	openCalls := []*vkernel.Call{
		{Num: vkernel.SysOpen, Args: [6]uint64{uint64(e.put(0, []byte("/etc/data\x00"))), 0, 0}},
		{Num: vkernel.SysOpen, Args: [6]uint64{uint64(e.put(1, []byte("/etc/data\x00"))), 0, 0}},
	}
	res := e.lockstep(t, openCalls)
	if !res[0].Ok() || res[0].Val != res[1].Val {
		t.Fatalf("open results differ: %+v", res)
	}
	fd := res[0].Val

	// Read: master executes, slave receives the buffer copy.
	buf0 := e.alloc(0, 64)
	buf1 := e.alloc(1, 64)
	readCalls := []*vkernel.Call{
		{Num: vkernel.SysRead, Args: [6]uint64{fd, uint64(buf0), 12}},
		{Num: vkernel.SysRead, Args: [6]uint64{fd, uint64(buf1), 12}},
	}
	res = e.lockstep(t, readCalls)
	if !res[0].Ok() || res[0].Val != 12 {
		t.Fatalf("read = %+v", res[0])
	}
	got1, err := e.threads[1].Proc.Mem.ReadBytes(buf1, 12)
	if err != nil {
		t.Fatal(err)
	}
	if string(got1) != "replicate-me" {
		t.Fatalf("slave buffer = %q, want replicated content", got1)
	}
	st := e.m.Stats()
	if st.MasterCalls != 2 || st.BytesReplicated == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestLockstepDetectsArgDivergence: a divergent call is refused before it
// executes, batchable or not. lseek is in policy.Batchable's read-only
// set; the file offset must stay where it was and the verdict must cite
// the lseek.
func TestLockstepDetectsArgDivergence(t *testing.T) {
	e := newMonEnv(t, 2)
	e.k.FS.WriteFile("/tmp/seek", []byte("0123456789"), 0o644)
	open := []*vkernel.Call{
		{Num: vkernel.SysOpen, Args: [6]uint64{uint64(e.put(0, []byte("/tmp/seek\x00"))), vkernel.ORdwr, 0}},
		{Num: vkernel.SysOpen, Args: [6]uint64{uint64(e.put(1, []byte("/tmp/seek\x00"))), vkernel.ORdwr, 0}},
	}
	fd := e.lockstep(t, open)[0].Val
	calls := []*vkernel.Call{
		{Num: vkernel.SysLseek, Args: [6]uint64{fd, 5, vkernel.SeekSet}},
		{Num: vkernel.SysLseek, Args: [6]uint64{fd, 9, vkernel.SeekSet}}, // divergent offset
	}
	res := e.lockstep(t, calls)
	if !e.m.Diverged() {
		t.Fatal("scalar divergence not detected")
	}
	for _, r := range res {
		if r.Errno != vkernel.EPERM {
			t.Fatalf("divergent call not refused: %+v", res)
		}
	}
	if pos := e.threads[0].RawSyscall(vkernel.SysLseek, fd, 0, vkernel.SeekCur); !pos.Ok() || pos.Val != 0 {
		t.Fatalf("master file offset = %+v, want 0 (the divergent lseek executed)", pos)
	}
	want := Verdict{Diverged: true, Reason: "lseek: arg1 9 != master 5", Syscall: "lseek"}
	if v := e.m.Verdict(); v != want {
		t.Fatalf("verdict = %+v, want %+v", v, want)
	}
}

// The three TestEpoch* tests keep the names of the deleted epoch-batched
// engine's tests and pin the one verification path that replaced it.

// TestEpochBatchedDivergenceAtBoundary: a divergent batchable call is
// refused before it runs (EPERM, not the raw kernel's EBADF for the
// unopened fd 3), and the verdict is there at once with the
// comparator's exact reason; no boundary has to flush it out.
func TestEpochBatchedDivergenceAtBoundary(t *testing.T) {
	e := newMonEnv(t, 2)
	res := e.lockstep(t, []*vkernel.Call{
		{Num: vkernel.SysLseek, Args: [6]uint64{3, 100, 0}},
		{Num: vkernel.SysLseek, Args: [6]uint64{3, 999, 0}}, // divergent offset
	})
	for _, r := range res {
		if r.Errno != vkernel.EPERM {
			t.Fatalf("divergent batchable call not refused: %+v", res)
		}
	}
	want := Verdict{Diverged: true, Reason: "lseek: arg1 999 != master 100", Syscall: "lseek"}
	if v := e.m.Verdict(); v != want {
		t.Fatalf("verdict = %+v, want %+v", v, want)
	}
}

// TestEpochFlushOnSensitiveCall: after a divergent lseek, a sensitive
// write is refused and never executes, and the verdict keeps citing the
// earlier lseek.
func TestEpochFlushOnSensitiveCall(t *testing.T) {
	e := newMonEnv(t, 2)
	e.lockstep(t, []*vkernel.Call{
		{Num: vkernel.SysLseek, Args: [6]uint64{3, 1, 0}},
		{Num: vkernel.SysLseek, Args: [6]uint64{3, 2, 0}}, // divergent offset
	})
	want := Verdict{Diverged: true, Reason: "lseek: arg1 2 != master 1", Syscall: "lseek"}
	wres := e.lockstep(t, []*vkernel.Call{
		{Num: vkernel.SysWrite, Args: [6]uint64{1, uint64(e.put(0, []byte("x"))), 1}},
		{Num: vkernel.SysWrite, Args: [6]uint64{1, uint64(e.put(1, []byte("x"))), 1}},
	})
	for _, r := range wres {
		if r.Errno != vkernel.EPERM {
			t.Fatalf("sensitive call after divergence = %+v, want EPERM", wres)
		}
	}
	if v := e.m.Verdict(); v != want {
		t.Fatalf("verdict after later call = %+v, want %+v", v, want)
	}
}

// TestEpochWindowFullFlush: a divergent call that follows healthy
// rounds is verified before it executes, exactly like the first call,
// and counted as one divergence among the monitored rounds.
func TestEpochWindowFullFlush(t *testing.T) {
	e := newMonEnv(t, 2)
	for i := 0; i < 2; i++ {
		if res := e.lockstep(t, []*vkernel.Call{{Num: vkernel.SysGetpid}, {Num: vkernel.SysGetpid}}); !res[0].Ok() {
			t.Fatalf("healthy round %d failed: %+v", i, res[0])
		}
	}
	res := e.lockstep(t, []*vkernel.Call{
		{Num: vkernel.SysLseek, Args: [6]uint64{3, 7, 0}},
		{Num: vkernel.SysLseek, Args: [6]uint64{3, 8, 0}},
	})
	for _, r := range res {
		if r.Errno != vkernel.EPERM {
			t.Fatalf("divergent call after healthy rounds executed: %+v", res)
		}
	}
	if st := e.m.Stats(); st.MonitoredCalls != 3 || st.Divergences != 1 {
		t.Fatalf("stats = %+v, want 3 monitored calls and 1 divergence", st)
	}
}

func TestLockstepDetectsSyscallNrDivergence(t *testing.T) {
	e := newMonEnv(t, 2)
	calls := []*vkernel.Call{
		{Num: vkernel.SysGetpid},
		{Num: vkernel.SysGettid},
	}
	e.lockstep(t, calls)
	if !e.m.Diverged() {
		t.Fatal("syscall-number divergence not detected")
	}
}

func TestLockstepDetectsBufferDivergence(t *testing.T) {
	e := newMonEnv(t, 2)
	e.k.FS.WriteFile("/tmp/out", nil, 0o644)
	open := []*vkernel.Call{
		{Num: vkernel.SysOpen, Args: [6]uint64{uint64(e.put(0, []byte("/tmp/out\x00"))), vkernel.ORdwr, 0}},
		{Num: vkernel.SysOpen, Args: [6]uint64{uint64(e.put(1, []byte("/tmp/out\x00"))), vkernel.ORdwr, 0}},
	}
	fd := e.lockstep(t, open)[0].Val
	writes := []*vkernel.Call{
		{Num: vkernel.SysWrite, Args: [6]uint64{fd, uint64(e.put(0, []byte("AAAA"))), 4}},
		{Num: vkernel.SysWrite, Args: [6]uint64{fd, uint64(e.put(1, []byte("AAAB"))), 4}},
	}
	e.lockstep(t, writes)
	if !e.m.Diverged() {
		t.Fatal("buffer-content divergence not detected")
	}
}

func TestPathComparisonAcceptsDifferentAddresses(t *testing.T) {
	e := newMonEnv(t, 2)
	e.k.FS.WriteFile("/etc/same", []byte("x"), 0o644)
	// Same path string, wildly different virtual addresses.
	calls := []*vkernel.Call{
		{Num: vkernel.SysAccess, Args: [6]uint64{uint64(e.put(0, []byte("/etc/same\x00"))), 0}},
		{Num: vkernel.SysAccess, Args: [6]uint64{uint64(e.put(1, []byte("/etc/same\x00"))), 0}},
	}
	res := e.lockstep(t, calls)
	if e.m.Diverged() {
		t.Fatalf("equivalent paths flagged divergent: %+v", e.m.Verdict())
	}
	if !res[0].Ok() || !res[1].Ok() {
		t.Fatalf("access failed: %+v", res)
	}
}

func TestAllReplicasCallsRunEverywhere(t *testing.T) {
	e := newMonEnv(t, 2)
	calls := []*vkernel.Call{
		{Num: vkernel.SysMmap, Args: [6]uint64{0, 8192, 0x3, vkernel.MapAnonymous | vkernel.MapPrivate, 0, 0}},
		{Num: vkernel.SysMmap, Args: [6]uint64{0, 8192, 0x3, vkernel.MapAnonymous | vkernel.MapPrivate, 0, 0}},
	}
	res := e.lockstep(t, calls)
	if e.m.Diverged() {
		t.Fatal("mmap lockstep diverged")
	}
	if !res[0].Ok() || !res[1].Ok() {
		t.Fatalf("mmap failed: %+v", res)
	}
	// Each replica got its own (diversified) mapping.
	if res[0].Val == res[1].Val {
		t.Log("note: identical mmap addresses across replicas (possible but unexpected)")
	}
	if e.m.Stats().AllReplicaCalls != 1 {
		t.Fatalf("AllReplicaCalls = %d", e.m.Stats().AllReplicaCalls)
	}
}

func TestShmRejection(t *testing.T) {
	e := newMonEnv(t, 2)
	calls := []*vkernel.Call{
		{Num: vkernel.SysShmget, Args: [6]uint64{0, 4096, 0}},
		{Num: vkernel.SysShmget, Args: [6]uint64{0, 4096, 0}},
	}
	res := e.lockstep(t, calls)
	for _, r := range res {
		if r.Errno != vkernel.EPERM {
			t.Fatalf("shmget = %v, want EPERM", r.Errno)
		}
	}
	if e.m.Stats().ShmRejected != 1 {
		t.Fatalf("ShmRejected = %d", e.m.Stats().ShmRejected)
	}
	// But allowed during arbitrated setup.
	e.m.SetAllowShm(true)
	res = e.lockstep(t, calls)
	if !res[0].Ok() {
		t.Fatalf("arbitrated shmget = %v", res[0].Errno)
	}
}

func TestFileMapTracking(t *testing.T) {
	e := newMonEnv(t, 2)
	e.k.FS.WriteFile("/tmp/tracked", nil, 0o644)
	open := []*vkernel.Call{
		{Num: vkernel.SysOpen, Args: [6]uint64{uint64(e.put(0, []byte("/tmp/tracked\x00"))), vkernel.ORdwr, 0}},
		{Num: vkernel.SysOpen, Args: [6]uint64{uint64(e.put(1, []byte("/tmp/tracked\x00"))), vkernel.ORdwr, 0}},
	}
	fd := int(e.lockstep(t, open)[0].Val)
	typ, nb, open2 := e.m.FileMap().Lookup(fd)
	if !open2 || typ != fdmap.TypeRegular || nb {
		t.Fatalf("file map after open: typ=%d nb=%v open=%v", typ, nb, open2)
	}
	// fcntl F_SETFL O_NONBLOCK updates the non-blocking bit.
	fcntl := []*vkernel.Call{
		{Num: vkernel.SysFcntl, Args: [6]uint64{uint64(fd), vkernel.FSetFL, vkernel.ONonblock}},
		{Num: vkernel.SysFcntl, Args: [6]uint64{uint64(fd), vkernel.FSetFL, vkernel.ONonblock}},
	}
	e.lockstep(t, fcntl)
	if _, nb, _ := e.m.FileMap().Lookup(fd); !nb {
		t.Fatal("non-blocking flag not tracked")
	}
	// close clears the entry.
	closeCalls := []*vkernel.Call{
		{Num: vkernel.SysClose, Args: [6]uint64{uint64(fd)}},
		{Num: vkernel.SysClose, Args: [6]uint64{uint64(fd)}},
	}
	e.lockstep(t, closeCalls)
	if _, _, open3 := e.m.FileMap().Lookup(fd); open3 {
		t.Fatal("file map entry survives close")
	}
}

func TestSignalGateDefersAndRedelivers(t *testing.T) {
	e := newMonEnv(t, 2)
	fired := make([]int, 2)
	for i, th := range e.threads {
		idx := i
		th.Proc.RegisterSignalHandler(vkernel.SIGUSR1, func(tt *vkernel.Thread, sig int) {
			fired[idx]++
		})
	}
	// Signal hits the master outside a rendezvous: must be deferred.
	e.threads[0].Proc.Kill(vkernel.SIGUSR1)
	if e.m.PendingSignals() != 1 {
		t.Fatalf("pending = %d, want 1", e.m.PendingSignals())
	}
	if fired[0] != 0 {
		t.Fatal("signal delivered before rendezvous")
	}
	// The next lockstep round re-initiates delivery in both replicas;
	// handlers run at the replicas' next syscall boundary (here: a plain
	// user-entry syscall after the rendezvous).
	calls := []*vkernel.Call{{Num: vkernel.SysGetpid}, {Num: vkernel.SysGetpid}}
	e.lockstep(t, calls)
	for _, th := range e.threads {
		th.Syscall(vkernel.SysGetpid)
	}
	if fired[0] != 1 || fired[1] != 1 {
		t.Fatalf("deliveries = %v, want [1 1]", fired)
	}
	if e.m.PendingSignals() != 0 {
		t.Fatal("pending queue not drained")
	}
}

func TestSlaveSignalAbsorbed(t *testing.T) {
	e := newMonEnv(t, 2)
	fired := 0
	e.threads[1].Proc.RegisterSignalHandler(vkernel.SIGUSR1, func(tt *vkernel.Thread, sig int) { fired++ })
	e.threads[1].Proc.Kill(vkernel.SIGUSR1)
	calls := []*vkernel.Call{{Num: vkernel.SysGetpid}, {Num: vkernel.SysGetpid}}
	e.lockstep(t, calls)
	if fired != 0 {
		t.Fatal("slave-directed signal delivered directly")
	}
}

func TestCrashedReplicaTriggersShutdown(t *testing.T) {
	e := newMonEnv(t, 2)
	e.threads[1].Crash("simulated SIGSEGV")
	if !e.m.Diverged() {
		t.Fatal("replica crash did not trigger divergence")
	}
	// Every replica is torn down.
	for _, th := range e.threads {
		if !th.Exited() {
			t.Fatal("replica survived shutdown")
		}
	}
}

func TestNonReplicaThreadPassesThrough(t *testing.T) {
	e := newMonEnv(t, 2)
	outsider := e.k.NewProcess("client", 99, 5)
	th := outsider.NewThread(nil)
	r := e.m.MonitorCall(th, &vkernel.Call{Num: vkernel.SysGetpid}, func(c *vkernel.Call) vkernel.Result {
		return th.RawSyscallC(c)
	})
	if !r.Ok() || r.Val != uint64(outsider.PID) {
		t.Fatalf("outsider call = %+v", r)
	}
	if e.m.Stats().MonitoredCalls != 0 {
		t.Fatal("outsider call counted as monitored")
	}
}

func TestEpollCookieRecordingAndTranslation(t *testing.T) {
	e := newMonEnv(t, 2)
	// Create an epoll fd + a pipe in the master (lockstep).
	epoll := []*vkernel.Call{
		{Num: vkernel.SysEpollCreate1, Args: [6]uint64{0}},
		{Num: vkernel.SysEpollCreate1, Args: [6]uint64{0}},
	}
	epfd := e.lockstep(t, epoll)[0].Val
	pipeOut0 := e.alloc(0, 8)
	pipeOut1 := e.alloc(1, 8)
	pipe := []*vkernel.Call{
		{Num: vkernel.SysPipe, Args: [6]uint64{uint64(pipeOut0)}},
		{Num: vkernel.SysPipe, Args: [6]uint64{uint64(pipeOut1)}},
	}
	e.lockstep(t, pipe)
	raw, _ := e.threads[0].Proc.Mem.ReadBytes(pipeOut0, 8)
	rfd := uint64(binary.LittleEndian.Uint32(raw[0:]))
	wfd := uint64(binary.LittleEndian.Uint32(raw[4:]))

	// Each replica registers its own cookie.
	mkEvent := func(rep int, cookie uint64) mem.Addr {
		ev := make([]byte, vkernel.EpollEventSize)
		binary.LittleEndian.PutUint32(ev[0:], vkernel.EpollIn)
		binary.LittleEndian.PutUint64(ev[8:], cookie)
		return e.put(rep, ev)
	}
	ctl := []*vkernel.Call{
		{Num: vkernel.SysEpollCtl, Args: [6]uint64{epfd, vkernel.EpollCtlAdd, rfd, uint64(mkEvent(0, 0xAAAA0000))}},
		{Num: vkernel.SysEpollCtl, Args: [6]uint64{epfd, vkernel.EpollCtlAdd, rfd, uint64(mkEvent(1, 0xBBBB0000))}},
	}
	if res := e.lockstep(t, ctl); !res[0].Ok() {
		t.Fatalf("epoll_ctl: %v", res[0].Errno)
	}
	if e.m.Diverged() {
		t.Fatalf("cookie difference flagged divergent: %+v", e.m.Verdict())
	}

	// Write a byte so the pipe is readable, then epoll_wait.
	wr := []*vkernel.Call{
		{Num: vkernel.SysWrite, Args: [6]uint64{wfd, uint64(e.put(0, []byte("x"))), 1}},
		{Num: vkernel.SysWrite, Args: [6]uint64{wfd, uint64(e.put(1, []byte("x"))), 1}},
	}
	e.lockstep(t, wr)
	out0 := e.alloc(0, vkernel.EpollEventSize*4)
	out1 := e.alloc(1, vkernel.EpollEventSize*4)
	wait := []*vkernel.Call{
		{Num: vkernel.SysEpollWait, Args: [6]uint64{epfd, uint64(out0), 4, 0}},
		{Num: vkernel.SysEpollWait, Args: [6]uint64{epfd, uint64(out1), 4, 0}},
	}
	res := e.lockstep(t, wait)
	if !res[0].Ok() || res[0].Val != 1 {
		t.Fatalf("epoll_wait = %+v", res[0])
	}
	slaveEv, _ := e.threads[1].Proc.Mem.ReadBytes(out1, vkernel.EpollEventSize)
	if got := binary.LittleEndian.Uint64(slaveEv[8:]); got != 0xBBBB0000 {
		t.Fatalf("slave cookie = %#x, want its own 0xBBBB0000", got)
	}
	masterEv, _ := e.threads[0].Proc.Mem.ReadBytes(out0, vkernel.EpollEventSize)
	if got := binary.LittleEndian.Uint64(masterEv[8:]); got != 0xAAAA0000 {
		t.Fatalf("master cookie = %#x, want 0xAAAA0000", got)
	}
}

func TestThreeReplicaLockstep(t *testing.T) {
	e := newMonEnv(t, 3)
	calls := []*vkernel.Call{
		{Num: vkernel.SysGetpid}, {Num: vkernel.SysGetpid}, {Num: vkernel.SysGetpid},
	}
	res := e.lockstep(t, calls)
	if e.m.Diverged() {
		t.Fatal("3-replica getpid diverged")
	}
	// All replicas observe the master's pid (consistency, §2.1).
	if res[0].Val != res[1].Val || res[1].Val != res[2].Val {
		t.Fatalf("inconsistent getpid results: %+v", res)
	}
}

func TestPerMonitorLockstepTimeout(t *testing.T) {
	// Two monitors on different kernels hold different watchdogs — the
	// state the old package global made racy under concurrent MVEEs.
	e1 := newMonEnv(t, 2)
	e2 := newMonEnv(t, 2)
	e1.m.SetLockstepTimeout(50 * time.Millisecond)
	if got := e1.m.LockstepTimeout(); got != 50*time.Millisecond {
		t.Fatalf("timeout = %v", got)
	}
	if got := e2.m.LockstepTimeout(); got != DefaultLockstepTimeout {
		t.Fatalf("second monitor inherited foreign timeout: %v", got)
	}
	e1.m.SetLockstepTimeout(0) // ignored
	if got := e1.m.LockstepTimeout(); got != 50*time.Millisecond {
		t.Fatalf("zero overwrote timeout: %v", got)
	}

	// The short watchdog fires when only one replica shows up.
	done := make(chan vkernel.Result, 1)
	go func() {
		done <- e1.m.MonitorCall(e1.threads[0], &vkernel.Call{Num: vkernel.SysGetpid},
			func(c *vkernel.Call) vkernel.Result { return e1.threads[0].RawSyscallC(c) })
	}()
	select {
	case r := <-done:
		if r.Ok() {
			t.Fatal("half-arrived lockstep call completed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("short per-monitor watchdog never fired")
	}
	if !e1.m.Diverged() {
		t.Fatal("watchdog timeout did not declare divergence")
	}
	if e2.m.Diverged() {
		t.Fatal("divergence leaked across monitors")
	}
}

func TestVerdictHandlerFiresOnce(t *testing.T) {
	e := newMonEnv(t, 2)
	var mu sync.Mutex
	var got []Verdict
	e.m.SetVerdictHandler(func(v Verdict) {
		mu.Lock()
		got = append(got, v)
		mu.Unlock()
	})
	calls := []*vkernel.Call{
		{Num: vkernel.SysLseek, Args: [6]uint64{3, 1, 0}},
		{Num: vkernel.SysLseek, Args: [6]uint64{3, 2, 0}},
	}
	e.lockstep(t, calls)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || !got[0].Diverged || got[0].Syscall != "lseek" {
		t.Fatalf("verdict handler calls = %+v", got)
	}
}

func TestStopTearsDownWithoutVerdict(t *testing.T) {
	e := newMonEnv(t, 2)
	e.m.Stop("test retirement")
	e.m.Stop("") // idempotent
	if !e.m.Stopped() {
		t.Fatal("Stopped() false after Stop")
	}
	if e.m.Diverged() {
		t.Fatal("administrative stop recorded a divergence")
	}
	if v := e.m.Verdict(); v.Diverged {
		t.Fatalf("verdict after stop = %+v", v)
	}
	for _, th := range e.threads {
		if !th.Exited() {
			t.Fatal("replica thread survived Stop")
		}
	}
	// Crash reports arriving after Stop (the teardown's own crashes) must
	// not flip the verdict.
	if e.m.Diverged() {
		t.Fatal("post-stop crash became a divergence verdict")
	}
	// Further monitored calls bail out cleanly.
	r := e.m.MonitorCall(e.threads[0], &vkernel.Call{Num: vkernel.SysGetpid},
		func(c *vkernel.Call) vkernel.Result { return vkernel.Result{} })
	if r.Ok() {
		t.Fatal("monitored call completed on a stopped monitor")
	}
}

func TestClockLockstepSync(t *testing.T) {
	e := newMonEnv(t, 2)
	e.threads[0].Clock.Advance(1000)
	e.threads[1].Clock.Advance(500000) // slow replica
	calls := []*vkernel.Call{{Num: vkernel.SysGetpid}, {Num: vkernel.SysGetpid}}
	e.lockstep(t, calls)
	// Lockstep: both clocks meet at (at least) the slowest arrival.
	if e.threads[0].Clock.Now() < 500000 {
		t.Fatalf("fast replica clock %v not synced to lockstep", e.threads[0].Clock.Now())
	}
}

// TestTeardownDisarmsWatchdog: a round the teardown interrupts never
// completes, so its armed watchdog must be stopped by the teardown
// itself. A pending timer keeps the whole replica set reachable until
// the lockstep timeout fires, which is how repeated test runs used to
// pile up gigabytes of dead replicas.
func TestTeardownDisarmsWatchdog(t *testing.T) {
	e := newMonEnv(t, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.m.MonitorCall(e.threads[0], &vkernel.Call{Num: vkernel.SysGetpid},
			func(c *vkernel.Call) vkernel.Result { return e.threads[0].RawSyscallC(c) })
	}()
	// Only one replica arrives: its round stays open and arms the watchdog.
	deadline := time.Now().Add(5 * time.Second)
	for armed := false; !armed; {
		e.m.groups.Range(func(_, g any) bool {
			armed = armed || g.(*ring).armedRound.Load() != 0
			return true
		})
		if time.Now().After(deadline) {
			t.Fatal("half-arrived round never armed its watchdog")
		}
		time.Sleep(100 * time.Microsecond)
	}
	e.m.Stop("test retirement")
	<-done
	e.m.groups.Range(func(_, g any) bool {
		if g.(*ring).timer.Stop() {
			t.Error("watchdog still armed after teardown")
		}
		return true
	})
}

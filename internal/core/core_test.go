package core

import (
	"encoding/binary"
	"strings"
	"sync"
	"testing"

	"remon/internal/libc"
	"remon/internal/model"
	"remon/internal/policy"
	"remon/internal/vkernel"
)

// fileProg writes a file, reads it back and checks the content — exercises
// open/write/lseek/read/close under every mode.
func fileProg(t *testing.T) libc.Program {
	return func(env *libc.Env) {
		fd, errno := env.Open("/tmp/prog.txt", vkernel.OCreat|vkernel.ORdwr, 0o644)
		if errno != 0 {
			t.Errorf("open: %v", errno)
			return
		}
		if _, errno := env.Write(fd, []byte("mvee-data")); errno != 0 {
			t.Errorf("write: %v", errno)
			return
		}
		if _, errno := env.Lseek(fd, 0, vkernel.SeekSet); errno != 0 {
			t.Errorf("lseek: %v", errno)
			return
		}
		buf := make([]byte, 16)
		n, errno := env.Read(fd, buf)
		if errno != 0 || string(buf[:n]) != "mvee-data" {
			t.Errorf("read back %q, %v", buf[:n], errno)
		}
		env.Close(fd)
	}
}

func TestNativeRun(t *testing.T) {
	rep, err := RunProgram(Config{Mode: ModeNative}, fileProg(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duration <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if rep.Syscalls == 0 {
		t.Fatal("no syscalls counted")
	}
	if rep.Verdict.Diverged {
		t.Fatal("native run cannot diverge")
	}
}

func TestGHUMVEERun(t *testing.T) {
	rep, err := RunProgram(Config{Mode: ModeGHUMVEE, Replicas: 2}, fileProg(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict.Diverged {
		t.Fatalf("healthy program diverged: %+v", rep.Verdict)
	}
	if rep.Monitor.MonitoredCalls == 0 {
		t.Fatal("GHUMVEE saw no calls")
	}
	if rep.Monitor.PtraceStops == 0 {
		t.Fatal("no ptrace stops charged")
	}
}

func TestReMonRun(t *testing.T) {
	rep, err := RunProgram(Config{
		Mode: ModeReMon, Replicas: 2, Policy: policy.SocketRWLevel,
	}, fileProg(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict.Diverged {
		t.Fatalf("healthy program diverged: %+v", rep.Verdict)
	}
	if rep.Broker.RoutedIPMon == 0 {
		t.Fatal("IK-B routed nothing to IP-MON")
	}
	if rep.Broker.Registrations != 2 {
		t.Fatalf("registrations = %d, want 2", rep.Broker.Registrations)
	}
	var unmonitored uint64
	for _, s := range rep.IPMon {
		unmonitored += s.Unmonitored
	}
	if unmonitored == 0 {
		t.Fatal("IP-MON completed no unmonitored calls")
	}
}

func TestReMonFasterThanGHUMVEE(t *testing.T) {
	// A syscall-dense program must run faster under ReMon than under
	// lockstep-everything — the paper's core claim.
	prog := func(env *libc.Env) {
		for i := 0; i < 300; i++ {
			env.Getpid()
			env.TimeNow()
		}
	}
	gh, err := RunProgram(Config{Mode: ModeGHUMVEE, Replicas: 2}, prog)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := RunProgram(Config{
		Mode: ModeReMon, Replicas: 2, Policy: policy.BaseLevel,
	}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if gh.Verdict.Diverged || rm.Verdict.Diverged {
		t.Fatal("unexpected divergence")
	}
	if rm.Duration >= gh.Duration {
		t.Fatalf("ReMon (%v) not faster than GHUMVEE (%v) on a getpid loop",
			rm.Duration, gh.Duration)
	}
	t.Logf("GHUMVEE %v vs ReMon %v (%.1fx)", gh.Duration, rm.Duration,
		float64(gh.Duration)/float64(rm.Duration))
}

func TestDivergenceDetectedByGHUMVEE(t *testing.T) {
	// The master writes different content than the slave — the classic
	// asymmetric compromise. GHUMVEE's argument comparison must catch it.
	prog := func(env *libc.Env) {
		fd, _ := env.Open("/tmp/diverge", vkernel.OCreat|vkernel.ORdwr, 0o644)
		payload := []byte("benign-payload")
		if env.T.Proc.ReplicaIndex == 0 {
			payload = []byte("evil!!-payload")
		}
		env.Write(fd, payload)
		env.Close(fd)
	}
	rep, err := RunProgram(Config{Mode: ModeGHUMVEE, Replicas: 2}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verdict.Diverged {
		t.Fatal("divergent write not detected")
	}
	if rep.Verdict.Syscall != "write" {
		t.Fatalf("divergence attributed to %q, want write", rep.Verdict.Syscall)
	}
}

func TestDivergenceDetectedByIPMon(t *testing.T) {
	// Same attack under ReMon at NONSOCKET_RW: the write on a regular
	// file is unmonitored, so the *slave's IP-MON* must catch the
	// mismatch and crash intentionally (§3.3).
	prog := func(env *libc.Env) {
		fd, _ := env.Open("/tmp/diverge2", vkernel.OCreat|vkernel.ORdwr, 0o644)
		payload := []byte("benign-payload")
		if env.T.Proc.ReplicaIndex == 0 {
			payload = []byte("evil!!-payload")
		}
		env.Write(fd, payload)
		env.Close(fd)
	}
	rep, err := RunProgram(Config{
		Mode: ModeReMon, Replicas: 2, Policy: policy.NonsocketRWLevel,
	}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verdict.Diverged {
		t.Fatal("divergent unmonitored write not detected")
	}
	var ipDiv uint64
	for _, s := range rep.IPMon {
		ipDiv += s.Divergences
	}
	if ipDiv == 0 {
		t.Fatal("divergence was not detected by IP-MON's slave-side check")
	}
	if !strings.Contains(rep.Verdict.Reason, "crashed") {
		t.Fatalf("verdict should flow through the intentional-crash path: %q", rep.Verdict.Reason)
	}
}

// writevProg issues one two-buffer writev on a regular file; with
// tamper, the master's second buffer differs from the slave's. The iovec
// arrays and buffers sit at replica-private addresses, so only the
// gathered contents may be compared.
func writevProg(tamper bool) libc.Program {
	return func(env *libc.Env) {
		fd, _ := env.Open("/tmp/writev", vkernel.OCreat|vkernel.ORdwr, 0o644)
		second := []byte("second-buffer")
		if tamper && env.T.Proc.ReplicaIndex == 0 {
			second = []byte("SECOND-BUFFER")
		}
		iov := env.Alloc(32)
		var raw [32]byte
		for i, b := range [][]byte{[]byte("first-buffer|"), second} {
			a := env.Alloc(len(b))
			env.WriteBytes(a, b)
			binary.LittleEndian.PutUint64(raw[i*16:], uint64(a))
			binary.LittleEndian.PutUint64(raw[i*16+8:], uint64(len(b)))
		}
		env.WriteBytes(iov, raw[:])
		env.T.Syscall(vkernel.SysWritev, uint64(fd), uint64(iov), 2)
		env.Close(fd)
	}
}

// TestWritevIovecComparison drives both iovec comparators: GHUMVEE's
// lockstep gather (ModeGHUMVEE) and the slave IP-MON's frame comparison
// (ReMon at NONSOCKET_RW, where a regular-file writev is unmonitored).
// Equal contents at different addresses pass; a differing second buffer
// is convicted by the monitor the mode routes the call to.
func TestWritevIovecComparison(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"ghumvee", Config{Mode: ModeGHUMVEE, Replicas: 2}},
		{"ipmon", Config{Mode: ModeReMon, Replicas: 2, Policy: policy.NonsocketRWLevel}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := RunProgram(tc.cfg, writevProg(false))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Verdict.Diverged {
				t.Fatalf("equal iovec contents diverged: %+v", rep.Verdict)
			}
			rep, err = RunProgram(tc.cfg, writevProg(true))
			if err != nil {
				t.Fatal(err)
			}
			var ipDiv uint64
			for _, s := range rep.IPMon {
				ipDiv += s.Divergences
			}
			switch tc.cfg.Mode {
			case ModeGHUMVEE:
				want := "writev: iovec content differs"
				if rep.Verdict.Reason != want || rep.Verdict.Syscall != "writev" {
					t.Fatalf("verdict = %+v, want %q at writev", rep.Verdict, want)
				}
			default:
				if !rep.Verdict.Diverged || ipDiv == 0 {
					t.Fatalf("verdict = %+v, IP-MON divergences = %d: the slave comparison missed the iovec", rep.Verdict, ipDiv)
				}
			}
		})
	}
}

func TestThreeReplicas(t *testing.T) {
	rep, err := RunProgram(Config{
		Mode: ModeReMon, Replicas: 3, Policy: policy.SocketRWLevel,
	}, fileProg(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict.Diverged {
		t.Fatalf("3-replica run diverged: %+v", rep.Verdict)
	}
	if len(rep.IPMon) != 3 {
		t.Fatalf("IPMon stats for %d replicas", len(rep.IPMon))
	}
}

func TestMultithreadedProgram(t *testing.T) {
	for _, mode := range []Mode{ModeGHUMVEE, ModeReMon} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			prog := func(env *libc.Env) {
				mu := env.NewMutex()
				counter := 0
				var handles []*libc.ThreadHandle
				for w := 0; w < 3; w++ {
					handles = append(handles, env.Spawn(func(we *libc.Env) {
						for i := 0; i < 10; i++ {
							mu.Lock(we)
							counter++
							mu.Unlock(we)
							we.Getpid()
						}
					}))
				}
				for _, h := range handles {
					h.Join()
				}
				if counter != 30 {
					t.Errorf("counter = %d, want 30", counter)
				}
			}
			rep, err := RunProgram(Config{
				Mode: mode, Replicas: 2, Policy: policy.SocketRWLevel,
			}, prog)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Verdict.Diverged {
				t.Fatalf("multithreaded run diverged: %+v", rep.Verdict)
			}
		})
	}
}

func TestPipeProducerConsumer(t *testing.T) {
	prog := func(env *libc.Env) {
		rfd, wfd, errno := env.Pipe()
		if errno != 0 {
			t.Errorf("pipe: %v", errno)
			return
		}
		h := env.Spawn(func(we *libc.Env) {
			for i := 0; i < 20; i++ {
				we.Write(wfd, []byte{byte(i), byte(i + 1)})
			}
			we.Close(wfd)
		})
		buf := make([]byte, 4)
		total := 0
		for {
			n, errno := env.Read(rfd, buf)
			if errno != 0 || n == 0 {
				break
			}
			total += n
		}
		h.Join()
		if total != 40 {
			t.Errorf("consumer read %d bytes, want 40", total)
		}
	}
	for _, mode := range []Mode{ModeNative, ModeGHUMVEE, ModeReMon} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rep, err := RunProgram(Config{
				Mode: mode, Replicas: 2, Policy: policy.SocketRWLevel,
			}, prog)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Verdict.Diverged {
				t.Fatalf("pipe run diverged: %+v", rep.Verdict)
			}
		})
	}
}

func TestEpollCookieTranslation(t *testing.T) {
	// Each replica registers a replica-specific (diversified) cookie for
	// the same fd; every replica must observe *its own* cookie in the
	// epoll_wait results (§3.9).
	var mu sync.Mutex
	observed := map[int]uint64{}
	registered := map[int]uint64{}

	prog := func(env *libc.Env) {
		idx := env.T.Proc.ReplicaIndex
		rfd, wfd, errno := env.Pipe()
		if errno != 0 {
			t.Errorf("pipe: %v", errno)
			return
		}
		epfd, errno := env.EpollCreate()
		if errno != 0 {
			t.Errorf("epoll_create: %v", errno)
			return
		}
		// The cookie is an address in this replica's diversified layout.
		cookie := uint64(env.Alloc(8))
		mu.Lock()
		registered[idx] = cookie
		mu.Unlock()
		if errno := env.EpollCtl(epfd, vkernel.EpollCtlAdd, rfd, libc.EpollEvent{
			Events: vkernel.EpollIn, Data: cookie,
		}); errno != 0 {
			t.Errorf("epoll_ctl: %v", errno)
			return
		}
		env.Write(wfd, []byte("evt"))
		events := make([]libc.EpollEvent, 4)
		n, errno := env.EpollWait(epfd, events, -1)
		if errno != 0 || n != 1 {
			t.Errorf("epoll_wait = %d, %v", n, errno)
			return
		}
		mu.Lock()
		observed[idx] = events[0].Data
		mu.Unlock()
	}

	rep, err := RunProgram(Config{
		Mode: ModeReMon, Replicas: 2, Policy: policy.SocketRWLevel,
	}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict.Diverged {
		t.Fatalf("epoll run diverged: %+v", rep.Verdict)
	}
	mu.Lock()
	defer mu.Unlock()
	if registered[0] == registered[1] {
		t.Fatal("test defect: cookies should differ across replicas")
	}
	for idx := 0; idx < 2; idx++ {
		if observed[idx] != registered[idx] {
			t.Errorf("replica %d observed cookie %#x, registered %#x",
				idx, observed[idx], registered[idx])
		}
	}
}

func TestSharedMemoryRejected(t *testing.T) {
	var errs []vkernel.Errno
	var mu sync.Mutex
	prog := func(env *libc.Env) {
		r := env.T.Syscall(vkernel.SysShmget, 0, 4096, 0)
		mu.Lock()
		errs = append(errs, r.Errno)
		mu.Unlock()
	}
	rep, err := RunProgram(Config{Mode: ModeGHUMVEE, Replicas: 2}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict.Diverged {
		t.Fatal("shm rejection must not be a divergence")
	}
	if rep.Monitor.ShmRejected == 0 {
		t.Fatal("no shm rejection recorded")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, e := range errs {
		if e != vkernel.EPERM {
			t.Fatalf("shmget = %v, want EPERM in every replica", e)
		}
	}
}

func TestProcMapsFiltered(t *testing.T) {
	// Reading /proc/<pid>/maps through the monitored path must not reveal
	// the RB mapping (§3.1).
	var mu sync.Mutex
	captured := ""
	prog := func(env *libc.Env) {
		path := "/proc/" + itoa(env.Getpid()) + "/maps"
		fd, errno := env.Open(path, vkernel.ORdonly, 0)
		if errno != 0 {
			t.Errorf("open %s: %v", path, errno)
			return
		}
		var sb strings.Builder
		buf := make([]byte, 512)
		for {
			n, errno := env.Read(fd, buf)
			if errno != 0 || n == 0 {
				break
			}
			sb.Write(buf[:n])
		}
		env.Close(fd)
		if env.T.Proc.ReplicaIndex == 0 {
			mu.Lock()
			captured = sb.String()
			mu.Unlock()
		}
	}
	rep, err := RunProgram(Config{
		Mode: ModeReMon, Replicas: 2, Policy: policy.SocketRWLevel,
	}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict.Diverged {
		t.Fatalf("maps read diverged: %+v", rep.Verdict)
	}
	mu.Lock()
	defer mu.Unlock()
	if captured == "" {
		t.Fatal("no maps content captured")
	}
	if strings.Contains(captured, "rb") {
		t.Fatalf("maps leaks the RB mapping:\n%s", captured)
	}
	if !strings.Contains(captured, "text") {
		t.Fatalf("maps over-filtered:\n%s", captured)
	}
}

func TestSignalDeferredDelivery(t *testing.T) {
	var mu sync.Mutex
	delivered := map[int]int{}
	prog := func(env *libc.Env) {
		idx := env.T.Proc.ReplicaIndex
		env.T.Proc.RegisterSignalHandler(vkernel.SIGUSR1, func(th *vkernel.Thread, sig int) {
			mu.Lock()
			delivered[idx]++
			mu.Unlock()
		})
		env.T.Syscall(vkernel.SysRtSigaction, vkernel.SIGUSR1, 1, 0)
		if idx == 0 {
			// Signal arrives at the master mid-run.
			env.T.Proc.Kill(vkernel.SIGUSR1)
		}
		for i := 0; i < 50; i++ {
			env.Getpid()
		}
	}
	rep, err := RunProgram(Config{Mode: ModeGHUMVEE, Replicas: 2}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict.Diverged {
		t.Fatalf("signal run diverged: %+v", rep.Verdict)
	}
	if rep.Monitor.SignalsDeferred == 0 {
		t.Fatal("signal was not deferred by the monitor")
	}
	mu.Lock()
	defer mu.Unlock()
	if delivered[0] != 1 || delivered[1] != 1 {
		t.Fatalf("deliveries = %v, want one per replica", delivered)
	}
}

func TestTokenAccountingClean(t *testing.T) {
	rep, err := RunProgram(Config{
		Mode: ModeReMon, Replicas: 2, Policy: policy.SocketRWLevel,
	}, fileProg(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Broker.TokenViolations != 0 {
		t.Fatalf("healthy run recorded %d token violations", rep.Broker.TokenViolations)
	}
	if rep.Broker.TokensMinted == 0 {
		t.Fatal("no tokens minted")
	}
}

func TestLayoutsDiversified(t *testing.T) {
	m, err := New(Config{Mode: ModeReMon, Replicas: 2, Policy: policy.BaseLevel})
	if err != nil {
		t.Fatal(err)
	}
	procs := m.Procs()
	if procs[0].Mem.Layout().CodeBase == procs[1].Mem.Layout().CodeBase {
		t.Fatal("replicas share a code base — DCL violated")
	}
	bases := m.RBBases()
	if bases[0] == bases[1] {
		t.Fatal("RB mapped at the same address in both replicas")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestReportDurationScalesWithWork(t *testing.T) {
	small, err := RunProgram(Config{Mode: ModeNative}, func(env *libc.Env) {
		env.Compute(1 * model.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunProgram(Config{Mode: ModeNative}, func(env *libc.Env) {
		env.Compute(100 * model.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	if big.Duration <= small.Duration {
		t.Fatalf("durations do not scale: %v vs %v", small.Duration, big.Duration)
	}
}

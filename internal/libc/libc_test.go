package libc

import (
	"bytes"
	"sync"
	"testing"

	"remon/internal/model"
	"remon/internal/vkernel"
	"remon/internal/vnet"
)

func newEnv(t *testing.T) *Env {
	t.Helper()
	k := vkernel.New(vnet.New(vnet.Loopback))
	p := k.NewProcess("libc-test", 5, 0)
	return NewEnv(p.NewThread(nil), 0, nil)
}

func TestFileRoundTrip(t *testing.T) {
	e := newEnv(t)
	fd, errno := e.Open("/tmp/f", vkernel.OCreat|vkernel.ORdwr, 0o644)
	if errno != 0 {
		t.Fatalf("open: %v", errno)
	}
	n, errno := e.Write(fd, []byte("abcdef"))
	if errno != 0 || n != 6 {
		t.Fatalf("write = %d, %v", n, errno)
	}
	if _, errno := e.Lseek(fd, 0, vkernel.SeekSet); errno != 0 {
		t.Fatalf("lseek: %v", errno)
	}
	buf := make([]byte, 10)
	n, errno = e.Read(fd, buf)
	if errno != 0 || string(buf[:n]) != "abcdef" {
		t.Fatalf("read = %q, %v", buf[:n], errno)
	}
	if errno := e.Close(fd); errno != 0 {
		t.Fatalf("close: %v", errno)
	}
}

func TestLargeWriteChunks(t *testing.T) {
	// Writes above the scratch size must chunk transparently.
	e := newEnv(t)
	fd, _ := e.Open("/tmp/big", vkernel.OCreat|vkernel.ORdwr, 0o644)
	big := bytes.Repeat([]byte{0xAB}, 200_000)
	n, errno := e.Write(fd, big)
	if errno != 0 || n != len(big) {
		t.Fatalf("big write = %d, %v", n, errno)
	}
	st, errno := e.Stat("/tmp/big")
	if errno != 0 || st.Size != int64(len(big)) {
		t.Fatalf("stat = %+v, %v", st, errno)
	}
}

func TestStatAndAccess(t *testing.T) {
	e := newEnv(t)
	e.T.Proc.Kernel.FS.WriteFile("/etc/present", []byte("xy"), 0o644)
	st, errno := e.Stat("/etc/present")
	if errno != 0 || st.Size != 2 {
		t.Fatalf("stat = %+v, %v", st, errno)
	}
	if errno := e.Access("/etc/present"); errno != 0 {
		t.Fatalf("access: %v", errno)
	}
	if errno := e.Access("/etc/absent"); errno != vkernel.ENOENT {
		t.Fatalf("access missing = %v", errno)
	}
	if _, errno := e.Stat("/etc/absent"); errno != vkernel.ENOENT {
		t.Fatalf("stat missing = %v", errno)
	}
}

func TestPipeHelpers(t *testing.T) {
	e := newEnv(t)
	rfd, wfd, errno := e.Pipe()
	if errno != 0 {
		t.Fatalf("pipe: %v", errno)
	}
	e.Write(wfd, []byte("through"))
	buf := make([]byte, 16)
	n, errno := e.Read(rfd, buf)
	if errno != 0 || string(buf[:n]) != "through" {
		t.Fatalf("pipe read = %q, %v", buf[:n], errno)
	}
}

func TestSocketHelpers(t *testing.T) {
	e := newEnv(t)
	lfd, errno := e.Socket()
	if errno != 0 {
		t.Fatalf("socket: %v", errno)
	}
	if errno := e.Bind(lfd, "svc:1"); errno != 0 {
		t.Fatalf("bind: %v", errno)
	}
	if errno := e.Listen(lfd, 8); errno != 0 {
		t.Fatalf("listen: %v", errno)
	}

	k := e.T.Proc.Kernel
	peer := NewEnv(k.NewProcess("peer", 6, 1).NewThread(nil), 0, nil)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cfd, errno := peer.Socket()
		if errno != 0 {
			t.Errorf("peer socket: %v", errno)
			return
		}
		if errno := peer.Connect(cfd, "svc:1"); errno != 0 {
			t.Errorf("connect: %v", errno)
			return
		}
		peer.Send(cfd, []byte("ping"))
		buf := make([]byte, 8)
		n, errno := peer.Recv(cfd, buf)
		if errno != 0 || string(buf[:n]) != "pong" {
			t.Errorf("peer recv = %q, %v", buf[:n], errno)
		}
	}()

	conn, errno := e.Accept(lfd)
	if errno != 0 {
		t.Fatalf("accept: %v", errno)
	}
	buf := make([]byte, 8)
	n, errno := e.Recv(conn, buf)
	if errno != 0 || string(buf[:n]) != "ping" {
		t.Fatalf("server recv = %q, %v", buf[:n], errno)
	}
	e.Send(conn, []byte("pong"))
	wg.Wait()
}

func TestEpollHelpers(t *testing.T) {
	e := newEnv(t)
	rfd, wfd, _ := e.Pipe()
	epfd, errno := e.EpollCreate()
	if errno != 0 {
		t.Fatalf("epoll_create: %v", errno)
	}
	if errno := e.EpollCtl(epfd, vkernel.EpollCtlAdd, rfd, EpollEvent{Events: vkernel.EpollIn, Data: 777}); errno != 0 {
		t.Fatalf("epoll_ctl: %v", errno)
	}
	events := make([]EpollEvent, 4)
	n, errno := e.EpollWait(epfd, events, 0)
	if errno != 0 || n != 0 {
		t.Fatalf("empty epoll_wait = %d, %v", n, errno)
	}
	e.Write(wfd, []byte("!"))
	n, errno = e.EpollWait(epfd, events, -1)
	if errno != 0 || n != 1 || events[0].Data != 777 {
		t.Fatalf("epoll_wait = %d %+v %v", n, events[0], errno)
	}
}

func TestTimeAndCompute(t *testing.T) {
	e := newEnv(t)
	t0 := e.TimeNow()
	e.Compute(5 * model.Millisecond)
	t1 := e.TimeNow()
	if t1-t0 < 5*model.Millisecond {
		t.Fatalf("Compute advanced only %v", t1-t0)
	}
	e.Sleep(2 * model.Millisecond)
	if e.TimeNow()-t1 < 2*model.Millisecond {
		t.Fatal("Sleep did not advance virtual time")
	}
}

func TestGetpid(t *testing.T) {
	e := newEnv(t)
	if e.Getpid() != e.T.Proc.PID {
		t.Fatal("getpid mismatch")
	}
}

func TestAllocGrowsArena(t *testing.T) {
	e := newEnv(t)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		a := e.Alloc(64 * 1024)
		if seen[uint64(a)] {
			t.Fatal("allocator returned duplicate address")
		}
		seen[uint64(a)] = true
		e.WriteBytes(a, []byte{1}) // must be mapped
	}
}

func TestCString(t *testing.T) {
	e := newEnv(t)
	a := e.CString("hello")
	got := e.ReadBytes(a, 6)
	if string(got) != "hello\x00" {
		t.Fatalf("CString stored %q", got)
	}
}

func TestSetNonblock(t *testing.T) {
	e := newEnv(t)
	rfd, _, _ := e.Pipe()
	if errno := e.SetNonblock(rfd, true); errno != 0 {
		t.Fatalf("SetNonblock: %v", errno)
	}
	buf := make([]byte, 4)
	if _, errno := e.Read(rfd, buf); errno != vkernel.EAGAIN {
		t.Fatalf("nonblocking read = %v, want EAGAIN", errno)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	e := newEnv(t)
	mu := e.NewMutex()
	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			we := e.ChildEnv(e.T.Proc.NewThread(e.T), 1)
			for i := 0; i < 200; i++ {
				mu.Lock(we)
				counter++
				mu.Unlock(we)
			}
		}()
	}
	wg.Wait()
	if counter != 1600 {
		t.Fatalf("counter = %d, want 1600", counter)
	}
}

func TestFutexPingIssuesSyscall(t *testing.T) {
	e := newEnv(t)
	mu := e.NewMutex() // may mmap an arena
	before := e.T.Proc.Kernel.UserSyscalls()
	mu.FutexPing(e)
	if e.T.Proc.Kernel.UserSyscalls() != before+1 {
		t.Fatal("FutexPing issued no syscall")
	}
}

func TestKilledThreadPanicsErrKilled(t *testing.T) {
	e := newEnv(t)
	e.T.ExitThread(0)
	defer func() {
		if r := recover(); r != ErrKilled {
			t.Fatalf("recovered %v, want ErrKilled", r)
		}
	}()
	e.Getpid()
}

// haltedMonitor rejects every call with EPERM, as GHUMVEE does once it has
// halted the replica set but before the thread is marked exited.
type haltedMonitor struct{}

func (haltedMonitor) Intercept(*vkernel.Thread, *vkernel.Call, func(*vkernel.Call) vkernel.Result) vkernel.Result {
	return vkernel.Result{Errno: vkernel.EPERM}
}

func TestArenaMmapDeniedByHaltedMonitorPanicsErrKilled(t *testing.T) {
	e := newEnv(t)
	e.T.Proc.Kernel.SetInterceptor(haltedMonitor{})
	defer func() {
		if r := recover(); r != ErrKilled {
			t.Fatalf("recovered %v, want ErrKilled", r)
		}
	}()
	e.Alloc(16)
}

func TestSpawnWithoutHooksPanics(t *testing.T) {
	e := newEnv(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn without hooks did not panic")
		}
	}()
	e.Spawn(func(env *Env) {})
}

func TestUnlinkMkdirFsyncDup(t *testing.T) {
	e := newEnv(t)
	if errno := e.Mkdir("/tmp/dir", 0o755); errno != 0 {
		t.Fatalf("mkdir: %v", errno)
	}
	fd, _ := e.Open("/tmp/dir/file", vkernel.OCreat|vkernel.ORdwr, 0o644)
	if errno := e.Fsync(fd); errno != 0 {
		t.Fatalf("fsync: %v", errno)
	}
	dupFd, errno := e.Dup(fd)
	if errno != 0 || dupFd == fd {
		t.Fatalf("dup = %d, %v", dupFd, errno)
	}
	e.Close(fd)
	e.Close(dupFd)
	if errno := e.Unlink("/tmp/dir/file"); errno != 0 {
		t.Fatalf("unlink: %v", errno)
	}
	if errno := e.Access("/tmp/dir/file"); errno != vkernel.ENOENT {
		t.Fatal("file survived unlink")
	}
}

func TestPread(t *testing.T) {
	e := newEnv(t)
	fd, _ := e.Open("/tmp/pr", vkernel.OCreat|vkernel.ORdwr, 0o644)
	e.Write(fd, []byte("0123456789"))
	buf := make([]byte, 3)
	n, errno := e.Pread(fd, buf, 4)
	if errno != 0 || n != 3 || string(buf) != "456" {
		t.Fatalf("pread = %d %q %v", n, buf, errno)
	}
}

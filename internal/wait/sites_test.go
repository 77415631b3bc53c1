package wait_test

import (
	"runtime"
	"testing"
	"time"

	"remon/internal/ghumvee"
	"remon/internal/mem"
	"remon/internal/model"
	"remon/internal/rb"
	"remon/internal/rr"
	"remon/internal/vfs"
	"remon/internal/vkernel"
	"remon/internal/vnet"
	"remon/internal/wait"
)

// site is one way a party parks: start parks it in the background and
// returns the virtual time it should report (read once it is parked)
// and the action that wakes it.
type site struct {
	reason wait.Reason
	start  func(t *testing.T, park func(func())) (since func() model.Duration, wake func())
}

// TestEverySiteParksThroughTheQueue parks a party in each of the seven
// ways a replica thread blocks — the kernel's readiness hub, the futex
// table, the vnet rx queue and listener, the vfs pipe, the GHUMVEE
// arrival ring, the replication buffer's writer-side waits and the
// record/replay log — and reads each back from wait.Parked with its
// reason and virtual time. Sites whose API carries no clock (vnet, vfs,
// the arbiter's drain) report 0.
func TestEverySiteParksThroughTheQueue(t *testing.T) {
	zero := func() model.Duration { return 0 }
	newThread := func() (*vkernel.Kernel, *vkernel.Thread) {
		k := vkernel.New(nil)
		th := k.NewProcess("p", 1, 0).NewThread(nil)
		th.Clock.Advance(123)
		return k, th
	}
	sites := []site{
		{"vkernel.ready", func(t *testing.T, park func(func())) (func() model.Duration, func()) {
			k := vkernel.New(nil)
			gen := k.Hub.Gen()
			park(func() { k.Hub.WaitChange(gen, 77) })
			return func() model.Duration { return 77 }, k.Hub.Notify
		}},
		{"futex", func(t *testing.T, park func(func())) (func() model.Duration, func()) {
			_, th := newThread()
			base := th.Syscall(vkernel.SysShmat, th.Syscall(vkernel.SysShmget, 0, 4096, 0).Val, 0, 0).Val
			park(func() { th.Syscall(vkernel.SysFutex, base, vkernel.FutexWait, 0) })
			waker := th.Proc.NewThread(nil)
			return th.Clock.Now, func() { waker.Syscall(vkernel.SysFutex, base, vkernel.FutexWake, 1) }
		}},
		{"vnet.recv", func(t *testing.T, park func(func())) (func() model.Duration, func()) {
			n := vnet.New(vnet.Loopback)
			l, _ := n.Listen("srv:1", 4)
			c, _, _ := n.Connect("srv:1", 0)
			s, _, err := l.Accept(false)
			if err != nil {
				t.Fatal(err)
			}
			park(func() { s.Recv(make([]byte, 8), true) })
			return zero, func() { c.Send([]byte("x"), 0) }
		}},
		{"vnet.accept", func(t *testing.T, park func(func())) (func() model.Duration, func()) {
			n := vnet.New(vnet.Loopback)
			l, _ := n.Listen("srv:1", 4)
			park(func() { l.Accept(true) })
			return zero, func() { n.Connect("srv:1", 0) }
		}},
		{"vnet.backlog", func(t *testing.T, park func(func())) (func() model.Duration, func()) {
			n := vnet.New(vnet.Loopback)
			l, _ := n.Listen("srv:1", 1)
			n.Connect("srv:1", 0)
			park(func() { n.Connect("srv:1", 0) })
			return zero, func() { l.Accept(false) }
		}},
		{"vfs.pipe.read", func(t *testing.T, park func(func())) (func() model.Duration, func()) {
			p := vfs.NewPipe(4)
			park(func() { p.Read(make([]byte, 4), true) })
			return zero, func() { p.Write([]byte("x"), false) }
		}},
		{"vfs.pipe.write", func(t *testing.T, park func(func())) (func() model.Duration, func()) {
			p := vfs.NewPipe(1)
			park(func() { p.Write([]byte("xy"), true) })
			return zero, func() { p.Read(make([]byte, 1), false) }
		}},
		{"ghumvee.rendezvous", func(t *testing.T, park func(func())) (func() model.Duration, func()) {
			k := vkernel.New(vnet.New(vnet.Loopback))
			procs := []*vkernel.Process{k.NewProcess("r0", 1, 0), k.NewProcess("r1", 2, 1)}
			m := ghumvee.New(k, procs)
			m.SetLockstepTimeout(time.Minute)
			th := []*vkernel.Thread{procs[0].NewThread(nil), procs[1].NewThread(nil)}
			for _, x := range th {
				m.RegisterThread(x, 0)
			}
			exec := func(*vkernel.Call) vkernel.Result { return vkernel.Result{} }
			park(func() { m.MonitorCall(th[0], &vkernel.Call{Num: vkernel.SysGetpid}, exec) })
			return th[0].Clock.Now, func() { m.MonitorCall(th[1], &vkernel.Call{Num: vkernel.SysGetpid}, exec) }
		}},
		{"rb.lag", func(t *testing.T, park func(func())) (func() model.Duration, func()) {
			_, th := newThread()
			b, err := rb.New(mem.NewSharedSegment(-1, 1<<16), 2, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			b.SetMaxLag(2)
			w := b.NewWriter(0, 0)
			reserve := func() {
				res, err := w.Reserve(th, &vkernel.Call{Num: vkernel.SysGetpid}, rb.FlagBatched, nil, 0)
				if err != nil {
					t.Error(err)
					return
				}
				res.Complete(th, 0, 0, nil)
			}
			reserve()
			reserve()
			park(reserve) // the third entry exceeds the window
			_, slave := newThread()
			r := b.NewReader(0, 1, 0)
			return th.Clock.Now, func() { consume(t, r, slave, 2) }
		}},
		{"rb.drain", func(t *testing.T, park func(func())) (func() model.Duration, func()) {
			_, th := newThread()
			b, err := rb.New(mem.NewSharedSegment(-1, 1<<16), 2, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := b.NewWriter(0, 0).Reserve(th, &vkernel.Call{Num: vkernel.SysGetpid}, 0, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			res.Complete(th, 0, 0, nil)
			park(func() { b.WaitDrained(0, nil) })
			_, slave := newThread()
			r := b.NewReader(0, 1, 0)
			return zero, func() { consume(t, r, slave, 1) }
		}},
		{"rr.record", func(t *testing.T, park func(func())) (func() model.Duration, func()) {
			_, th := newThread()
			log := rr.NewLog()
			master, slave := rr.NewAgent(log, true), rr.NewAgent(log, false)
			park(func() { slave.Sync(th, 1, 0xA, rr.OpLock) })
			return th.Clock.Now, func() { master.Sync(th.Proc.NewThread(nil), 1, 0xA, rr.OpLock) }
		}},
		{"rr.turn", func(t *testing.T, park func(func())) (func() model.Duration, func()) {
			_, th := newThread()
			log := rr.NewLog()
			master, slave := rr.NewAgent(log, true), rr.NewAgent(log, false)
			mt := th.Proc.NewThread(nil)
			master.Sync(mt, 1, 0xA, rr.OpLock)
			master.Sync(mt, 2, 0xB, rr.OpLock)
			park(func() { slave.Sync(th, 2, 0xB, rr.OpLock) })
			return th.Clock.Now, func() { slave.Sync(th.Proc.NewThread(nil), 1, 0xA, rr.OpLock) }
		}},
	}
	for _, s := range sites {
		t.Run(string(s.reason), func(t *testing.T) {
			done := make(chan struct{})
			since, wake := s.start(t, func(f func()) {
				go func() {
					defer close(done)
					f()
				}()
			})
			w := awaitParked(t, s.reason)
			if want := since(); w.Since != want {
				t.Errorf("Parked() since %d, want %d", w.Since, want)
			}
			wake()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("the wake did not release the parked party")
			}
			for _, w := range wait.Parked() {
				if w.Reason == s.reason {
					t.Fatalf("still parked after its wake: %+v", w)
				}
			}
		})
	}
}

// awaitParked waits until exactly one party is parked for reason r.
func awaitParked(t *testing.T, r wait.Reason) wait.Waiter {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var hits []wait.Waiter
		for _, w := range wait.Parked() {
			if w.Reason == r {
				hits = append(hits, w)
			}
		}
		if len(hits) == 1 {
			return hits[0]
		}
		if len(hits) > 1 || time.Now().After(deadline) {
			t.Fatalf("%d parties parked for %q, want 1", len(hits), r)
		}
		runtime.Gosched()
	}
}

// consume drains n published entries as replica 1.
func consume(t *testing.T, r *rb.Reader, th *vkernel.Thread, n int) {
	for i := 0; i < n; i++ {
		ev, err := r.Next(th)
		if err != nil {
			t.Error(err)
			return
		}
		ev.WaitResults(th)
		ev.Consume()
	}
}

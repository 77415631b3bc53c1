package vnet

import (
	"sync"
	"testing"
	"time"
)

// pair dials srv through n and returns (client, server) conns.
func pollPair(t *testing.T, n *Network, l *Listener) (*Conn, *Conn) {
	t.Helper()
	client, _, err := n.Connect(l.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	server, _, err := l.Accept(true)
	if err != nil {
		t.Fatal(err)
	}
	return client, server
}

func waitOne(t *testing.T, p *Poller) Event {
	t.Helper()
	evs := make([]Event, 4)
	done := make(chan Event, 1)
	go func() {
		if n := p.Wait(evs, true); n > 0 {
			done <- evs[0]
		}
	}()
	select {
	case ev := <-done:
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not deliver an event")
		return Event{}
	}
}

func TestPollReadyBeforeRegister(t *testing.T) {
	n := New(GigabitLocal)
	l, _ := n.Listen("srv:1", 4)
	client, server := pollPair(t, n, l)

	// Data lands before the conn is registered: the registration itself
	// must deliver the initial event.
	if _, err := client.Send([]byte("hi"), 0); err != nil {
		t.Fatal(err)
	}
	p := NewPoller()
	defer p.Close()
	if err := p.AddConn(server, 7); err != nil {
		t.Fatal(err)
	}
	ev := waitOne(t, p)
	if ev.Conn != server || ev.Key != 7 {
		t.Fatalf("event = %+v, want conn key 7", ev)
	}
	data, _, err := server.RecvSeg(false)
	if err != nil || string(data) != "hi" {
		t.Fatalf("drain = %q, %v", data, err)
	}
	if _, _, err := server.RecvSeg(false); err != ErrWouldBlock {
		t.Fatalf("post-drain = %v, want ErrWouldBlock", err)
	}
}

func TestPollEdgeCoalescingAndRearm(t *testing.T) {
	n := New(GigabitLocal)
	l, _ := n.Listen("srv:1", 4)
	client, server := pollPair(t, n, l)

	p := NewPoller()
	defer p.Close()
	if err := p.AddConn(server, 1); err != nil {
		t.Fatal(err)
	}

	// A burst of pushes before any Wait coalesces into one event.
	for i := 0; i < 5; i++ {
		if _, err := client.Send([]byte("x"), 0); err != nil {
			t.Fatal(err)
		}
	}
	evs := make([]Event, 8)
	if got := p.Wait(evs, true); got != 1 {
		t.Fatalf("burst delivered %d events, want 1", got)
	}
	// Consumer contract: drain to ErrWouldBlock.
	drained := 0
	for {
		data, _, err := server.RecvSeg(false)
		if err == ErrWouldBlock {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		drained += len(data)
	}
	if drained != 5 {
		t.Fatalf("drained %d bytes, want 5", drained)
	}
	// Nothing pending now.
	if got := p.Wait(evs, false); got != 0 {
		t.Fatalf("idle Wait = %d events, want 0", got)
	}
	// Re-armed: the next push fires again.
	if _, err := client.Send([]byte("y"), 0); err != nil {
		t.Fatal(err)
	}
	ev := waitOne(t, p)
	if ev.Key != 1 {
		t.Fatalf("re-armed event key = %d, want 1", ev.Key)
	}
}

func TestPollEOFAndResetWake(t *testing.T) {
	n := New(GigabitLocal)
	l, _ := n.Listen("srv:1", 4)
	client, server := pollPair(t, n, l)
	client2, server2 := pollPair(t, n, l)

	p := NewPoller()
	defer p.Close()
	if err := p.AddConn(server, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConn(server2, 2); err != nil {
		t.Fatal(err)
	}

	client.CloseWrite() // FIN
	ev := waitOne(t, p)
	if ev.Key != 1 {
		t.Fatalf("FIN event key = %d, want 1", ev.Key)
	}
	if data, _, err := server.RecvSeg(false); err != nil || data != nil {
		t.Fatalf("post-FIN drain = %v, %v; want nil EOF", data, err)
	}

	_ = client2
	server2.Close() // local reset
	ev = waitOne(t, p)
	if ev.Key != 2 {
		t.Fatalf("reset event key = %d, want 2", ev.Key)
	}
	if _, _, err := server2.RecvSeg(false); err != ErrClosed {
		t.Fatalf("post-reset drain = %v, want ErrClosed", err)
	}
}

func TestPollKickWakesAsSpurious(t *testing.T) {
	n := New(GigabitLocal)
	l, _ := n.Listen("srv:1", 4)
	_, server := pollPair(t, n, l)

	p := NewPoller()
	defer p.Close()
	if err := p.AddConn(server, 9); err != nil {
		t.Fatal(err)
	}
	// The kick a resuming splice sends must wake the poller with no
	// state change — delivered as a (legal) spurious event.
	server.rx.kick()
	ev := waitOne(t, p)
	if ev.Key != 9 {
		t.Fatalf("kick event key = %d, want 9", ev.Key)
	}
	if _, _, err := server.RecvSeg(false); err != ErrWouldBlock {
		t.Fatalf("spurious drain = %v, want ErrWouldBlock", err)
	}
}

func TestPollListenerEvents(t *testing.T) {
	n := New(GigabitLocal)
	l, _ := n.Listen("srv:1", 16)

	p := NewPoller()
	defer p.Close()

	// Pending-before-register delivers immediately.
	if _, _, err := n.Connect("srv:1", 0); err != nil {
		t.Fatal(err)
	}
	if err := p.AddListener(l, 3); err != nil {
		t.Fatal(err)
	}
	ev := waitOne(t, p)
	if ev.Listener != l || ev.Key != 3 {
		t.Fatalf("event = %+v, want listener key 3", ev)
	}
	if _, _, err := l.Accept(false); err != nil {
		t.Fatal(err)
	}

	// Re-armed: the next connect fires again; close fires too.
	if _, _, err := n.Connect("srv:1", 0); err != nil {
		t.Fatal(err)
	}
	ev = waitOne(t, p)
	if ev.Listener != l {
		t.Fatalf("second event = %+v", ev)
	}
	l.Accept(false)
	l.Close()
	ev = waitOne(t, p)
	if ev.Listener != l {
		t.Fatalf("close event = %+v", ev)
	}
}

func TestPollConflictAndRemove(t *testing.T) {
	n := New(GigabitLocal)
	l, _ := n.Listen("srv:1", 4)
	client, server := pollPair(t, n, l)

	p1 := NewPoller()
	p2 := NewPoller()
	defer p1.Close()
	defer p2.Close()
	if err := p1.AddConn(server, 1); err != nil {
		t.Fatal(err)
	}
	if err := p2.AddConn(server, 2); err != ErrPollerConflict {
		t.Fatalf("second registration = %v, want ErrPollerConflict", err)
	}
	// Remove tombstones a queued delivery: push, then remove before Wait.
	if _, err := client.Send([]byte("z"), 0); err != nil {
		t.Fatal(err)
	}
	p1.RemoveConn(server)
	evs := make([]Event, 4)
	if got := p1.Wait(evs, false); got != 0 {
		t.Fatalf("removed conn still delivered %d events", got)
	}
	// Re-registration with another poller now succeeds and sees the data.
	if err := p2.AddConn(server, 5); err != nil {
		t.Fatal(err)
	}
	ev := waitOne(t, p2)
	if ev.Key != 5 {
		t.Fatalf("re-registered event key = %d", ev.Key)
	}
}

func TestPollWaitDeadline(t *testing.T) {
	p := NewPoller()
	defer p.Close()
	evs := make([]Event, 1)
	start := time.Now()
	if got := p.WaitDeadline(evs, time.Now().Add(10*time.Millisecond)); got != 0 {
		t.Fatalf("deadline Wait = %d events", got)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("WaitDeadline returned before the deadline")
	}
	// An already-expired deadline returns immediately.
	if got := p.WaitDeadline(evs, time.Now().Add(-time.Second)); got != 0 {
		t.Fatalf("expired-deadline Wait = %d events", got)
	}
}

func TestPollCloseWakesAndDrains(t *testing.T) {
	n := New(GigabitLocal)
	l, _ := n.Listen("srv:1", 4)
	client, server := pollPair(t, n, l)

	p := NewPoller()
	if err := p.AddConn(server, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Send([]byte("q"), 0); err != nil {
		t.Fatal(err)
	}
	// Close must let the queued event drain, then return 0.
	p.Close()
	evs := make([]Event, 4)
	if got := p.Wait(evs, true); got != 1 || evs[0].Key != 1 {
		t.Fatalf("post-Close drain = %d events", got)
	}
	if got := p.Wait(evs, true); got != 0 {
		t.Fatalf("drained poller Wait = %d, want 0 without blocking", got)
	}

	// A blocked Wait is woken by Close.
	p2 := NewPoller()
	released := make(chan struct{})
	go func() {
		p2.Wait(evs, true)
		close(released)
	}()
	time.Sleep(time.Millisecond)
	p2.Close()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake the blocked Wait")
	}
}

// TestPollConcurrentProducers hammers one poller from many producers
// while the consumer drains — run under -race this checks the
// endpoint-lock→poller-lock discipline and that no segment is ever
// missed by edge delivery.
func TestPollConcurrentProducers(t *testing.T) {
	n := New(GigabitLocal)
	l, _ := n.Listen("srv:1", 64)
	const conns = 16
	const perConn = 200

	p := NewPoller()
	defer p.Close()
	clients := make([]*Conn, conns)
	servers := make([]*Conn, conns)
	for i := range clients {
		clients[i], servers[i] = pollPair(t, n, l)
		if err := p.AddConn(servers[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(c *Conn) {
			defer wg.Done()
			for j := 0; j < perConn; j++ {
				if _, err := c.Send([]byte("m"), 0); err != nil {
					t.Error(err)
					return
				}
			}
			c.CloseWrite()
		}(clients[i])
	}

	got := make([]int, conns)
	eof := make([]bool, conns)
	finished := 0
	evs := make([]Event, 32)
	for finished < conns {
		cnt := p.Wait(evs, true)
		if cnt == 0 {
			t.Fatal("poller closed mid-run")
		}
		for e := 0; e < cnt; e++ {
			srv := evs[e].Conn
			idx := int(evs[e].Key)
			for {
				data, _, err := srv.RecvSeg(false)
				if err == ErrWouldBlock {
					break
				}
				if err != nil {
					t.Fatalf("conn %d: %v", idx, err)
				}
				// Edge delivery may report a conn again after its EOF
				// was drained (the FIN's own notify); count it once.
				if data == nil {
					if !eof[idx] {
						eof[idx] = true
						finished++
					}
					break
				}
				got[idx] += len(data)
			}
		}
	}
	wg.Wait()
	for i, g := range got {
		if g != perConn {
			t.Fatalf("conn %d delivered %d bytes, want %d", i, g, perConn)
		}
	}
}

package vnet

import (
	"runtime"
	"testing"
	"time"
)

// setPair builds a front (client<->lbFront) and back (lbBack<->server)
// conn pair the way the balancer does: two listeners, two dials.
func setPair(t *testing.T, n *Network) (client, lbFront, lbBack, server *Conn) {
	t.Helper()
	fl, err := n.Listen("lb:1", 64)
	if err != nil && err != ErrAddrInUse {
		t.Fatal(err)
	}
	if fl == nil {
		t.Fatal("front listen failed")
	}
	bl, err := n.Listen("srv:1", 64)
	if err != nil && err != ErrAddrInUse {
		t.Fatal(err)
	}
	client, _, err = n.Connect("lb:1", 0)
	if err != nil {
		t.Fatal(err)
	}
	lbFront, _, err = fl.Accept(true)
	if err != nil {
		t.Fatal(err)
	}
	lbBack, _, err = n.Connect("srv:1", 0)
	if err != nil {
		t.Fatal(err)
	}
	server, _, err = bl.Accept(true)
	if err != nil {
		t.Fatal(err)
	}
	fl.Close()
	bl.Close()
	return
}

func TestSpliceSetForwardAndEOF(t *testing.T) {
	n := New(GigabitLocal)
	client, lbFront, lbBack, server := setPair(t, n)

	ss := NewSpliceSet(2)
	defer ss.Close()
	done, onDone := doneSignal()
	sp := ss.Splice(lbFront, lbBack, onDone)

	if _, err := client.Send([]byte("request"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	cnt, _, err := server.Recv(buf, true)
	if err != nil || string(buf[:cnt]) != "request" {
		t.Fatalf("server got %q, %v", buf[:cnt], err)
	}
	if _, err := server.Send([]byte("response!"), 0); err != nil {
		t.Fatal(err)
	}
	cnt, _, err = client.Recv(buf, true)
	if err != nil || string(buf[:cnt]) != "response!" {
		t.Fatalf("client got %q, %v", buf[:cnt], err)
	}

	// FIN propagates both ways and the splice completes.
	client.CloseWrite()
	if data, _, err := server.RecvSeg(true); err != nil || data != nil {
		t.Fatalf("server EOF = %v, %v", data, err)
	}
	server.CloseWrite()
	if data, _, err := client.RecvSeg(true); err != nil || data != nil {
		t.Fatalf("client EOF = %v, %v", data, err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("splice did not complete: onDone never fired")
	}
	fwd, rev := sp.Transferred()
	if fwd != 7 || rev != 9 {
		t.Fatalf("transferred = %d/%d, want 7/9", fwd, rev)
	}
}

func TestSpliceSetStartAfterBookkeeping(t *testing.T) {
	n := New(GigabitLocal)
	client, lbFront, lbBack, server := setPair(t, n)

	ss := NewSpliceSet(1)
	defer ss.Close()

	// Traffic and even full completion conditions land before Start:
	// nothing may be forwarded, and onDone must not fire, until armed.
	if _, err := client.Send([]byte("early"), 0); err != nil {
		t.Fatal(err)
	}
	client.CloseWrite()

	done, onDone := doneSignal()
	sp := ss.NewSplice(lbFront, lbBack, onDone)
	time.Sleep(5 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("onDone fired before Start")
	default:
	}
	if _, _, err := server.RecvSeg(false); err != ErrWouldBlock {
		t.Fatalf("data forwarded before Start: %v", err)
	}

	ss.Start(sp)
	buf := make([]byte, 16)
	cnt, _, err := server.Recv(buf, true)
	if err != nil || string(buf[:cnt]) != "early" {
		t.Fatalf("server got %q, %v", buf[:cnt], err)
	}
	if data, _, err := server.RecvSeg(true); err != nil || data != nil {
		t.Fatalf("server EOF = %v, %v", data, err)
	}
	server.CloseWrite()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("splice did not complete: onDone never fired")
	}
}

func TestSpliceSetAbort(t *testing.T) {
	n := New(GigabitLocal)
	client, lbFront, lbBack, _ := setPair(t, n)

	ss := NewSpliceSet(1)
	defer ss.Close()
	done, onDone := doneSignal()
	sp := ss.Splice(lbFront, lbBack, onDone)
	if _, err := client.Send([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	sp.Abort()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("aborted splice did not complete")
	}
}

func TestSpliceSetManyConnsZeroLoss(t *testing.T) {
	n := New(GigabitLocal)
	fl, _ := n.Listen("lb:1", 256)
	bl, _ := n.Listen("srv:1", 256)

	const conns = 64
	const msgs = 20
	ss := NewSpliceSet(4)
	defer ss.Close()

	clients := make([]*Conn, conns)
	servers := make([]*Conn, conns)
	dones := make([]chan struct{}, conns)
	for i := 0; i < conns; i++ {
		c, _, err := n.Connect("lb:1", 0)
		if err != nil {
			t.Fatal(err)
		}
		front, _, err := fl.Accept(true)
		if err != nil {
			t.Fatal(err)
		}
		back, _, err := n.Connect("srv:1", 0)
		if err != nil {
			t.Fatal(err)
		}
		srv, _, err := bl.Accept(true)
		if err != nil {
			t.Fatal(err)
		}
		clients[i], servers[i] = c, srv
		done, onDone := doneSignal()
		dones[i] = done
		ss.Splice(front, back, onDone)
	}

	// Echo servers driven by one poller loop of our own.
	p := NewPoller()
	defer p.Close()
	for i, srv := range servers {
		if err := p.AddConn(srv, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		evs := make([]Event, 32)
		live := conns
		for live > 0 {
			cnt := p.Wait(evs, true)
			if cnt == 0 {
				return
			}
			for e := 0; e < cnt; e++ {
				srv := evs[e].Conn
				for {
					data, arrive, err := srv.RecvSeg(false)
					if err == ErrWouldBlock {
						break
					}
					// A finished server leaves the poller: edge-triggered
					// delivery may still report it, and counting its EOF
					// twice would end the echo loop early.
					if err != nil {
						p.RemoveConn(srv)
						live--
						break
					}
					if data == nil {
						srv.CloseWrite()
						p.RemoveConn(srv)
						live--
						break
					}
					srv.SendSeg(data, arrive)
				}
			}
		}
	}()

	for i, c := range clients {
		go func(i int, c *Conn) {
			for j := 0; j < msgs; j++ {
				c.Send([]byte("ping"), 0)
			}
			c.CloseWrite()
		}(i, c)
	}
	for i, c := range clients {
		got := 0
		for got < msgs*4 {
			data, _, err := c.RecvSeg(true)
			if err != nil || data == nil {
				t.Fatalf("client %d: short read after %d bytes (err %v)", i, got, err)
			}
			got += len(data)
		}
	}
	for _, c := range clients {
		c.Close()
	}
	for i, done := range dones {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("splice %d did not complete", i)
		}
	}
	<-echoDone
}

// TestSpliceSetGoroutineFootprint: N splices cost K loop goroutines,
// not 2N pumps — the whole point of the polled flavour.
func TestSpliceSetGoroutineFootprint(t *testing.T) {
	n := New(GigabitLocal)
	fl, _ := n.Listen("lb:1", 1024)
	bl, _ := n.Listen("srv:1", 1024)

	before := runtime.NumGoroutine()
	ss := NewSpliceSet(4)
	const conns = 300
	for i := 0; i < conns; i++ {
		c, _, err := n.Connect("lb:1", 0)
		if err != nil {
			t.Fatal(err)
		}
		front, _, _ := fl.Accept(true)
		back, _, err := n.Connect("srv:1", 0)
		if err != nil {
			t.Fatal(err)
		}
		bl.Accept(true)
		ss.Splice(front, back, nil)
		_ = c
	}
	after := runtime.NumGoroutine()
	if grown := after - before; grown > 8 {
		t.Fatalf("%d splices grew goroutines by %d, want <= 8 (K loops only)", conns, grown)
	}
	ss.Close()
}

// TestSpliceSetFreezeHarvestReplay: freeze on an event loop is "do not
// drain". A frozen splice leaves new requests and responses queued in
// their rx queues; Unfreeze resumes in place; Handoff harvests the
// queued response, replays the unanswered request, moves the response
// direction's registration onto the successor and kicks the request
// direction, whose queued segment then crosses to the successor. An
// unframed splice reports not freezable.
func TestSpliceSetFreezeHarvestReplay(t *testing.T) {
	n := New(GigabitLocal)
	client, lbFront, lbBack, server := setPair(t, n)
	ss := NewSpliceSet(2)
	defer ss.Close()

	if plain := ss.NewSplice(lbFront, lbBack, nil); plain.Freeze() {
		t.Fatal("unframed splice reported freezable")
	} else {
		ss.Discard(plain)
	}
	done, onDone := doneSignal()
	sp := ss.NewSplice(lbFront, lbBack, onDone)
	sp.SetFraming(4, 8)
	ss.Start(sp)
	idle := func(c *Conn, what string) {
		t.Helper()
		time.Sleep(2 * time.Millisecond)
		if _, _, err := c.RecvSeg(false); err != ErrWouldBlock {
			t.Fatalf("%s crossed a frozen splice: %v", what, err)
		}
	}

	// Frozen: a request stays queued at the front; Unfreeze delivers it.
	if !sp.Freeze() {
		t.Fatal("freeze refused")
	}
	client.Send([]byte("req1"), 0)
	idle(server, "req1")
	sp.Unfreeze()
	if got, _ := recvN(t, server, 4); string(got) != "req1" {
		t.Fatalf("server got %q after unfreeze", got)
	}

	// req2 is forwarded and retained; then, frozen, the backend answers
	// req1 and dies while the client queues req3.
	client.Send([]byte("req2"), 10)
	recvN(t, server, 4)
	if !sp.Freeze() {
		t.Fatal("second freeze refused")
	}
	server.Send([]byte("resp0001"), 20)
	client.Send([]byte("req3"), 30)
	idle(client, "resp0001")
	server.Close()

	bl2, err := n.Listen("srv-b:1", 4)
	if err != nil {
		t.Fatal(err)
	}
	back2, _, err := n.Connect("srv-b:1", sp.LastStamp())
	if err != nil {
		t.Fatal(err)
	}
	server2, _, err := bl2.Accept(true)
	if err != nil {
		t.Fatal(err)
	}
	harvested, replayed, err := sp.Handoff(back2)
	if err != nil || harvested != 8 || replayed != 4 {
		t.Fatalf("handoff = harvested %d, replayed %d, %v; want 8, 4 (req2), nil", harvested, replayed, err)
	}
	if got, _ := recvN(t, client, 8); string(got) != "resp0001" {
		t.Fatalf("client got %q, want harvested resp0001", got)
	}
	// The replayed req2, then the req3 that waited at the front.
	if got, _ := recvN(t, server2, 8); string(got) != "req2req3" {
		t.Fatalf("successor got %q, want req2req3", got)
	}
	server2.Send([]byte("resp0002resp0003"), 40)
	if got, _ := recvN(t, client, 16); string(got) != "resp0002resp0003" {
		t.Fatalf("client got %q from the successor", got)
	}
	if out := sp.Outstanding(); out != 0 {
		t.Fatalf("outstanding = %d after every response, want 0", out)
	}

	client.CloseWrite()
	if data, _, err := server2.RecvSeg(true); err != nil || data != nil {
		t.Fatalf("successor EOF = %q, %v", data, err)
	}
	server2.CloseWrite()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handed-off splice did not complete")
	}
}

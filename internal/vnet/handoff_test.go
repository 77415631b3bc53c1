package vnet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"remon/internal/model"
)

// spliceRig wires client <-> front and back <-> server endpoints on one
// network, splicing front/back, so tests can play both roles.
type spliceRig struct {
	net    *Network
	client *Conn
	front  *Conn
	back   *Conn
	server *Conn
	sp     *Splice
}

func newSpliceRig(t *testing.T, handoff bool, reqSize, respSize int) *spliceRig {
	t.Helper()
	n := New(Loopback)
	lf, err := n.Listen("lb:80", 16)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := n.Listen("srv-a:1", 16)
	if err != nil {
		t.Fatal(err)
	}
	client, _, err := n.Connect("lb:80", 0)
	if err != nil {
		t.Fatal(err)
	}
	front, _, err := lf.Accept(true)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := n.Connect("srv-a:1", 0)
	if err != nil {
		t.Fatal(err)
	}
	server, _, err := ls.Accept(true)
	if err != nil {
		t.Fatal(err)
	}
	ss := NewSpliceSet(1)
	t.Cleanup(ss.Close)
	r := &spliceRig{net: n, client: client, front: front, back: back, server: server}
	r.sp = ss.NewSplice(front, back, nil)
	if handoff {
		r.sp.EnableHandoff(reqSize, respSize)
	}
	ss.Start(r.sp)
	return r
}

// recvN reads exactly n payload bytes from c (blocking), failing the
// test on error/EOF.
func recvN(t *testing.T, c *Conn, n int) ([]byte, model.Duration) {
	t.Helper()
	out := make([]byte, 0, n)
	buf := make([]byte, n)
	var last model.Duration
	for len(out) < n {
		cnt, at, err := c.Recv(buf, true)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if cnt == 0 {
			t.Fatalf("unexpected EOF after %d/%d bytes", len(out), n)
		}
		out = append(out, buf[:cnt]...)
		last = at
	}
	return out, last
}

func TestHandoffSpliceForwardsLikePlain(t *testing.T) {
	r := newSpliceRig(t, true, 4, 8)
	if _, err := r.client.Send([]byte("req1"), 0); err != nil {
		t.Fatal(err)
	}
	got, _ := recvN(t, r.server, 4)
	if string(got) != "req1" {
		t.Fatalf("server got %q", got)
	}
	if _, err := r.server.Send([]byte("resp0001"), 0); err != nil {
		t.Fatal(err)
	}
	resp, _ := recvN(t, r.client, 8)
	if string(resp) != "resp0001" {
		t.Fatalf("client got %q", resp)
	}
	if out := r.sp.Outstanding(); out != 0 {
		t.Fatalf("outstanding after acked round trip = %d, want 0", out)
	}
	r.client.Close()
	r.sp.Abort()
	<-r.sp.Done()
}

// TestHandoffFreezeHarvestReplay is the core migration protocol test:
// a response queued at the dead backend is harvested (and acknowledges
// its request), the unanswered tail is replayed to the successor with
// stamps preserved, and the splice resumes mid-flight.
func TestHandoffFreezeHarvestReplay(t *testing.T) {
	r := newSpliceRig(t, true, 4, 8)
	ls2, err := r.net.Listen("srv-b:1", 16)
	if err != nil {
		t.Fatal(err)
	}

	// Round trip 1 completes normally.
	r.client.Send([]byte("req1"), 0)
	recvN(t, r.server, 4)
	r.server.Send([]byte("resp0001"), 10)
	recvN(t, r.client, 8)

	// Requests 2 and 3 go out; the backend answers neither yet.
	r.client.Send([]byte("req2"), 20)
	r.client.Send([]byte("req3"), 30)
	recvN(t, r.server, 8)
	if out := r.sp.Outstanding(); out != 8 {
		t.Fatalf("outstanding = %d, want 8", out)
	}

	// Freeze, then let the dying backend emit resp2 into the queue the
	// loop is no longer draining, and die.
	if !r.sp.Freeze() {
		t.Fatal("freeze did not quiesce")
	}
	r.server.Send([]byte("resp0002"), 40)
	r.server.Close()

	// Successor leg.
	back2, _, err := r.net.Connect("srv-b:1", r.sp.LastStamp())
	if err != nil {
		t.Fatal(err)
	}
	server2, _, err := ls2.Accept(true)
	if err != nil {
		t.Fatal(err)
	}
	harvested, replayed, err := r.sp.Handoff(back2)
	if err != nil {
		t.Fatal(err)
	}
	if harvested != 8 {
		t.Fatalf("harvested %d bytes, want 8 (resp2)", harvested)
	}
	if replayed != 4 {
		t.Fatalf("replayed %d bytes, want 4 (req3 only: resp2's harvest acked req2)", replayed)
	}

	// The harvested response reaches the client...
	resp, _ := recvN(t, r.client, 8)
	if string(resp) != "resp0002" {
		t.Fatalf("client got %q, want harvested resp0002", resp)
	}
	// ...and the successor sees exactly the unanswered request, with its
	// original send stamp preserved (arrival = stamp + transfer).
	got, at := recvN(t, server2, 4)
	if string(got) != "req3" {
		t.Fatalf("successor got %q, want req3", got)
	}
	// The retained stamp is req3's arrival at the balancer, so the
	// replayed copy lands exactly where normal forwarding would have
	// put it: two transfer hops from the original send at 30.
	if want := Loopback.TransferTime(Loopback.TransferTime(30, 4), 4); at != want {
		t.Fatalf("replayed req3 arrived at %v, want original-stamp %v", at, want)
	}

	// The splice is live again end to end.
	server2.Send([]byte("resp0003"), 50)
	resp, _ = recvN(t, r.client, 8)
	if string(resp) != "resp0003" {
		t.Fatalf("client got %q", resp)
	}
	r.client.Send([]byte("req4"), 60)
	got, _ = recvN(t, server2, 4)
	if string(got) != "req4" {
		t.Fatalf("successor got %q after resume", got)
	}
	if out := r.sp.Outstanding(); out != 4 {
		t.Fatalf("outstanding = %d, want 4 (req4 unanswered)", out)
	}
	if rep := r.sp.Replayed(); rep != 4 {
		t.Fatalf("Replayed() = %d, want 4", rep)
	}
	r.sp.Abort()
	<-r.sp.Done()
}

// TestHandoffBackDeathParksInsteadOfEOF: the response direction must not
// propagate a dead backend's FIN to a client that is still owed
// responses — it parks until a handoff supplies a successor.
func TestHandoffBackDeathParksInsteadOfEOF(t *testing.T) {
	r := newSpliceRig(t, true, 4, 8)
	ls2, err := r.net.Listen("srv-b:1", 16)
	if err != nil {
		t.Fatal(err)
	}

	r.client.Send([]byte("req1"), 0)
	recvN(t, r.server, 4)
	r.server.Close() // backend dies with req1 unanswered

	// The client must see nothing — no EOF, no reset.
	if _, _, err := r.client.Recv(make([]byte, 8), false); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("client saw %v, want parked stream (would-block)", err)
	}

	if !r.sp.Freeze() {
		t.Fatal("freeze did not quiesce a back-dead splice")
	}
	back2, _, err := r.net.Connect("srv-b:1", r.sp.LastStamp())
	if err != nil {
		t.Fatal(err)
	}
	server2, _, err := ls2.Accept(true)
	if err != nil {
		t.Fatal(err)
	}
	if _, replayed, err := r.sp.Handoff(back2); err != nil || replayed != 4 {
		t.Fatalf("handoff = replayed %d, %v; want 4, nil", replayed, err)
	}
	got, _ := recvN(t, server2, 4)
	if string(got) != "req1" {
		t.Fatalf("successor got %q", got)
	}
	server2.Send([]byte("resp0001"), 10)
	resp, _ := recvN(t, r.client, 8)
	if string(resp) != "resp0001" {
		t.Fatalf("client got %q", resp)
	}
	r.sp.Abort()
	<-r.sp.Done()
}

// TestHandoffCleanFINStillPropagates: a backend FIN after the client's
// own FIN is ordinary teardown, not death — it must flow through so
// connections can close normally.
func TestHandoffCleanFINPropagates(t *testing.T) {
	r := newSpliceRig(t, true, 4, 8)
	r.client.Send([]byte("req1"), 0)
	recvN(t, r.server, 4)
	r.server.Send([]byte("resp0001"), 10)
	recvN(t, r.client, 8)

	r.client.CloseWrite()
	// Server sees the FIN...
	if n, _, err := r.server.Recv(make([]byte, 8), true); err != nil || n != 0 {
		t.Fatalf("server FIN read = %d, %v", n, err)
	}
	r.server.CloseWrite()
	// ...and the client gets the FIN back instead of a parked stream.
	deadline := time.Now().Add(2 * time.Second)
	for {
		n, _, err := r.client.Recv(make([]byte, 8), false)
		if err == nil && n == 0 {
			break // EOF
		}
		if errors.Is(err, ErrWouldBlock) {
			if time.Now().After(deadline) {
				t.Fatal("client never saw the clean FIN")
			}
			time.Sleep(50 * time.Microsecond)
			continue
		}
		t.Fatalf("client read = %d, %v", n, err)
	}
	<-r.sp.Done()
}

// TestSpliceTeardownRace (satellite): concurrent Abort vs in-flight
// sends, for both splice flavours, under -race. No double-close panic,
// and once the cut settles the backend observes a terminal stream: it
// may drain segments already queued, but after the first terminal read
// nothing is ever delivered again.
func TestSpliceTeardownRace(t *testing.T) {
	for _, handoff := range []bool{false, true} {
		name := "plain"
		if handoff {
			name = "handoff"
		}
		t.Run(name, func(t *testing.T) {
			for iter := 0; iter < 50; iter++ {
				r := newSpliceRig(t, handoff, 4, 8)
				var wg sync.WaitGroup
				wg.Add(2)
				// Client hammers sends while the splice is cut under it.
				go func() {
					defer wg.Done()
					now := model.Duration(0)
					for i := 0; i < 200; i++ {
						at, err := r.client.Send([]byte("pkt!"), now)
						if err != nil {
							return
						}
						now = at
					}
				}()
				go func() {
					defer wg.Done()
					r.sp.Abort()
					r.sp.Abort() // idempotent: second cut must be a no-op
				}()
				wg.Wait()
				<-r.sp.Done()

				// Drain the backend: queued segments may arrive, then the
				// stream must be terminal — and stay terminal.
				buf := make([]byte, 64)
				terminal := false
				for i := 0; i < 300 && !terminal; i++ {
					n, _, err := r.server.Recv(buf, false)
					switch {
					case err != nil && !errors.Is(err, ErrWouldBlock):
						terminal = true // reset
					case err == nil && n == 0:
						terminal = true // EOF
					case errors.Is(err, ErrWouldBlock):
						time.Sleep(20 * time.Microsecond)
					}
				}
				if !terminal {
					t.Fatal("backend stream never terminated after cut")
				}
				if n, _, err := r.server.Recv(buf, false); err == nil && n > 0 {
					t.Fatalf("segment delivered after terminal cut: %d bytes", n)
				}
				r.client.Close()
				r.server.Close()
			}
		})
	}
}

// TestFreezeAbortRace: Abort racing Freeze must neither deadlock nor
// leave a frozen direction unretired — Done always fires.
func TestFreezeAbortRace(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		r := newSpliceRig(t, true, 4, 8)
		r.client.Send([]byte("req1"), 0)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			r.sp.Freeze()
		}()
		go func() {
			defer wg.Done()
			r.sp.Abort()
		}()
		wg.Wait()
		select {
		case <-r.sp.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("splice never finished after freeze/abort race")
		}
		if _, _, err := r.sp.Handoff(r.back); !errors.Is(err, ErrSpliceAborted) && !errors.Is(err, ErrNotFrozen) {
			t.Fatalf("handoff after abort = %v", err)
		}
	}
}

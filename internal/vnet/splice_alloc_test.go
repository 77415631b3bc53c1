package vnet

import (
	"bytes"
	"testing"
	"unsafe"

	"remon/internal/model"
)

// spliceEndpoints builds the four-connection topology a splice forwards
// between: client <-> fconn (front net) and bconn <-> server (back net).
func spliceEndpoints(t *testing.T) (client, fconn, bconn, server *Conn) {
	t.Helper()
	front := New(GigabitLocal)
	back := New(Loopback)
	fl, err := front.Listen("lb:80", 16)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := back.Listen("shard:9000", 16)
	if err != nil {
		t.Fatal(err)
	}
	client, _, err = front.Connect("lb:80", 0)
	if err != nil {
		t.Fatal(err)
	}
	fconn, at, err := fl.Accept(true)
	if err != nil {
		t.Fatal(err)
	}
	bconn, _, err = back.Connect("shard:9000", at)
	if err != nil {
		t.Fatal(err)
	}
	server, _, err = bl.Accept(true)
	if err != nil {
		t.Fatal(err)
	}
	return client, fconn, bconn, server
}

// TestSegForwardingAliasesPayload proves the zero-copy discipline: the
// slice a splice-style forwarder receives from one connection and sends
// into the next is the transmitted payload itself — no intermediate
// byte-slice copy — and the virtual arrival stamps match what the
// copying pump produced (the receiver is charged both hops' link costs).
func TestSegForwardingAliasesPayload(t *testing.T) {
	client, fconn, bconn, server := spliceEndpoints(t)
	_ = bconn

	payload := []byte("GET /index.html")
	if _, err := client.Send(payload, 0); err != nil {
		t.Fatal(err)
	}
	seg, arrive, err := fconn.RecvSeg(true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seg, payload) {
		t.Fatalf("segment %q, want %q", seg, payload)
	}
	wantArrive := GigabitLocal.TransferTime(0, len(payload))
	if arrive != wantArrive {
		t.Fatalf("front arrival %v, want %v", arrive, wantArrive)
	}
	if _, err := bconn.SendSeg(seg, arrive); err != nil {
		t.Fatal(err)
	}
	out, arrive2, err := server.RecvSeg(true)
	if err != nil {
		t.Fatal(err)
	}
	// Ownership transfer all the way through: the server receives the
	// identical backing array the client transmitted into the front net
	// (Send makes the one defensive copy at the edge; the forwarder adds
	// none).
	if &out[0] != &seg[0] {
		t.Fatal("forwarded segment was copied; want the aliased payload")
	}
	if want := Loopback.TransferTime(wantArrive, len(payload)); arrive2 != want {
		t.Fatalf("back arrival %v, want %v", arrive2, want)
	}
}

// TestSpliceZeroAllocSteadyState pins the forwarder's steady-state
// allocation count at zero, on two inputs:
//
//   - the bare segment path: once the rx queues are warm, RecvSeg +
//     SendSeg move a segment between connections without allocating;
//   - a framed splice on a one-loop SpliceSet, driven through
//     request/response round trips with at most two requests
//     outstanding: the event loop's per-segment step, the retained
//     request log (its two inline slots are reused once acked) and the
//     ack trim allocate nothing per round trip. This is the allocation
//     budget of every balancer connection.
func TestSpliceZeroAllocSteadyState(t *testing.T) {
	_, fconn, bconn, server := spliceEndpoints(t)

	payload := make([]byte, 4096)
	now := model.Duration(0)
	forward := func() {
		// Inject straight into the forwarder-side rx (bypassing Send's
		// one defensive copy at the network edge), pump one segment
		// through the splice path, and drain it at the server.
		fconn.rx.push(payload, now)
		seg, arrive, err := fconn.RecvSeg(true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bconn.SendSeg(seg, arrive); err != nil {
			t.Fatal(err)
		}
		if _, _, err := server.RecvSeg(true); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the queues (slice-header storage) outside the measured region.
	for i := 0; i < 8; i++ {
		forward()
	}
	if allocs := testing.AllocsPerRun(200, forward); allocs != 0 {
		t.Fatalf("splice forwarding path allocates %.1f per segment; want 0", allocs)
	}

	client, fconn, bconn, server := spliceEndpoints(t)
	ss := NewSpliceSet(1)
	defer ss.Close()
	sp := ss.NewSplice(fconn, bconn, nil)
	sp.SetFraming(64, 256)
	ss.Start(sp)
	req, resp := make([]byte, 64), make([]byte, 256)
	recv := func(c *Conn) model.Duration {
		data, at, err := c.RecvSeg(true)
		if err != nil || data == nil {
			t.Fatalf("recv = %d bytes, %v", len(data), err)
		}
		return at
	}
	roundTrips := func() {
		// SendSeg, not Send: the client's defensive copy is the
		// client's cost, not the splice's.
		for i := 0; i < 2; i++ {
			if _, err := client.SendSeg(req, now); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			if _, err := server.SendSeg(resp, recv(server)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			now = recv(client)
		}
	}
	for i := 0; i < 8; i++ {
		roundTrips()
	}
	if allocs := testing.AllocsPerRun(200, roundTrips); allocs != 0 {
		t.Fatalf("framed splice allocates %.2f per two round trips; want 0", allocs)
	}
	if out := sp.Outstanding(); out != 0 {
		t.Fatalf("outstanding after every response = %d, want 0", out)
	}
}

// TestRxQueueFitsOneCacheLine pins the receive queue at 64 bytes: its
// wait queue is one pointer, so a connection's two rx queues stay in the
// 64-byte size class.
func TestRxQueueFitsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(rxQueue{}); n != 64 {
		t.Fatalf("rxQueue is %d bytes, want 64", n)
	}
}

package vnet

import (
	"errors"
	"sync"
	"testing"

	"remon/internal/model"
)

func TestConnectAcceptTransfer(t *testing.T) {
	n := New(GigabitLocal)
	l, err := n.Listen("srv:80", 16)
	if err != nil {
		t.Fatal(err)
	}
	client, established, err := n.Connect("srv:80", 0)
	if err != nil {
		t.Fatal(err)
	}
	if established != 2*GigabitLocal.Latency {
		t.Fatalf("client established at %v, want one RTT %v", established, 2*GigabitLocal.Latency)
	}
	server, arrive, err := l.Accept(true)
	if err != nil {
		t.Fatal(err)
	}
	if arrive != GigabitLocal.Latency {
		t.Fatalf("server saw SYN at %v, want %v", arrive, GigabitLocal.Latency)
	}

	if _, err := client.Send([]byte("GET /"), established); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	cnt, at, err := server.Recv(buf, true)
	if err != nil || cnt != 5 {
		t.Fatalf("server Recv = %d, %v", cnt, err)
	}
	if string(buf[:cnt]) != "GET /" {
		t.Fatalf("payload %q", buf[:cnt])
	}
	wantArrive := GigabitLocal.TransferTime(established, 5)
	if at != wantArrive {
		t.Fatalf("data arrival %v, want %v", at, wantArrive)
	}
}

func TestConnectRefused(t *testing.T) {
	n := New(GigabitLocal)
	if _, _, err := n.Connect("nobody:1", 0); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("connect to unbound = %v", err)
	}
}

func TestListenAddrInUse(t *testing.T) {
	n := New(GigabitLocal)
	if _, err := n.Listen("a:1", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("a:1", 0); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("double listen = %v", err)
	}
}

func TestListenerCloseUnbinds(t *testing.T) {
	n := New(GigabitLocal)
	l, err := n.Listen("a:1", 0)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := n.Listen("a:1", 0); err != nil {
		t.Fatalf("re-listen after close = %v", err)
	}
	if _, _, err := l.Accept(true); !errors.Is(err, ErrListenerClosed) {
		t.Fatalf("accept on closed listener = %v", err)
	}
}

func TestBacklogLimit(t *testing.T) {
	n := New(GigabitLocal)
	n.SetConnectWait(0) // refuse immediately instead of camping on the SYN queue
	if _, err := n.Listen("b:1", 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := n.Connect("b:1", 0); err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
	}
	if _, _, err := n.Connect("b:1", 0); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("over-backlog connect = %v", err)
	}
}

// TestBacklogWaitsForRoom: a connect against a full accept queue parks
// until Accept opens room (listen(2) SYN-queue semantics) instead of
// refusing while the listener is live.
func TestBacklogWaitsForRoom(t *testing.T) {
	n := New(Loopback)
	l, err := n.Listen("b:2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.Connect("b:2", 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := n.Connect("b:2", 0) // queue full: must wait, not refuse
		done <- err
	}()
	if _, _, err := l.Accept(true); err != nil { // opens room
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("waiting connect = %v, want success after Accept", err)
	}
	if _, _, err := l.Accept(true); err != nil {
		t.Fatalf("second accept = %v", err)
	}
}

// TestBacklogStorm hammers one small-backlog listener from 100 goroutines:
// every connect that reports success must be accepted exactly once (no
// lost established connections, no double-accepts), and its payload must
// arrive intact.
func TestBacklogStorm(t *testing.T) {
	n := New(Loopback)
	const storm = 100
	l, err := n.Listen("storm:80", 4)
	if err != nil {
		t.Fatal(err)
	}

	accepted := make(chan *Conn, storm)
	go func() {
		for {
			c, _, err := l.Accept(true)
			if err != nil {
				close(accepted)
				return
			}
			accepted <- c
		}
	}()

	var wg sync.WaitGroup
	var okCount, refused int32
	var mu sync.Mutex
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, est, err := n.Connect("storm:80", 0)
			if err != nil {
				mu.Lock()
				refused++
				mu.Unlock()
				return
			}
			mu.Lock()
			okCount++
			mu.Unlock()
			if _, err := c.Send([]byte{byte(id)}, est); err != nil {
				t.Errorf("conn %d: send after established connect: %v", id, err)
			}
		}(i)
	}
	wg.Wait()
	if refused != 0 {
		t.Fatalf("%d/%d storm connects refused with a live accepting listener", refused, storm)
	}

	// Drain exactly okCount server conns, each delivering one distinct id.
	seen := map[byte]bool{}
	for i := int32(0); i < okCount; i++ {
		c := <-accepted
		buf := make([]byte, 4)
		cnt, _, err := c.Recv(buf, true)
		if err != nil || cnt != 1 {
			t.Fatalf("server recv = %d, %v", cnt, err)
		}
		if seen[buf[0]] {
			t.Fatalf("connection id %d accepted twice", buf[0])
		}
		seen[buf[0]] = true
	}
	l.Close()
	if extra, ok := <-accepted; ok && extra != nil {
		t.Fatalf("double-accept: listener produced more conns than establishments")
	}
	if len(seen) != storm {
		t.Fatalf("%d/%d established connections reached the server", len(seen), storm)
	}
}

// TestBacklogStormCloseUnblocksWaiters: closing the listener mid-storm
// refuses parked connectors instead of hanging them.
func TestBacklogStormCloseUnblocksWaiters(t *testing.T) {
	n := New(Loopback)
	l, err := n.Listen("storm:81", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.Connect("storm:81", 0); err != nil { // fills the queue
		t.Fatal(err)
	}
	results := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, _, err := n.Connect("storm:81", 0)
			results <- err
		}()
	}
	l.Close()
	for i := 0; i < 8; i++ {
		if err := <-results; !errors.Is(err, ErrConnRefused) {
			t.Fatalf("parked connect after close = %v, want refused", err)
		}
	}
}

// testSplice forwards between a and b on a one-loop SpliceSet that
// the test's cleanup closes; the channel closes when the splice's
// onDone fires.
func testSplice(t *testing.T, a, b *Conn) (*Splice, chan struct{}) {
	t.Helper()
	ss := NewSpliceSet(1)
	t.Cleanup(ss.Close)
	done, onDone := doneSignal()
	return ss.Splice(a, b, onDone), done
}

// doneSignal returns an onDone callback that closes the returned
// channel: how a test waits for a splice to finish.
func doneSignal() (chan struct{}, func(*Splice)) {
	done := make(chan struct{})
	return done, func(*Splice) { close(done) }
}

// TestSpliceForwardsBothWays: the balancer splice relays request and
// response bytes between two connections, preserving virtual arrival
// stamps (the client pays both hops' link costs and nothing more).
func TestSpliceForwardsBothWays(t *testing.T) {
	front := New(LowLatency2ms)
	back := New(Loopback)
	fl, err := front.Listen("lb:80", 16)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := back.Listen("shard:9000", 16)
	if err != nil {
		t.Fatal(err)
	}

	client, est, err := front.Connect("lb:80", 0)
	if err != nil {
		t.Fatal(err)
	}
	fconn, at, err := fl.Accept(true)
	if err != nil {
		t.Fatal(err)
	}
	bconn, _, err := back.Connect("shard:9000", at)
	if err != nil {
		t.Fatal(err)
	}
	server, _, err := bl.Accept(true)
	if err != nil {
		t.Fatal(err)
	}
	s, done := testSplice(t, fconn, bconn)

	if _, err := client.Send([]byte("ping"), est); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	cnt, reqAt, err := server.Recv(buf, true)
	if err != nil || cnt != 4 || string(buf[:4]) != "ping" {
		t.Fatalf("server got %q (%d, %v)", buf[:cnt], cnt, err)
	}
	// Two hops: front link latency + serialisation, then back link again.
	wantMin := LowLatency2ms.TransferTime(est, 4)
	if reqAt < wantMin {
		t.Fatalf("request arrived at %v, earlier than one front hop %v", reqAt, wantMin)
	}
	if _, err := server.Send([]byte("pong"), reqAt); err != nil {
		t.Fatal(err)
	}
	cnt, respAt, err := client.Recv(buf, true)
	if err != nil || cnt != 4 || string(buf[:4]) != "pong" {
		t.Fatalf("client got %q (%d, %v)", buf[:cnt], cnt, err)
	}
	if respAt <= reqAt {
		t.Fatalf("response arrival %v not after request arrival %v", respAt, reqAt)
	}

	// Client close propagates as a one-way FIN: the server drains then
	// sees EOF, and the splice stays up until the server side finishes
	// too (a half-closing client must not lose an in-flight response).
	client.Close()
	if cnt, _, _ := server.Recv(buf, true); cnt != 0 {
		t.Fatal("server did not see EOF after client close")
	}
	server.Close()
	<-done
	fwd, rev := s.Transferred()
	if fwd != 4 || rev != 4 {
		t.Fatalf("splice transferred (%d, %d), want (4, 4)", fwd, rev)
	}
}

// TestSpliceHalfCloseDeliversResponse: a client that half-closes right
// after its last request still receives the response — the forward EOF
// must propagate as a one-way FIN, not abort the reverse direction.
func TestSpliceHalfCloseDeliversResponse(t *testing.T) {
	n := New(Loopback)
	fl, err := n.Listen("lb:90", 4)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := n.Listen("shard:90", 4)
	if err != nil {
		t.Fatal(err)
	}
	client, est, err := n.Connect("lb:90", 0)
	if err != nil {
		t.Fatal(err)
	}
	fconn, at, _ := fl.Accept(true)
	bconn, _, err := n.Connect("shard:90", at)
	if err != nil {
		t.Fatal(err)
	}
	server, _, _ := bl.Accept(true)
	_, done := testSplice(t, fconn, bconn)

	// Fire-and-half-close: request out, write side shut immediately.
	if _, err := client.Send([]byte("req!"), est); err != nil {
		t.Fatal(err)
	}
	client.CloseWrite()

	buf := make([]byte, 16)
	cnt, reqAt, err := server.Recv(buf, true)
	if err != nil || cnt != 4 {
		t.Fatalf("server recv = %d, %v", cnt, err)
	}
	if cnt, _, _ := server.Recv(buf, true); cnt != 0 {
		t.Fatal("server did not see the forwarded FIN")
	}
	// The response must still cross the splice.
	if _, err := server.Send([]byte("resp"), reqAt); err != nil {
		t.Fatalf("server response after client half-close: %v", err)
	}
	cnt, _, err = client.Recv(buf, true)
	if err != nil || cnt != 4 || string(buf[:4]) != "resp" {
		t.Fatalf("client got %q (%d, %v), want response after half-close", buf[:cnt], cnt, err)
	}
	server.Close()
	client.Close()
	<-done
}

// TestSpliceAbortCutsBothSides: Abort resets both endpoints — the
// quarantine path for in-flight connections of a dead shard.
func TestSpliceAbortCutsBothSides(t *testing.T) {
	n := New(Loopback)
	l, err := n.Listen("s:1", 4)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := n.Connect("s:1", 0)
	if err != nil {
		t.Fatal(err)
	}
	sa, _, _ := l.Accept(true)
	b, _, err := n.Connect("s:1", 0)
	if err != nil {
		t.Fatal(err)
	}
	sb, _, _ := l.Accept(true)

	s, done := testSplice(t, sa, sb)
	s.Abort()
	<-done
	// Both outer endpoints must observe the cut (EOF or reset) instead of
	// blocking forever — this is what un-wedges clients of a quarantined
	// shard.
	buf := make([]byte, 4)
	if n, _, err := a.Recv(buf, true); n != 0 && err == nil {
		t.Fatalf("endpoint a still receiving after abort: n=%d err=%v", n, err)
	}
	if n, _, err := b.Recv(buf, true); n != 0 && err == nil {
		t.Fatalf("endpoint b still receiving after abort: n=%d err=%v", n, err)
	}
}

func TestEOFAfterClose(t *testing.T) {
	n := New(Loopback)
	l, _ := n.Listen("s:1", 0)
	c, est, _ := n.Connect("s:1", 0)
	s, _, err := l.Accept(true)
	if err != nil {
		t.Fatal(err)
	}
	c.Send([]byte("bye"), est)
	c.Close()
	buf := make([]byte, 8)
	cnt, _, err := s.Recv(buf, true)
	if err != nil || cnt != 3 {
		t.Fatalf("drain = %d, %v", cnt, err)
	}
	cnt, _, err = s.Recv(buf, true)
	if cnt != 0 || err != nil {
		t.Fatalf("EOF = %d, %v; want 0, nil", cnt, err)
	}
	// Sending on a closed conn fails.
	if _, err := c.Send([]byte("x"), est); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close = %v", err)
	}
}

func TestNonBlockingRecv(t *testing.T) {
	n := New(Loopback)
	l, _ := n.Listen("s:2", 0)
	c, est, _ := n.Connect("s:2", 0)
	s, _, _ := l.Accept(true)
	if _, _, err := s.Recv(make([]byte, 1), false); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("empty non-blocking recv = %v", err)
	}
	if s.ReadableNow() {
		t.Fatal("ReadableNow on empty conn")
	}
	c.Send([]byte("z"), est)
	if !s.ReadableNow() {
		t.Fatal("ReadableNow false after send")
	}
	cnt, _, err := s.Recv(make([]byte, 1), false)
	if err != nil || cnt != 1 {
		t.Fatalf("non-blocking recv with data = %d, %v", cnt, err)
	}
}

func TestLatencyProfilesOrdering(t *testing.T) {
	if !(Loopback.Latency < GigabitLocal.Latency &&
		GigabitLocal.Latency < LowLatency2ms.Latency &&
		LowLatency2ms.Latency < Simulated5ms.Latency) {
		t.Fatal("link profiles out of order")
	}
}

func TestTransferTimeMonotone(t *testing.T) {
	l := LowLatency2ms
	if l.TransferTime(0, 100) >= l.TransferTime(0, 10000) {
		t.Fatal("TransferTime not increasing in size")
	}
	if l.TransferTime(0, 0) != l.Latency {
		t.Fatal("zero-byte transfer should cost exactly latency")
	}
}

func TestPartialSegmentRead(t *testing.T) {
	n := New(Loopback)
	l, _ := n.Listen("s:3", 0)
	c, est, _ := n.Connect("s:3", 0)
	s, _, _ := l.Accept(true)
	c.Send([]byte("abcdef"), est)
	buf := make([]byte, 2)
	var got []byte
	for len(got) < 6 {
		cnt, _, err := s.Recv(buf, true)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:cnt]...)
	}
	if string(got) != "abcdef" {
		t.Fatalf("reassembled %q", got)
	}
}

func TestMultipleSegmentsCoalesce(t *testing.T) {
	n := New(Loopback)
	l, _ := n.Listen("s:4", 0)
	c, est, _ := n.Connect("s:4", 0)
	s, _, _ := l.Accept(true)
	c.Send([]byte("aa"), est)
	c.Send([]byte("bb"), est+100)
	buf := make([]byte, 8)
	cnt, at, err := s.Recv(buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 4 || string(buf[:4]) != "aabb" {
		t.Fatalf("coalesced read = %d %q", cnt, buf[:cnt])
	}
	// Arrival time is that of the last byte delivered.
	want := Loopback.TransferTime(est+100, 2)
	if at != want {
		t.Fatalf("arrival = %v, want %v", at, want)
	}
}

type countNotifier struct {
	mu sync.Mutex
	n  int
}

func (c *countNotifier) Notify() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *countNotifier) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func TestNotifierFires(t *testing.T) {
	n := New(Loopback)
	cn := &countNotifier{}
	n.SetNotifier(cn)
	l, _ := n.Listen("s:5", 0)
	c, est, _ := n.Connect("s:5", 0)
	if cn.count() == 0 {
		t.Fatal("no notification on connect")
	}
	before := cn.count()
	s, _, _ := l.Accept(true)
	c.Send([]byte("x"), est)
	if cn.count() <= before {
		t.Fatal("no notification on send")
	}
	before = cn.count()
	s.Close()
	if cn.count() <= before {
		t.Fatal("no notification on close")
	}
}

func TestConcurrentClients(t *testing.T) {
	n := New(GigabitLocal)
	l, _ := n.Listen("srv:80", 128)
	const clients = 32
	var wg sync.WaitGroup
	// Server echo loop.
	go func() {
		for {
			s, at, err := l.Accept(true)
			if err != nil {
				return
			}
			go func(s *Conn, at model.Duration) {
				buf := make([]byte, 16)
				for {
					cnt, recvAt, err := s.Recv(buf, true)
					if err != nil || cnt == 0 {
						s.Close()
						return
					}
					if _, err := s.Send(buf[:cnt], recvAt); err != nil {
						return
					}
				}
			}(s, at)
		}
	}()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, est, err := n.Connect("srv:80", model.Duration(i)*model.Microsecond)
			if err != nil {
				t.Errorf("client %d connect: %v", i, err)
				return
			}
			defer c.Close()
			msg := []byte{byte(i), byte(i + 1)}
			if _, err := c.Send(msg, est); err != nil {
				t.Errorf("client %d send: %v", i, err)
				return
			}
			buf := make([]byte, 4)
			cnt, _, err := c.Recv(buf, true)
			if err != nil || cnt != 2 || buf[0] != byte(i) {
				t.Errorf("client %d echo = %d %v %v", i, cnt, buf[:cnt], err)
			}
		}(i)
	}
	wg.Wait()
	l.Close()
}

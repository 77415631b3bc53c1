package fleet

import (
	"errors"
	"testing"
	"time"

	"remon/internal/vnet"
)

// pinConn opens a front connection, completes one round trip (so the
// splice is tracked and the route recorded), and returns it with the
// shard it landed on.
func pinConn(t *testing.T, f *Fleet) (*vnet.Conn, int) {
	t.Helper()
	c, now, err := f.FrontNetwork().Connect(f.FrontAddr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	req := make([]byte, 32)
	sent, err := c.Send(req, now)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	buf := make([]byte, 4096)
	for got < 128 {
		n, _, err := c.Recv(buf, true)
		if err != nil || n == 0 {
			t.Fatalf("pin round trip: %d bytes then (%d, %v)", got, n, err)
		}
		got += n
	}
	_ = sent
	idx, _, ok := f.RouteOf(c.LocalAddr())
	if !ok {
		t.Fatal("route not recorded")
	}
	return c, idx
}

// recvBytes drains c until want payload bytes arrived, with a
// non-blocking watchdog so a lost response fails the test instead of
// hanging it. Returns bytes received and the terminal error, if any.
func recvBytes(c *vnet.Conn, want int, timeout time.Duration) (int, error) {
	buf := make([]byte, 4096)
	got := 0
	deadline := time.Now().Add(timeout)
	for got < want {
		n, _, err := c.Recv(buf, false)
		if errors.Is(err, vnet.ErrWouldBlock) {
			if time.Now().After(deadline) {
				return got, errors.New("timeout")
			}
			time.Sleep(100 * time.Microsecond)
			continue
		}
		if err != nil {
			return got, err
		}
		if n == 0 {
			return got, errors.New("EOF")
		}
		got += n
	}
	return got, nil
}

// TestHandoffZeroLossOnQuarantine: a connection with outstanding
// requests on a shard that diverges completes every request — the
// in-flight tail is harvested/replayed onto a successor instead of cut.
func TestHandoffZeroLossOnQuarantine(t *testing.T) {
	f, err := New(quickCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	c, idx := pinConn(t, f)
	defer c.Close()

	if err := f.InjectDivergence(idx); err != nil {
		t.Fatal(err)
	}
	// Three more requests back to back; the first trips the compromised
	// master, so their responses span the failover.
	req := make([]byte, 32)
	now, _ := c.Send(req, 0)
	now, _ = c.Send(req, now)
	if _, err := c.Send(req, now); err != nil {
		t.Fatal(err)
	}

	got, rerr := recvBytes(c, 3*128, 30*time.Second)
	if rerr != nil {
		t.Fatalf("lost responses: %d/%d bytes then %v", got, 3*128, rerr)
	}
	if !f.WaitRecoveries(1, 30*time.Second) {
		t.Fatal("divergence recovery never completed")
	}
	st := f.Stats()
	if st.Handoffs == 0 {
		t.Fatalf("no handoffs recorded: %+v", st)
	}
	if st.Failovers != 0 {
		t.Fatalf("handoff run cut %d connections", st.Failovers)
	}
	if lats := f.HandoffLatencies(); len(lats) == 0 {
		t.Fatal("no handoff latencies recorded")
	}
}

// TestHandoffDisabledCutsParity pins the one remaining cut path: a
// closing fleet has no successor to hand a connection to, so a
// connection with a request still in flight when the fleet closes is
// cut — the failover counter moves, nothing is migrated, and the
// client's next round trip gets nothing back.
func TestHandoffDisabledCutsParity(t *testing.T) {
	f, err := New(quickCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	c, _ := pinConn(t, f)
	defer c.Close()

	req := make([]byte, 32)
	now, err := c.Send(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	// The shard may have answered before the cut landed — drain
	// whatever did.
	recvBytes(c, 128, 200*time.Millisecond)
	if _, err := c.Send(req, now); err == nil {
		if got, rerr := recvBytes(c, 128, 2*time.Second); rerr == nil {
			t.Fatalf("round trip after Close completed (%d bytes); want a dead connection", got)
		}
	}
	st := f.Stats()
	if st.Handoffs != 0 {
		t.Fatalf("a closing fleet migrated %d connections", st.Handoffs)
	}
	if st.Failovers == 0 {
		t.Fatal("cut path recorded no failovers")
	}
}

// TestDrainShardNotServingTyped (satellite): draining a shard that is
// already Draining reports the typed sentinel, wrapped.
func TestDrainShardNotServingTyped(t *testing.T) {
	cfg := quickCfg(2)
	cfg.DrainGrace = 5 * time.Second
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Hold a connection on shard 0 so its drain sits in the grace window.
	var held *vnet.Conn
	for {
		c, idx := pinConn(t, f)
		if idx == 0 {
			held = c
			break
		}
		c.Close()
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- f.DrainShard(0) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s, _ := f.ShardState(0); s == Draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard 0 never started draining")
		}
		time.Sleep(100 * time.Microsecond)
	}

	if err := f.DrainShard(0); !errors.Is(err, ErrShardNotServing) {
		t.Fatalf("second drain = %v, want ErrShardNotServing", err)
	}

	held.Close()
	if err := <-drainErr; err != nil {
		t.Fatalf("first drain = %v", err)
	}
}

// TestOverloadShedding: with every shard at MaxConnsPerShard, admission
// refuses with the typed overload signal and the shed counter moves.
func TestOverloadShedding(t *testing.T) {
	cfg := quickCfg(1)
	cfg.MaxConnsPerShard = 1
	cfg.AdmitRetries = 2
	cfg.AdmitBackoff = 100 * time.Microsecond
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	held, _ := pinConn(t, f)
	defer held.Close()

	c2, _, err := f.FrontNetwork().Connect(f.FrontAddr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := f.Stats()
		if st.ConnsShed >= 1 {
			if st.ConnsRefused < st.ConnsShed {
				t.Fatalf("shed %d > refused %d", st.ConnsShed, st.ConnsRefused)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no shed recorded: %+v", st)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestRoundRobinSpreadsHeldConns: consecutive held connections land on
// distinct shards.
func TestRoundRobinSpreadsHeldConns(t *testing.T) {
	f, err := New(quickCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	c1, idx1 := pinConn(t, f)
	defer c1.Close()
	c2, idx2 := pinConn(t, f)
	defer c2.Close()
	if idx1 == idx2 {
		t.Fatalf("round-robin put both held connections on shard %d", idx1)
	}
}

// TestWaitRecoveriesChannel (satellite): the channel-based wait returns
// immediately when satisfied and honours its deadline when not.
func TestWaitRecoveriesChannel(t *testing.T) {
	f, err := New(quickCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if !f.WaitRecoveries(0, time.Millisecond) {
		t.Fatal("zero-target wait should succeed immediately")
	}
	start := time.Now()
	if f.WaitRecoveries(1, 30*time.Millisecond) {
		t.Fatal("no recovery happened; wait should time out")
	}
	if el := time.Since(start); el < 25*time.Millisecond || el > 5*time.Second {
		t.Fatalf("timeout wait took %v", el)
	}
}

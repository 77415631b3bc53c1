package loadgen

import (
	"sync/atomic"
	"testing"
	"time"

	"remon/internal/model"
	"remon/internal/vnet"
)

const reqSize, respSize = 32, 128

// serve answers every reqSize-byte request on addr with respSize bytes
// after 50µs of virtual service time. It counts requests that
// arrived while an earlier one was still unanswered, in host time or in
// virtual time: zero for a closed-loop client.
func serve(t *testing.T, net *vnet.Network, addr string) (overlapped *atomic.Int64) {
	t.Helper()
	l, err := net.Listen(addr, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	overlapped = new(atomic.Int64)
	go func() {
		for {
			c, _, err := l.Accept(true)
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				req, resp := make([]byte, reqSize), make([]byte, respSize)
				var answered model.Duration // virtual time of the last response
				for {
					got := 0
					var at model.Duration
					for got < reqSize {
						n, arr, err := c.Recv(req[got:], true)
						if err != nil || n == 0 {
							return
						}
						got, at = got+n, arr
					}
					if c.ReadableNow() || at < answered {
						overlapped.Add(1)
					}
					answered = at + 50*model.Microsecond
					if _, err := c.Send(resp, answered); err != nil {
						return
					}
				}
			}()
		}
	}()
	return overlapped
}

// TestBurstClosedLoopConserves: Window 1 is a closed-loop client. Every
// connection sends each request only after the previous response, in
// host time and in virtual time, and
// the audit balances: sent = answered, nothing lost, invented or
// reordered, and every report carries its own client address.
func TestBurstClosedLoopConserves(t *testing.T) {
	net := vnet.New(vnet.Loopback)
	overlapped := serve(t, net, "echo:80")

	const conns, reqs = 16, 5
	out := Burst(net, "echo:80", Shape{
		RequestsPerConn: reqs, Window: 1, RequestSize: reqSize, ResponseSize: respSize,
	}, conns)
	if len(out) != conns {
		t.Fatalf("%d reports, want %d", len(out), conns)
	}
	addrs := map[string]bool{}
	for _, r := range out {
		if r.Sent != reqs || r.RespBytes != reqs*respSize || r.Lost != 0 || r.Err != "" || r.Phantom || r.Regressed {
			t.Fatalf("connection report %+v, want %d requests answered clean", r, reqs)
		}
		if r.Admit <= 0 {
			t.Fatalf("no admission latency on an answered connection: %+v", r)
		}
		addrs[r.Addr] = true
	}
	if len(addrs) != conns || addrs[""] {
		t.Fatalf("%d distinct client addresses over %d connections", len(addrs), conns)
	}
	if n := overlapped.Load(); n != 0 {
		t.Fatalf("%d requests sent while an earlier one was unanswered; Window 1 must be closed loop", n)
	}
}

// TestAdmitCountsFromDueInstant: a connection is timed from the instant
// it was due, not from when its loop got round to it. The one loop is
// stalled in the first connection's OnDone well past the second one's
// due instant; the second connection's Admit must carry that backlog.
func TestAdmitCountsFromDueInstant(t *testing.T) {
	net := vnet.New(vnet.Loopback)
	serve(t, net, "echo:80")

	const due, stall = 10 * time.Millisecond, 50 * time.Millisecond
	var reports []ConnReport
	g := &Gen{
		Net:      net,
		Addr:     "echo:80",
		PerConn:  Shape{RequestSize: reqSize, ResponseSize: respSize},
		Arrivals: []time.Duration{0, due},
		Loops:    1,
		OnDone: func(r ConnReport) {
			if len(reports) == 0 {
				time.Sleep(stall)
			}
			reports = append(reports, r)
		},
	}
	g.Run()
	if len(reports) != 2 {
		t.Fatalf("%d reports, want 2", len(reports))
	}
	for _, r := range reports {
		if r.Lost != 0 || r.Err != "" {
			t.Fatalf("connection failed: %+v", r)
		}
	}
	if late := reports[1].Admit; late < stall-due {
		t.Fatalf("second connection's Admit %v hides the loop's %v backlog", late, stall-due)
	}
}

// The vnet-level client driver: request/response load generated directly
// on the fabric, one goroutine per connection, with per-connection
// outcomes keyed by the client's ephemeral address. Tests, the attack
// suite and the examples use it when they need to attribute every
// connection's fate to the shard the balancer chose for it
// (Fleet.RouteOf); open-loop load at scale runs on chaos.Gen.
package fleet

import (
	"sync"

	"remon/internal/model"
	"remon/internal/vnet"
)

// DriveConfig shapes a client drive.
type DriveConfig struct {
	// Conns is the number of concurrent connections.
	Conns int
	// RequestsPerConn is the round trips per connection.
	RequestsPerConn int
	// RequestSize / ResponseSize must match the fleet's server protocol.
	RequestSize  int
	ResponseSize int
	// ThinkTime is per-request client-side virtual work.
	ThinkTime model.Duration
}

// ConnOutcome is one connection's result.
type ConnOutcome struct {
	// LocalAddr is the client-side ephemeral endpoint — the key
	// Fleet.RouteOf resolves to a shard.
	LocalAddr string
	Completed int
	Errors    int
	// Finished is the virtual time the connection's last byte arrived.
	Finished model.Duration
}

// DriveClients runs cfg's load against the fleet's front address and
// returns per-connection outcomes.
func (f *Fleet) DriveClients(cfg DriveConfig) []ConnOutcome {
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.RequestsPerConn <= 0 {
		cfg.RequestsPerConn = 1
	}
	if cfg.RequestSize <= 0 {
		cfg.RequestSize = f.cfg.RequestSize
	}
	if cfg.ResponseSize <= 0 {
		cfg.ResponseSize = f.cfg.ResponseSize
	}
	out := make([]ConnOutcome, cfg.Conns)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Conns; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			out[idx] = driveConn(f.frontNet, f.cfg.FrontAddr, cfg)
		}(i)
	}
	wg.Wait()
	return out
}

// driveConn performs one connection's closed-loop request sequence.
func driveConn(net *vnet.Network, addr string, cfg DriveConfig) ConnOutcome {
	o := ConnOutcome{}
	c, now, err := net.Connect(addr, 0)
	if err != nil {
		o.Errors = cfg.RequestsPerConn
		return o
	}
	o.LocalAddr = c.LocalAddr()
	defer c.Close()

	req := make([]byte, cfg.RequestSize)
	for i := range req {
		req[i] = byte('A' + i%26)
	}
	buf := make([]byte, 32<<10)
	for r := 0; r < cfg.RequestsPerConn; r++ {
		now += cfg.ThinkTime
		sent, err := c.Send(req, now)
		if err != nil {
			o.Errors++
			return o
		}
		now = sent
		got := 0
		for got < cfg.ResponseSize {
			n, at, err := c.Recv(buf, true)
			if err != nil || n == 0 {
				o.Errors++
				return o
			}
			got += n
			if at > now {
				now = at
			}
		}
		o.Completed++
		o.Finished = now
	}
	return o
}

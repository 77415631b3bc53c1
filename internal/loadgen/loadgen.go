// Package loadgen is the vnet client load generator: virtual connections
// driven against a front address on a fixed pool of event loops, each
// audited (sent = answered + lost, no bytes for a request never sent,
// arrival stamps monotone) and timed from the instant it was due, so a
// generator that falls behind shows it in the reports. Closed-loop load
// is the Window = 1 case.
package loadgen

import (
	"time"

	"remon/internal/vnet"
)

// Shape is one connection's request sequence.
type Shape struct {
	// RequestsPerConn is the requests each connection issues (default 1).
	RequestsPerConn int
	// Window is the max outstanding (unanswered) requests per connection
	// (default 1: closed loop).
	Window int
	// Gap is the host-time pacing between one connection's sends; zero
	// sends as soon as the window allows.
	Gap time.Duration
	// RequestSize / ResponseSize must match the server protocol.
	RequestSize  int
	ResponseSize int
	// Timeout bounds a connection's life from its due instant (default
	// 30s host time); what is unanswered by then is Lost.
	Timeout time.Duration
}

func (s Shape) withDefaults() Shape {
	if s.RequestsPerConn <= 0 {
		s.RequestsPerConn = 1
	}
	if s.Window <= 0 {
		s.Window = 1
	}
	if s.Timeout <= 0 {
		s.Timeout = 30 * time.Second
	}
	return s
}

// ConnReport is one connection's audited outcome.
type ConnReport struct {
	// Addr is the client-side ephemeral endpoint (the key fleet.RouteOf
	// resolves to a shard); empty when the connect never landed.
	Addr      string
	Sent      int // requests written to the wire
	RespBytes int // response bytes received
	// Lost counts the requests never answered, sent or not. A connection
	// that ends on Err always loses at least one.
	Lost      int
	Phantom   bool   // received bytes for requests never sent
	Regressed bool   // arrival stamps went backwards
	Err       string // terminal stream error, if any
	// Admit is the host time from the connection's due instant to its
	// first complete response, generator backlog and balancer retry
	// backoff included. Zero when no response ever completed.
	Admit time.Duration
}

// Burst makes conns connections to addr due at once, runs shape on each,
// and returns their reports (in completion order) when all have
// finished.
func Burst(net *vnet.Network, addr string, shape Shape, conns int) []ConnReport {
	out := make([]ConnReport, 0, conns)
	g := &Gen{Net: net, Addr: addr, PerConn: shape, Arrivals: make([]time.Duration, conns),
		OnDone: func(r ConnReport) { out = append(out, r) }}
	g.Run()
	return out
}

// Package vnet simulates the network substrate for the server experiments
// (§5.2): stream sockets, listeners and links with configurable one-way
// latency and per-byte serialisation cost. The three scenarios the paper
// evaluates — a raw local gigabit link (~0.1 ms), a realistic low-latency
// network (2 ms) and the best-case comparison setup (5 ms, netem) — are
// link profiles here.
//
// Virtual-time integration: every transmitted segment carries the virtual
// time at which it becomes visible at the receiver. The kernel layer syncs
// the receiving thread's clock to that arrival time, so link latency hides
// server-side monitoring overhead exactly as it does in the paper.
package vnet

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"remon/internal/model"
	"remon/internal/wait"
)

// Errors mirroring socket errnos.
var (
	ErrAddrInUse      = errors.New("vnet: address already in use") // EADDRINUSE
	ErrConnRefused    = errors.New("vnet: connection refused")     // ECONNREFUSED
	ErrNotListening   = errors.New("vnet: not listening")          // EINVAL
	ErrClosed         = errors.New("vnet: connection closed")      // ECONNRESET
	ErrWouldBlock     = errors.New("vnet: would block")            // EAGAIN
	ErrListenerClosed = errors.New("vnet: listener closed")
	// ErrBacklogFull is TryConnect's refusal when the listener is live
	// but its accept queue is full — the case a blocking Connect would
	// have waited out. Callers pace their own retry.
	ErrBacklogFull = errors.New("vnet: accept backlog full") // ~SYN dropped
)

// Link describes one network link profile.
type Link struct {
	// Latency is the one-way propagation delay.
	Latency model.Duration
	// PerByte is the serialisation cost per byte (inverse bandwidth).
	// A gigabit link moves ~1 byte per 8 ns.
	PerByte model.Duration
}

// Standard link profiles used by the evaluation.
var (
	// GigabitLocal is the paper's "unlikely, worst-case" scenario: a local
	// gigabit link with ~0.1 ms latency.
	GigabitLocal = Link{Latency: 100 * model.Microsecond, PerByte: 8}
	// LowLatency2ms is the "realistic worst-case" scenario (netem +2 ms).
	LowLatency2ms = Link{Latency: 2 * model.Millisecond, PerByte: 8}
	// Simulated5ms is the best-case comparison scenario (netem 5 ms).
	Simulated5ms = Link{Latency: 5 * model.Millisecond, PerByte: 8}
	// Loopback is the in-machine loopback device (network-loopback bench).
	Loopback = Link{Latency: 5 * model.Microsecond, PerByte: 1}
)

// TransferTime reports when data sent at now becomes visible remotely.
func (l Link) TransferTime(now model.Duration, n int) model.Duration {
	return now + l.Latency + model.Duration(n)*l.PerByte
}

// Notifier receives a callback whenever any socket changes readiness state.
// The kernel's poll/epoll machinery registers itself here.
type Notifier interface{ Notify() }

// segment is one in-flight chunk of stream data.
type segment struct {
	data   []byte
	arrive model.Duration
}

// rxQueue is the receive side of one stream direction.
type rxQueue struct {
	mu sync.Mutex
	q  wait.Queue // blocking receives; one pointer, so rxQueue stays 64 bytes
	// segs[head:] are the queued segments. Popping advances head and
	// never re-slices segs, so the backing array keeps its capacity: a
	// queue that never holds more than cap(segs) segments is reused
	// without allocating.
	segs   []segment
	closed bool  // peer sent FIN
	reset  bool  // local side closed
	head   int32 // packed beside the flags: rxQueue stays 64 bytes
	// lastArrive enforces in-order delivery semantics: a segment that was
	// delayed on the wire delays everything sent after it, so arrival
	// stamps are clamped monotone per stream.
	lastArrive model.Duration
	// watch is the queue's (single) poller registration; every mutation
	// that would wake a parked blocking receive also notifies it.
	watch *pollReg
}

// kick re-delivers the queue's poller registration without changing
// its state: an edge-triggered consumer that stopped draining (a frozen
// splice direction) gets an event to resume on.
func (q *rxQueue) kick() {
	q.mu.Lock()
	q.watch.notify()
	q.mu.Unlock()
}

func (q *rxQueue) push(data []byte, arrive model.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.reset {
		return // receiver gone; drop
	}
	if arrive < q.lastArrive {
		arrive = q.lastArrive
	}
	q.lastArrive = arrive
	if len(q.segs) == cap(q.segs) && q.head > 0 {
		// Full at the tail with room at the front: slide the queue back
		// instead of growing it.
		n := copy(q.segs, q.segs[q.head:])
		clear(q.segs[n:])
		q.segs, q.head = q.segs[:n], 0
	}
	q.segs = append(q.segs, segment{data: data, arrive: arrive})
	q.q.WakeAll(arrive)
	q.watch.notify()
}

func (q *rxQueue) closePeer() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.q.WakeAll(q.lastArrive)
	q.watch.notify()
}

func (q *rxQueue) closeLocal() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reset = true
	q.segs, q.head = nil, 0
	q.q.WakeAll(q.lastArrive)
	q.watch.notify()
}

// peekArrival reports the arrival time of the earliest queued segment.
func (q *rxQueue) peekArrival() (model.Duration, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.queued() == 0 {
		return 0, false
	}
	return q.segs[q.head].arrive, true
}

// readableNow reports pending data or pending EOF.
func (q *rxQueue) readableNow() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued() > 0 || q.closed || q.reset
}

// queued reports the number of queued segments (q.mu held).
func (q *rxQueue) queued() int { return len(q.segs) - int(q.head) }

// read pops up to len(b) bytes. It returns the byte count, the virtual
// arrival time of the *last* byte delivered (0 when none), and an error.
// EOF is (0, t, nil) with closed=true.
func (q *rxQueue) read(b []byte, block bool) (int, model.Duration, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.await(block); err != nil || q.queued() == 0 {
		return 0, 0, err
	}
	var n int
	var arrive model.Duration
	for n < len(b) && q.queued() > 0 {
		s := &q.segs[q.head]
		c := copy(b[n:], s.data)
		n += c
		if s.arrive > arrive {
			arrive = s.arrive
		}
		if c == len(s.data) {
			q.popFront()
		} else {
			s.data = s.data[c:]
			break
		}
	}
	return n, arrive, nil
}

// await parks a blocking receive until a segment is queued (q.mu held).
// It returns with nothing queued at EOF.
func (q *rxQueue) await(block bool) error {
	for q.queued() == 0 {
		switch {
		case q.reset:
			return ErrClosed
		case q.closed:
			return nil // EOF
		case !block:
			return ErrWouldBlock
		}
		q.q.Park(&q.mu, "vnet.recv", 0)
	}
	return nil
}

// popFront drops the queue head, rewinding to the backing array's start
// when the queue empties.
func (q *rxQueue) popFront() {
	q.segs[q.head] = segment{} // release the payload reference
	q.head++
	if int(q.head) == len(q.segs) {
		q.segs, q.head = q.segs[:0], 0
	}
}

// popSeg pops one whole queued segment without copying, transferring
// payload ownership to the caller — the splice forwarder's zero-copy
// receive. EOF is (nil, 0, nil).
func (q *rxQueue) popSeg(block bool) ([]byte, model.Duration, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.await(block); err != nil || q.queued() == 0 {
		return nil, 0, err
	}
	s := q.segs[q.head]
	q.popFront()
	return s.data, s.arrive, nil
}

// Conn is one endpoint of an established stream connection.
type Conn struct {
	net        *Network
	link       Link
	localAddr  string
	remoteAddr string
	rx         *rxQueue
	peer       *Conn

	mu      sync.Mutex
	closed  bool
	wclosed bool // write half shut (CloseWrite); reads still allowed
}

// LocalAddr and RemoteAddr report the endpoint addresses.
func (c *Conn) LocalAddr() string  { return c.localAddr }
func (c *Conn) RemoteAddr() string { return c.remoteAddr }

// Send transmits data at virtual time now. It reports the time the final
// byte leaves the local NIC (the sender is charged serialisation but not
// propagation). Data arrives remotely at link.TransferTime(now, len(data)).
func (c *Conn) Send(data []byte, now model.Duration) (model.Duration, error) {
	c.mu.Lock()
	if c.closed || c.wclosed {
		c.mu.Unlock()
		return now, ErrClosed
	}
	peer := c.peer
	c.mu.Unlock()
	if peer == nil {
		return now, ErrClosed
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	peer.rx.push(buf, c.link.TransferTime(now, len(data))+c.net.faultDelay())
	c.net.st.segments.Add(1)
	c.net.st.bytes.Add(uint64(len(data)))
	c.net.notify()
	return now + model.Duration(len(data))*c.link.PerByte, nil
}

// Recv reads into b. The returned Duration is the virtual arrival time of
// the data (the caller syncs its clock to it). EOF is (0, _, nil).
func (c *Conn) Recv(b []byte, block bool) (int, model.Duration, error) {
	return c.rx.read(b, block)
}

// RecvSeg pops one whole received segment without copying: the returned
// slice is the transmitted payload itself and ownership transfers to
// the caller (PR 1's aliased-view discipline applied to the network
// data plane). EOF is (nil, 0, nil). The splice forwarder pairs it with
// SendSeg to move bytes with zero steady-state allocations.
func (c *Conn) RecvSeg(block bool) ([]byte, model.Duration, error) {
	return c.rx.popSeg(block)
}

// SendSeg transmits data at virtual time now without copying it: the
// slice is handed to the receiver as-is, so the caller must not touch
// it afterwards. Timing is identical to Send.
func (c *Conn) SendSeg(data []byte, now model.Duration) (model.Duration, error) {
	c.mu.Lock()
	if c.closed || c.wclosed {
		c.mu.Unlock()
		return now, ErrClosed
	}
	peer := c.peer
	c.mu.Unlock()
	if peer == nil {
		return now, ErrClosed
	}
	peer.rx.push(data, c.link.TransferTime(now, len(data))+c.net.faultDelay())
	c.net.st.segments.Add(1)
	c.net.st.bytes.Add(uint64(len(data)))
	c.net.notify()
	return now + model.Duration(len(data))*c.link.PerByte, nil
}

// ReadableNow reports whether Recv would return without blocking.
func (c *Conn) ReadableNow() bool { return c.rx.readableNow() }

// PeekArrival reports the virtual arrival time of the earliest pending
// data, if any. Poll/epoll implementations use it to advance the waiting
// thread's clock to the event that wakes it.
func (c *Conn) PeekArrival() (model.Duration, bool) { return c.rx.peekArrival() }

// WritableNow reports whether Send would succeed (always, unless closed —
// the simulation does not model TCP backpressure).
func (c *Conn) WritableNow() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.closed && !c.wclosed
}

// CloseWrite shuts only the write half (shutdown(SHUT_WR)): the peer
// drains queued data then sees EOF, while this endpoint keeps reading.
// The splice forwarder uses it to propagate a one-way FIN without
// killing the not-yet-sent response.
func (c *Conn) CloseWrite() {
	c.mu.Lock()
	if c.closed || c.wclosed {
		c.mu.Unlock()
		return
	}
	c.wclosed = true
	peer := c.peer
	c.mu.Unlock()
	if peer != nil {
		peer.rx.closePeer()
	}
	c.net.notify()
}

// Close shuts the connection down; the peer drains then sees EOF.
func (c *Conn) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	peer := c.peer
	c.mu.Unlock()
	c.rx.closeLocal()
	if peer != nil {
		peer.rx.closePeer()
	}
	c.net.notify()
}

// pendingConn is a connection waiting in a listener's accept queue.
type pendingConn struct {
	conn   *Conn
	arrive model.Duration
}

// Listener accepts incoming stream connections for one address.
type Listener struct {
	net     *Network
	addr    string
	mu      sync.Mutex
	q       wait.Queue // Accept and Connect's wait for backlog room
	queue   []pendingConn
	closed  bool
	backlog int
	// watch is the listener's (single) poller registration; enqueue and
	// close notify it.
	watch *pollReg
}

// Addr reports the listening address.
func (l *Listener) Addr() string { return l.addr }

// PendingNow reports whether Accept would return without blocking.
func (l *Listener) PendingNow() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue) > 0 || l.closed
}

// PeekArrival reports the establishment time of the earliest queued
// connection, if any.
func (l *Listener) PeekArrival() (model.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.queue) == 0 {
		return 0, false
	}
	return l.queue[0].arrive, true
}

// Accept dequeues an established connection. The returned Duration is the
// virtual time the connection became established at the server side.
func (l *Listener) Accept(block bool) (*Conn, model.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.queue) == 0 {
		if l.closed {
			return nil, 0, ErrListenerClosed
		}
		if !block {
			return nil, 0, ErrWouldBlock
		}
		l.q.Park(&l.mu, "vnet.accept", 0)
	}
	p := l.queue[0]
	l.queue = l.queue[1:]
	// Popping opened backlog room: wake connectors parked in the SYN
	// queue (Connect's wait-for-room loop shares this queue).
	l.q.WakeAll(p.arrive)
	l.net.st.accepts.Add(1)
	return p.conn, p.arrive, nil
}

// Close stops the listener; queued, unaccepted connections are reset.
func (l *Listener) Close() {
	l.mu.Lock()
	queued := l.queue
	l.queue = nil
	l.closed = true
	l.q.WakeAll(0)
	l.watch.notify()
	l.mu.Unlock()
	for _, p := range queued {
		p.conn.Close()
	}
	l.net.unbind(l.addr, l)
	l.net.notify()
}

// DefaultConnectWait bounds how long (host wall-clock) a connection
// attempt camps on a full accept queue before giving up — the stand-in
// for the client's SYN retransmission window.
const DefaultConnectWait = 5 * time.Second

// FaultProfile is a chaos-injection overlay on a network fabric: every
// transmitted segment picks up ExtraLatency, and every DropEvery-th
// segment is "dropped". On a reliable stream a drop is not a loss — the
// transport recovers it by retransmission — so a dropped segment is
// redelivered one RTO late rather than discarded, which keeps the
// byte stream intact while still exercising timeout and reordering
// pressure on everything above.
type FaultProfile struct {
	// ExtraLatency is added to every segment's arrival time.
	ExtraLatency model.Duration
	// DropEvery drops (RTO-delays) every Nth segment; 0 disables.
	DropEvery int
	// RTO is the retransmission delay charged to a dropped segment
	// (default 40ms virtual when zero).
	RTO model.Duration
}

// DefaultRTO is the retransmission timeout charged to fault-dropped
// segments when the profile leaves RTO zero.
const DefaultRTO = 40 * model.Millisecond

// Network is the simulated network fabric.
type Network struct {
	mu          sync.Mutex
	listeners   map[string]*Listener
	link        Link
	notifier    Notifier
	nextPort    int
	connectWait time.Duration

	fault  atomic.Pointer[FaultProfile]
	faultN atomic.Uint64

	st netCounters
}

// netCounters is the fabric's lock-free activity accounting (Stats).
type netCounters struct {
	connects  atomic.Uint64
	refused   atomic.Uint64
	accepts   atomic.Uint64
	segments  atomic.Uint64
	bytes     atomic.Uint64
	faultHits atomic.Uint64
}

// NetStats counts fabric activity: connection establishment on the
// control plane, segments/bytes pushed on the data plane, fault-profile
// perturbations. All host-side counters; nothing here affects virtual
// time.
type NetStats struct {
	Connects uint64 // successful Connect calls
	Refused  uint64 // Connects refused (no listener / backlog timeout)
	Accepts  uint64 // connections taken from accept queues
	Segments uint64 // segments pushed onto rx queues
	Bytes    uint64 // payload bytes pushed onto rx queues
	// FaultHits counts segments perturbed by an active fault profile
	// (extra latency or RTO redelivery).
	FaultHits uint64
}

// Emit reports the snapshot as (metric, value) pairs under the
// telemetry naming convention ("_total" marks cumulative counters).
// Plain func signature so this package never imports the registry.
func (s NetStats) Emit(emit func(name string, v uint64)) {
	emit("connects_total", s.Connects)
	emit("refused_total", s.Refused)
	emit("accepts_total", s.Accepts)
	emit("segments_total", s.Segments)
	emit("bytes_total", s.Bytes)
	emit("fault_hits_total", s.FaultHits)
}

// Stats snapshots the fabric counters.
func (n *Network) Stats() NetStats {
	return NetStats{
		Connects:  n.st.connects.Load(),
		Refused:   n.st.refused.Load(),
		Accepts:   n.st.accepts.Load(),
		Segments:  n.st.segments.Load(),
		Bytes:     n.st.bytes.Load(),
		FaultHits: n.st.faultHits.Load(),
	}
}

// SetFaultProfile installs (or, with nil, clears) a chaos fault overlay.
// The profile is copied; installation is atomic and applies to segments
// sent from then on. The healthy path costs one atomic load per segment.
func (n *Network) SetFaultProfile(p *FaultProfile) {
	if p == nil {
		n.fault.Store(nil)
		return
	}
	cp := *p
	n.fault.Store(&cp)
}

// faultDelay reports the extra arrival delay the active fault profile
// imposes on the next segment.
func (n *Network) faultDelay() model.Duration {
	p := n.fault.Load()
	if p == nil {
		return 0
	}
	d := p.ExtraLatency
	if p.DropEvery > 0 && n.faultN.Add(1)%uint64(p.DropEvery) == 0 {
		rto := p.RTO
		if rto <= 0 {
			rto = DefaultRTO
		}
		d += rto
	}
	if d > 0 {
		n.st.faultHits.Add(1)
	}
	return d
}

// New creates a network whose connections use the given link profile.
func New(link Link) *Network {
	return &Network{
		listeners:   map[string]*Listener{},
		link:        link,
		nextPort:    40000,
		connectWait: DefaultConnectWait,
	}
}

// SetConnectWait adjusts how long Connect waits for accept-queue room
// before refusing (0 restores the old refuse-immediately behaviour).
// Fleet balancers shrink it so a wedged backend fails fast.
func (n *Network) SetConnectWait(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.connectWait = d
}

// SetNotifier registers the readiness callback (the kernel's poll hub).
func (n *Network) SetNotifier(no Notifier) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.notifier = no
}

func (n *Network) notify() {
	n.mu.Lock()
	no := n.notifier
	n.mu.Unlock()
	if no != nil {
		no.Notify()
	}
}

// HasListener reports whether addr is currently bound. Benchmark drivers
// use it to start client load only once the server is up — the paper's
// clients run against an already-listening server.
func (n *Network) HasListener(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.listeners[addr] != nil
}

// Listen binds a listener to addr ("host:port").
func (n *Network) Listen(addr string, backlog int) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[addr]; exists {
		return nil, ErrAddrInUse
	}
	l := &Listener{net: n, addr: addr, backlog: backlog}
	n.listeners[addr] = l
	return l, nil
}

func (n *Network) unbind(addr string, l *Listener) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listeners[addr] == l {
		delete(n.listeners, addr)
	}
}

// Connect establishes a connection to addr at virtual time now. The client
// endpoint is usable at the returned time (one RTT later); the server-side
// endpoint is queued for Accept with a one-way-latency arrival stamp.
//
// Backlog handling follows listen(2) semantics rather than refusing
// outright: while the accept queue is full and the listener is live, the
// SYN is effectively retransmitted — the connector waits (host wall-clock,
// bounded by the network's connect-wait) until an Accept opens room. Only
// a missing or closed listener, or a timed-out wait, refuses. The virtual
// establishment stamps are unaffected by the host-side wait: admission to
// the queue is a host-scheduling matter, the connection's virtual times
// derive from the caller's clock exactly as before.
func (n *Network) Connect(addr string, now model.Duration) (*Conn, model.Duration, error) {
	return n.connect(addr, now, true)
}

// TryConnect is Connect without the SYN wait: a live listener whose
// accept queue is full refuses immediately with ErrBacklogFull instead
// of blocking the caller. Event-driven clients (the chaos generator's
// event loops) use this and pace their own retransmission through their
// timers, so a wedged server can never stall the client's event loop —
// the failure mode that turns a saturated fleet into a frozen campaign.
func (n *Network) TryConnect(addr string, now model.Duration) (*Conn, model.Duration, error) {
	return n.connect(addr, now, false)
}

func (n *Network) connect(addr string, now model.Duration, block bool) (*Conn, model.Duration, error) {
	n.mu.Lock()
	l := n.listeners[addr]
	link := n.link
	wait := n.connectWait
	n.nextPort++
	localAddr := "ephemeral:" + itoa(n.nextPort)
	n.mu.Unlock()
	if !block {
		wait = 0
	}
	if l == nil {
		n.st.refused.Add(1)
		return nil, now + 2*link.Latency, ErrConnRefused
	}

	client := &Conn{net: n, link: link, localAddr: localAddr, remoteAddr: addr, rx: &rxQueue{}}
	server := &Conn{net: n, link: link, localAddr: addr, remoteAddr: localAddr, rx: &rxQueue{}}
	client.peer = server
	server.peer = client

	l.mu.Lock()
	if !l.waitRoom(wait) {
		full := !l.closed && l.backlog > 0 && len(l.queue) >= l.backlog
		l.mu.Unlock()
		n.st.refused.Add(1)
		if !block && full {
			return nil, now + 2*link.Latency, ErrBacklogFull
		}
		return nil, now + 2*link.Latency, ErrConnRefused
	}
	l.queue = append(l.queue, pendingConn{conn: server, arrive: now + link.Latency})
	l.q.WakeAll(now + link.Latency)
	l.watch.notify()
	l.mu.Unlock()
	n.st.connects.Add(1)
	n.notify()
	return client, now + 2*link.Latency, nil
}

// waitRoom blocks (with l.mu held) until the accept queue has room, the
// listener closes, or the wait budget runs out. It reports whether the
// caller may enqueue.
func (l *Listener) waitRoom(budget time.Duration) bool {
	var deadline time.Time
	for !l.closed {
		if l.backlog <= 0 || len(l.queue) < l.backlog {
			return true
		}
		if budget <= 0 {
			return false
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(budget)
		}
		if _, ok := l.q.ParkUntil(&l.mu, "vnet.backlog", 0, nil, deadline); !ok {
			return !l.closed && len(l.queue) < l.backlog
		}
	}
	return false
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"remon/internal/apps"
	"remon/internal/core"
	"remon/internal/libc"
	"remon/internal/model"
	"remon/internal/policy"
	"remon/internal/vkernel"
	"remon/internal/vnet"
)

const (
	// The nginx-shaped server of the paper's Fig. 5: small request, one
	// page of response, 10µs of handling.
	serverReqSize  = 128
	serverRespSize = 4096
	serverCompute  = 10 * model.Microsecond
	// serverConns closed-loop client connections, each serverReqsPerConn
	// requests per server run. Fixed rather than nproc, so that runs on
	// different hosts offer the same load.
	serverConns       = 4
	serverReqsPerConn = 250
	// serverRunDeadline bounds one server run (about 20 ms when healthy).
	serverRunDeadline = 10 * opDeadline
)

// serverWorkload runs apps.Server under ReMon at SOCKET_RW and drives it
// with the benchmark's own native clients; an operation is one request
// timed at the client. Kernel, network and MVEE are fresh for every run
// of serverConns x serverReqsPerConn requests.
type serverWorkload struct {
	seed uint64
	req  []byte
	tr   *tracer

	nativeNs float64
	runs     int
	opID     int
	sum      counterSet
	calls    uint64
	okReqs   int
	okHostNs int64
}

func newServerWorkload(seed uint64) *serverWorkload {
	rng := model.NewRNG(seed)
	req := make([]byte, serverReqSize)
	for i := range req {
		req[i] = byte(rng.Uint64())
	}
	return &serverWorkload{seed: seed, req: req, sum: counterSet{}}
}

func (w *serverWorkload) setTracer(t *tracer) { w.tr = t }

func (w *serverWorkload) setup() error {
	var virt []float64
	for i := 0; i < 3; i++ {
		r := w.oneRun(core.ModeNative, nil)
		if r.kind != "" {
			return fmt.Errorf("native server run failed: %s", r.kind)
		}
		virt = append(virt, float64(r.virtNs))
	}
	w.nativeNs = median(virt)
	// Warm-up: two monitored runs (arena, allocator and scheduler state).
	for i := 0; i < 2; i++ {
		w.oneRun(core.ModeReMon, nil)
	}
	return nil
}

func (w *serverWorkload) teardown() {}

// serverRun is the outcome of one server run.
type serverRun struct {
	lat    []int64 // host ns of each answered request
	missed int     // requests never answered
	kind   string  // "" when every request was answered correctly
	virtNs int64   // client-side virtual makespan
	busyNs int64   // host time from first request to last response
	rep    *core.Report
}

// serverClient is one closed-loop connection's state.
type serverClient struct {
	env   *libc.Env
	lat   []int64
	wrong bool
}

func (w *serverWorkload) oneRun(mode core.Mode, tr *tracer) serverRun {
	w.runs++
	run := tr.begin(spServerRun, -1, w.opID)
	defer tr.end(run)
	net := vnet.New(vnet.GigabitLocal)
	k := vkernel.New(net)
	addr := fmt.Sprintf("bench-srv-%d:80", w.runs)
	sp := tr.begin(spCoreNew, run, w.opID)
	m, err := core.New(core.Config{
		Mode:            mode,
		Replicas:        replicas,
		Policy:          policy.SocketRWLevel,
		Seed:            w.seed,
		Kernel:          k,
		LockstepTimeout: lockstepTimeout,
	})
	tr.end(sp)
	if err != nil {
		panic(fmt.Errorf("core.New: %w", err))
	}
	prog := apps.Server(apps.ServerConfig{
		Name:              "bench-nginx",
		Addr:              addr,
		RequestSize:       serverReqSize,
		ResponseSize:      serverRespSize,
		ComputePerRequest: serverCompute,
		TotalConnections:  serverConns,
		Style:             apps.StyleEpoll,
	})
	done := make(chan *core.Report, 1)
	sp = tr.begin(spCoreRun, run, w.opID)
	go func() {
		rep := m.Run(prog)
		tr.end(sp)
		done <- rep
	}()

	deadline := time.Now().Add(serverRunDeadline)
	for !net.HasListener(addr) && time.Now().Before(deadline) {
		runtime.Gosched()
	}

	clients := make([]*serverClient, serverConns)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range clients {
		c := &serverClient{
			env: core.NativeThread(k, fmt.Sprintf("bench-client-%d", i), w.seed+uint64(i)*13),
			lat: make([]int64, 0, serverReqsPerConn),
		}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.client(c, addr, run, tr)
		}()
	}
	clientsDone := make(chan struct{})
	go func() { wg.Wait(); close(clientsDone) }()

	out := serverRun{}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	hung, clientsEnded := false, false
	select {
	case <-clientsDone:
		clientsEnded = true
		out.busyNs = int64(time.Since(t0))
		select {
		case out.rep = <-done:
		case <-timer.C:
			hung = true
		}
	case <-timer.C:
		hung = true
	}
	if hung {
		sd := tr.begin(spCoreShutdown, run, w.opID)
		m.Shutdown("benchmark deadline")
		for _, c := range clients {
			c.env.T.Crash("benchmark deadline")
		}
		unwound := time.After(unwindWait)
		select {
		case <-clientsDone:
			clientsEnded = true
		case <-unwound:
		}
		select {
		case out.rep = <-done:
		case <-unwound:
		}
		tr.end(sd)
	}
	if out.rep != nil {
		sp = tr.begin(spCoreClose, run, w.opID)
		m.Close()
		tr.end(sp)
	}

	// Clients that never unwound still own their state: their requests
	// all count as missed.
	for _, c := range clients {
		if !clientsEnded {
			break
		}
		out.lat = append(out.lat, c.lat...)
		if c.wrong {
			out.kind = kindWrong
		}
		if v := int64(c.env.T.Clock.Now()); v > out.virtNs {
			out.virtNs = v
		}
	}
	out.missed = serverConns*serverReqsPerConn - len(out.lat)
	switch {
	case out.kind != "":
	case out.rep != nil && out.rep.Verdict.Diverged:
		out.kind = kindVerdict
	case hung || out.missed > 0:
		out.kind = kindHang
	case out.rep.Broker.TokenViolations != 0:
		out.kind = kindWrong
	}
	if out.kind != "" {
		out.busyNs = 0
	}
	return out
}

// client is one connection: connect, serverReqsPerConn request/response
// round trips checked byte for byte, close. A killed thread unwinds
// through libc.ErrKilled.
func (w *serverWorkload) client(c *serverClient, addr string, run int, tr *tracer) {
	defer func() {
		if r := recover(); r != nil && r != libc.ErrKilled {
			panic(r)
		}
	}()
	env := c.env
	sp := tr.begin(spClientConnect, run, w.opID)
	fd, errno := env.Socket()
	if errno == 0 {
		errno = env.Connect(fd, addr)
	}
	tr.end(sp)
	if errno != 0 {
		return
	}
	buf := make([]byte, serverRespSize)
	for i := 0; i < serverReqsPerConn; i++ {
		t0 := time.Now()
		_, errno := env.Send(fd, w.req)
		if errno != 0 {
			return
		}
		var sent time.Time
		if tr != nil {
			sent = time.Now()
		}
		got := 0
		for got < serverRespSize {
			n, errno := env.Recv(fd, buf[got:])
			if errno != 0 || n == 0 {
				break
			}
			got += n
		}
		t1 := time.Now()
		d := t1.Sub(t0)
		if tr != nil {
			op := tr.add(spOp, t0, t1, run, w.opID)
			tr.add(spClientSend, t0, sent, op, w.opID)
			tr.add(spClientWait, sent, t1, op, w.opID)
		}
		if got < serverRespSize {
			return
		}
		for j, b := range buf {
			if b != byte('a'+j%26) {
				c.wrong = true
				return
			}
		}
		c.lat = append(c.lat, int64(d))
	}
	env.Close(fd)
	env.T.ExitThread(0)
}

func (w *serverWorkload) measure(until time.Time, e *emitter) {
	w.sum, w.calls, w.okReqs, w.okHostNs = counterSet{}, 0, 0, 0
	for time.Now().Before(until) {
		w.opID++
		r := w.oneRun(core.ModeReMon, w.tr)
		b := batch{OK: r.lat, Busy: r.busyNs}
		if r.kind != "" {
			// The whole run is the failure when nothing was missed but a
			// check failed; otherwise the unanswered requests are.
			n := r.missed
			if n == 0 {
				n = 1
			}
			b.Fail = map[string]int{r.kind: n}
		} else {
			b.VirtX = []float64{float64(r.virtNs) / w.nativeNs}
			w.calls += r.rep.Syscalls
			w.okReqs += len(r.lat)
			for _, d := range r.lat {
				w.okHostNs += d
			}
		}
		if r.rep != nil {
			w.sum.addDelta(nil, reportCounters(r.rep))
		}
		e.ops(b)
	}
}

func (w *serverWorkload) layers(out map[string]float64) {
	counterLayers(out, w.sum, float64(w.calls), float64(w.okHostNs))
	out["core.calls_per_op"] = ratio(float64(w.calls), float64(w.okReqs))
}

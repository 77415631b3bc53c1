package main

import (
	"fmt"
	"runtime"
	"time"

	"remon/internal/core"
	"remon/internal/mem"
	"remon/internal/policy"
	"remon/internal/rb"
	"remon/internal/vkernel"
	"remon/internal/vnet"
)

// The layer probes: each times a fixed number of calls into one layer's
// exported functions, on one goroutine, with nothing else running. Counts
// are sized so that a probe takes a few hundred ms on the seed; they are
// fixed (not calibrated at run time) so two commits do the same work. Only
// the package's smoke test divides them.

// probeSink keeps results alive so the compiler cannot drop a probed call.
var probeSink uint64

func runProbes(seed uint64, div int, out map[string]float64) error {
	if div < 1 {
		div = 1
	}
	probeMem(seed, div, out)
	probeVKernel(seed, div, out)
	probePolicy(div, out)
	if err := probeRB(div, out); err != nil {
		return fmt.Errorf("rb probe: %w", err)
	}
	if err := probeVNet(div, out); err != nil {
		return fmt.Errorf("vnet probe: %w", err)
	}
	return nil
}

func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// probeMem maps and unmaps 1 MiB, the cost every spawned replica thread
// pays for its libc arena.
func probeMem(seed uint64, div int, out map[string]float64) {
	n := 2500 / div
	as := mem.NewAddressSpace(seed, 0)
	_, b0 := mallocs()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r, err := as.Map(1<<20, mem.ProtRead|mem.ProtWrite, "probe")
		if err != nil {
			panic(err)
		}
		if err := as.Unmap(r.Start); err != nil {
			panic(err)
		}
	}
	d := time.Since(t0)
	_, b1 := mallocs()
	out["mem.probe_map_us"] = float64(d) / float64(n) / 1e3
	out["mem.probe_map_kb"] = float64(b1-b0) / float64(n) / 1024
}

// probeVKernel is the substrate floor under every workload: getpid on an
// unmonitored thread.
func probeVKernel(seed uint64, div int, out map[string]float64) {
	n := 4_000_000 / div
	env := core.NativeThread(vkernel.New(nil), "probe", seed)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		probeSink += uint64(env.Getpid())
	}
	out["vkernel.probe_call_ns"] = float64(time.Since(t0)) / float64(n)
}

func probePolicy(div int, out map[string]float64) {
	n := 100_000_000 / div
	snap := policy.NewEngine(policy.LevelRules(policy.SocketRWLevel)).Current()
	nrs := [4]int{vkernel.SysRead, vkernel.SysWrite, vkernel.SysGetpid, vkernel.SysMprotect}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		probeSink += uint64(snap.Verdict(nrs[i&3], 3+i&7, policy.FDNonSocket))
	}
	out["policy.probe_verdict_ns"] = float64(time.Since(t0)) / float64(n)
}

// resetArbiter resets a partition at once: the probe consumes every entry
// before the next Reserve, so the partition is always drained.
type resetArbiter struct{}

func (resetArbiter) ResetPartition(b *rb.Buffer, part int) { b.DoReset(part) }

// probeRB is the full replication-buffer round trip on one goroutine:
// Reserve, Complete, Next, CompareCall, WaitResults, Consume.
func probeRB(div int, out map[string]float64) error {
	k := vkernel.New(nil)
	master := k.NewProcess("probe-master", 1, 0).NewThread(nil)
	slave := k.NewProcess("probe-slave", 2, 1).NewThread(nil)
	id := master.RawSyscall(vkernel.SysShmget, 0, 1<<20, 0)
	if !id.Ok() {
		return fmt.Errorf("shmget: %v", id.Errno)
	}
	mAt := master.RawSyscall(vkernel.SysShmat, id.Val, 0, 0)
	sAt := slave.RawSyscall(vkernel.SysShmat, id.Val, 0, 0)
	if !mAt.Ok() || !sAt.Ok() {
		return fmt.Errorf("shmat: %v / %v", mAt.Errno, sAt.Errno)
	}
	buf, err := rb.New(k.ShmSegment(int(id.Val)), 2, 1, resetArbiter{})
	if err != nil {
		return err
	}
	defer k.ReleaseShm(int(id.Val))
	w := buf.NewWriter(0, mem.Addr(mAt.Val))
	r := buf.NewReader(0, 1, mem.Addr(sAt.Val))

	roundTrips := func(n, size int) (nsPerOp, allocsPerOp float64, err error) {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i)
		}
		c := &vkernel.Call{Num: vkernel.SysWrite, Args: [6]uint64{3, 0x1000, uint64(size)}}
		m0, _ := mallocs()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			res, err := w.Reserve(master, c, 0, payload, size)
			if err != nil {
				return 0, 0, err
			}
			res.Complete(master, uint64(size), 0, payload)
			ev, err := r.Next(slave)
			if err != nil {
				return 0, 0, err
			}
			if err := ev.CompareCall(slave, c, 0b001, payload); err != nil {
				return 0, 0, err
			}
			ret, _, _ := ev.WaitResults(slave)
			probeSink += ret
			ev.Consume()
		}
		d := time.Since(t0)
		m1, _ := mallocs()
		return float64(d) / float64(n), float64(m1-m0) / float64(n), nil
	}
	ns, allocs, err := roundTrips(1_000_000/div, 32)
	if err != nil {
		return err
	}
	out["rb.probe_roundtrip_ns"], out["rb.probe_allocs"] = ns, allocs
	if ns, _, err = roundTrips(400_000/div, 4096); err != nil {
		return err
	}
	out["rb.probe_roundtrip_4k_ns"] = ns
	return nil
}

// probeVNet times one 64-byte message through a bare connection pair,
// through a Poller, and through a one-loop SpliceSet.
func probeVNet(div int, out map[string]float64) error {
	net := vnet.New(vnet.Loopback)
	pair := func(addr string) (client, server *vnet.Conn, err error) {
		lis, err := net.Listen(addr, 4)
		if err != nil {
			return nil, nil, err
		}
		defer lis.Close()
		if client, _, err = net.Connect(addr, 0); err != nil {
			return nil, nil, err
		}
		server, _, err = lis.Accept(true)
		return client, server, err
	}
	msg, buf := make([]byte, 64), make([]byte, 64)

	a, b, err := pair("probe-rtt:1")
	if err != nil {
		return err
	}
	rtts := 1_000_000 / div
	t0 := time.Now()
	for i := 0; i < rtts; i++ {
		if _, err := a.Send(msg, 0); err != nil {
			return err
		}
		if _, _, err := b.Recv(buf, false); err != nil {
			return err
		}
		if _, err := b.Send(msg, 0); err != nil {
			return err
		}
		if _, _, err := a.Recv(buf, false); err != nil {
			return err
		}
	}
	out["vnet.probe_rtt_ns"] = float64(time.Since(t0)) / float64(rtts)
	a.Close()
	b.Close()

	if a, b, err = pair("probe-poll:1"); err != nil {
		return err
	}
	p := vnet.NewPoller()
	if err := p.AddConn(b, 7); err != nil {
		return err
	}
	evs := make([]vnet.Event, 4)
	polls := 1_500_000 / div
	t0 = time.Now()
	for i := 0; i < polls; i++ {
		if _, err := a.Send(msg, 0); err != nil {
			return err
		}
		if n := p.Wait(evs, true); n != 1 {
			return fmt.Errorf("poller delivered %d events, want 1", n)
		}
		if _, _, err := b.Recv(buf, false); err != nil {
			return err
		}
	}
	out["vnet.probe_poll_ns"] = float64(time.Since(t0)) / float64(polls)
	p.Close()
	a.Close()
	b.Close()

	// client -> [front | back] -> server, the middle pair spliced.
	client, front, err := pair("probe-splice-front:1")
	if err != nil {
		return err
	}
	back, server, err := pair("probe-splice-back:1")
	if err != nil {
		return err
	}
	ss := vnet.NewSpliceSet(1)
	ss.Splice(front, back, nil)
	splices := 300_000 / div
	t0 = time.Now()
	for i := 0; i < splices; i++ {
		if _, err := client.Send(msg, 0); err != nil {
			return err
		}
		if _, _, err := server.Recv(buf, true); err != nil {
			return err
		}
	}
	out["vnet.probe_splice_ns"] = float64(time.Since(t0)) / float64(splices)
	client.Close()
	server.Close()
	ss.Close()
	return nil
}

// Fleet: the serving-at-scale demo. Four MVEE shards serve concurrent
// client streams behind the virtual load balancer; mid-run, one shard's
// master replica is compromised and tampers with an unmonitored response.
// The slave's IP-MON comparison catches the divergence, the supervisor
// quarantines the shard — and freezes the shard's in-flight
// connections, harvests their queued segments, and replays the
// unacknowledged tail onto healthy successor shards, so every client
// stream completes with zero lost requests while the compromised
// shard's replica set is recycled and respawned. Exits non-zero when a
// request is lost or a connection cut.
//
//	go run ./examples/fleet
package main

import (
	"fmt"
	"log"
	"time"

	"remon/internal/fleet"
	"remon/internal/loadgen"
)

func main() {
	f, err := fleet.New(fleet.Config{
		Shards:          4,
		Replicas:        2,
		RequestSize:     64,
		ResponseSize:    256,
		LockstepTimeout: 5 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	fmt.Println("== fleet up: 4 ReMon shards behind", f.FrontAddr(), "==")

	// Closed-loop clients: conns connections of reqs round trips each.
	reqSize, respSize := f.RequestShape()
	drive := func(conns, reqs int) []loadgen.ConnReport {
		return loadgen.Burst(f.FrontNetwork(), f.FrontAddr(), loadgen.Shape{
			RequestsPerConn: reqs, Window: 1, RequestSize: reqSize, ResponseSize: respSize,
		}, conns)
	}
	loadDone := make(chan []loadgen.ConnReport, 1)
	go func() { loadDone <- drive(24, 40) }()

	time.Sleep(2 * time.Millisecond)
	fmt.Println("-- compromising shard 0's master replica (tampered unmonitored response)")
	if err := f.InjectDivergence(0); err != nil {
		log.Fatal(err)
	}
	if !f.WaitRecoveriesDriving(1, 30*time.Second, func() { drive(8, 2) }) {
		log.Fatal("shard never recovered")
	}
	out := <-loadDone

	perShard := map[int][2]int{} // shard -> {completed, errors}
	unrouted, lost := 0, 0
	for _, r := range out {
		shard, _, ok := f.RouteOf(r.Addr)
		if !ok {
			unrouted++
			continue
		}
		agg := perShard[shard]
		agg[0] += r.RespBytes / respSize
		agg[1] += r.Lost
		perShard[shard] = agg
		lost += r.Lost
	}
	fmt.Println("\n-- per-shard client outcome --")
	for i := 0; i < 4; i++ {
		agg := perShard[i]
		note := ""
		if i == 0 {
			// RouteOf reports where a stream finished: the quarantined
			// shard's streams were handed off and completed elsewhere.
			note = "   <- compromised; its streams handed off + finished on other shards"
		}
		fmt.Printf("shard %d: %4d completed, %2d errors%s\n", i, agg[0], agg[1], note)
	}
	if unrouted > 0 {
		fmt.Printf("(%d connections refused during the quarantine window)\n", unrouted)
	}

	fmt.Println("\n-- shard 0 lifecycle --")
	for _, tr := range f.Transitions() {
		if tr.Shard != 0 {
			continue
		}
		fmt.Printf("gen %d: %-11v -> %-11v  %s\n", tr.Gen, tr.From, tr.To, tr.Reason)
	}

	st := f.Stats()
	fmt.Printf("\nverdict: %q\n", st.Shards[0].LastVerdict.Reason)
	fmt.Printf("conns routed=%d refused=%d failovers=%d recoveries=%d\n",
		st.ConnsRouted, st.ConnsRefused, st.Failovers, st.Recoveries)
	fmt.Printf("handoffs=%d replayed=%dB shed=%d\n",
		st.Handoffs, st.ReplayedBytes, st.ConnsShed)
	if lats := f.RecoveryLatencies(); len(lats) > 0 {
		fmt.Printf("recovery latency: %v (host time)\n", lats[0].Round(10*time.Microsecond))
	}
	if lats := f.HandoffLatencies(); len(lats) > 0 {
		fmt.Printf("first handoff latency: %v (host time)\n", lats[0].Round(10*time.Microsecond))
	}
	if lost != 0 || st.Failovers != 0 {
		log.Fatalf("zero-loss failover broken: %d requests lost, %d connections cut", lost, st.Failovers)
	}
}

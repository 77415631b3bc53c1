// Autoscale: the elastic fleet demo. Two MVEE shards boot behind the
// virtual balancer with the fleet's control loop running the pool
// Scaler over the admission plane.
// A surge campaign offers a 10x open-loop connection burst — far over
// the boot pool's slots — and kills a shard mid-scale-up for good
// measure. The autoscaler grows the pool to the MaxShards clamp (the
// admission retry budget bridges its reaction time, so nothing is
// shed), the supervisor's recovery preempts scale decisions while the
// killed shard respawns, and once the surge decays the autoscaler
// drains the extra shards back to the floor. The same campaign against
// an identical fixed-capacity fleet sheds connections with typed
// backpressure — the degradation the elastic pool avoids.
//
//	go run ./examples/autoscale
package main

import (
	"fmt"
	"log"
	"time"

	"remon/internal/chaos"
	"remon/internal/fleet"
	"remon/internal/loadgen"
)

func newFleet() *fleet.Fleet {
	f, err := fleet.New(fleet.Config{
		Shards:           2,
		Replicas:         2,
		RequestSize:      32,
		ResponseSize:     128,
		MaxConnsPerShard: 6,
		AdmitRetries:     96,
		AdmitBackoff:     time.Millisecond,
		LockstepTimeout:  5 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	return f
}

func schedule() chaos.SurgeLoad {
	return chaos.SurgeLoad{
		Phases: []chaos.SurgePhase{
			{Duration: 200 * time.Millisecond, ConnsPerSec: 10},
			{Duration: 150 * time.Millisecond, ConnsPerSec: 100}, // the surge
			{Duration: 200 * time.Millisecond, ConnsPerSec: 10},
		},
		Shape: loadgen.Shape{
			RequestsPerConn: 40,
			Window:          4,
			Gap:             35 * time.Millisecond,
		},
		SampleEvery: 5 * time.Millisecond,
		Settle:      3 * time.Second,
	}
}

func main() {
	f := newFleet()
	defer f.Close()

	as := f.StartControl(fleet.ControlConfig{
		Scaler: &fleet.ScalerConfig{
			MinShards: 2, MaxShards: 4,
			AdmitWaitHigh: 4,
			UpRounds:      2, DownRounds: 6,
			UpCooldown: 10, DownCooldown: 4,
			InFlightFracHigh: 0.8, InFlightFracLow: 0.45,
		},
		Interval: 5 * time.Millisecond,
		Window:   4,
	})
	defer as.Close()

	fmt.Println("== fleet up: 2 shards, autoscaler clamped to [2, 4] ==")
	fmt.Println("-- offering 10x surge, killing shard 0 at t=400ms (mid-scale-up)")

	plan := chaos.Plan{Events: []chaos.Event{{At: 400 * time.Millisecond, Kind: chaos.KillShard, Shard: 0}}}
	rep := chaos.RunSurge(f, plan, schedule())

	fmt.Printf("-- elastic: %d conns offered, %d requests sent, %d answered, %d lost, %d shed\n",
		rep.Launched, rep.RequestsSent(), rep.ResponsesReceived(), rep.Lost(), rep.FleetStats.ConnsShed)
	fmt.Printf("   pool peaked at %d serving shards, settled at %d; admission p99 %v\n",
		rep.PeakServing, rep.FinalServing, rep.AdmitP(0.99).Round(100*time.Microsecond))
	if v := rep.Violations(); len(v) > 0 {
		log.Fatalf("invariants violated: %v", v)
	}
	if rep.Lost() != 0 {
		log.Fatalf("%d requests lost under the surge", rep.Lost())
	}

	fmt.Println("-- pool trajectory (serving-count changes):")
	last := -1
	for _, s := range rep.Samples {
		if s.Serving != last {
			fmt.Printf("   t=%-7v serving=%d pool=%d offered=%d shed=%d\n",
				s.At.Round(time.Millisecond), s.Serving, s.Pool, s.Launched, s.Shed)
			last = s.Serving
		}
	}

	fmt.Println("-- autoscaler decision log (excerpt):")
	seen := 0
	for _, ev := range as.Events() {
		if ev.Decision != fleet.ScaleHold {
			fmt.Printf("   %-10s %s\n", ev.Decision, ev.Reason)
			if seen++; seen == 8 {
				break
			}
		}
	}

	// The counterfactual: the same surge against a pinned pool.
	ff := newFleet()
	defer ff.Close()
	fixed := chaos.RunSurge(ff, chaos.Plan{}, schedule())
	fmt.Printf("-- fixed pool (no autoscaler): %d shed, %d lost, admission p99 %v\n",
		fixed.FleetStats.ConnsShed, fixed.Lost(), fixed.AdmitP(0.99).Round(time.Millisecond))
	fmt.Println("== done: capacity chases offered load; at the clamp the fleet sheds, it never collapses ==")
}

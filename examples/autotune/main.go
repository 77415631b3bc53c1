// Autotune: the self-tuning fleet demo. Four MVEE shards boot at the
// conservative BASE policy and serve mixed client load while the
// fleet's control loop runs a tuner per shard: it watches the shard's
// telemetry deltas against a virtual-time SLO and relaxes the policy
// level one step per round through the live reload path. Once every
// shard is fully relaxed, one shard's master replica is compromised:
// the divergence verdict preempts the SLO loop, the supervisor respawns
// the shard at BASE, and the shard's tuner snaps back with it and
// holds. The telemetry plane itself is exercised over the fleet's
// own virtual network: the demo scrapes /metrics and /health mid-run.
//
//	go run ./examples/autotune
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"remon/internal/fleet"
	"remon/internal/loadgen"
	"remon/internal/policy"
	"remon/internal/telemetry"
)

func main() {
	base := policy.BaseLevel
	f, err := fleet.New(fleet.Config{
		Shards:          4,
		Replicas:        2,
		RequestSize:     64,
		ResponseSize:    256,
		Policy:          &base,
		LockstepTimeout: 5 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	exp, _, err := f.ServeTelemetry("telemetry:9090")
	if err != nil {
		log.Fatal(err)
	}
	defer exp.Close()

	fmt.Println("== fleet up: 4 shards at BASE ==")

	ctl := f.StartControl(fleet.ControlConfig{
		Interval: 2 * time.Millisecond,
		// An aggressive virtual-time SLO: this workload can't meet it at
		// BASE, so the tuner climbs the ladder.
		Tuner: &fleet.TunerConfig{SLONsPerCall: 1, MinCalls: 16},
	})
	defer ctl.Close()

	// Mixed load until every shard's spatial policy is fully relaxed.
	relaxed := func() bool {
		for i := 0; i < 4; i++ {
			if lv, _ := ctl.ShardLevel(i); lv != policy.SocketRWLevel {
				return false
			}
		}
		return true
	}
	// Closed-loop clients: conns connections of reqs round trips each.
	reqSize, respSize := f.RequestShape()
	drive := func(conns, reqs int) {
		loadgen.Burst(f.FrontNetwork(), f.FrontAddr(), loadgen.Shape{
			RequestsPerConn: reqs, Window: 1, RequestSize: reqSize, ResponseSize: respSize,
		}, conns)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !relaxed() {
		if time.Now().After(deadline) {
			log.Fatal("controller never relaxed the fleet")
		}
		drive(8, 8)
	}

	fmt.Println("-- controller relaxed every shard; decision log (shard 0):")
	seen := 0
	for _, ev := range ctl.Events() {
		if ev.Shard == 0 {
			fmt.Printf("   %-9s %s\n", ev.Phase, ev.Reason)
			if seen++; seen == 6 {
				break
			}
		}
	}
	for i := 0; i < 4; i++ {
		lv, _ := ctl.ShardLevel(i)
		fmt.Printf("   shard %d now at %v\n", i, lv)
	}

	// The plane under observation: scrape the fleet's own front network.
	res, err := telemetry.Scrape(f.FrontNetwork(), "telemetry:9090", "/metrics", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- /metrics over vnet (excerpt):")
	for _, line := range strings.Split(string(res.Body), "\n") {
		if strings.HasPrefix(line, "remon_shard_state") ||
			strings.HasPrefix(line, "remon_ghumvee_monitored_calls_total") ||
			strings.HasPrefix(line, "remon_fleet_conns_routed_total") {
			fmt.Println("   " + line)
		}
	}

	fmt.Println("-- compromising shard 2's master replica (tampered response)")
	if err := f.InjectDivergence(2); err != nil {
		log.Fatal(err)
	}
	if !f.WaitRecoveriesDriving(1, 30*time.Second, func() { drive(8, 2) }) {
		log.Fatal("shard never recovered")
	}
	// Let the controller observe the respawned generation.
	snapped := func() bool {
		lv, _ := ctl.ShardLevel(2)
		return lv == policy.BaseLevel
	}
	deadline = time.Now().Add(10 * time.Second)
	for !snapped() {
		if time.Now().After(deadline) {
			log.Fatal("tuner never snapped back after divergence")
		}
		time.Sleep(2 * time.Millisecond)
	}
	fmt.Println("-- divergence verdict wins: shard 2's tuner reset to BASE (holding)")

	rep := f.Health()
	for _, sh := range rep.Shards {
		mark := ""
		if sh.Diverged {
			mark = "  <- diverged, respawned conservative"
		}
		fmt.Printf("   health: shard %d %-8s gen %d policy %-17s verdict %q%s\n",
			sh.Shard, sh.State, sh.Gen, sh.Policy, sh.LastVerdict, mark)
	}
	fmt.Println("== done: relaxation is earned by the SLO loop, trust is reset by the verdict ==")
}

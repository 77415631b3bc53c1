package fleet

import (
	"encoding/json"
	"fmt"
	"testing"

	"remon/internal/telemetry"
)

// TestFleetScrapeCoversEverySubsystem is the PR 7 acceptance check: a
// vnet scrape of the fleet's exporter must return valid Prometheus text
// with every registered subsystem's series present for every shard.
func TestFleetScrapeCoversEverySubsystem(t *testing.T) {
	f, err := New(quickCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	exp, _, err := f.ServeTelemetry("telemetry:9090")
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	// Traffic first, so the counters are non-trivial.
	out := drive(f, 9, 4)
	for _, o := range out {
		if failed(o) {
			t.Fatalf("client errors: %+v", out)
		}
	}

	res, err := telemetry.Scrape(f.FrontNetwork(), "telemetry:9090", "/metrics", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 {
		t.Fatalf("scrape status %d", res.Status)
	}
	samples, err := telemetry.PromParse(string(res.Body))
	if err != nil {
		t.Fatalf("scrape is not valid Prometheus text: %v", err)
	}

	byShard := map[string]map[string]bool{} // shard label -> metric name set
	global := map[string]bool{}
	for _, s := range samples {
		if sh, ok := s.Labels["shard"]; ok {
			if byShard[sh] == nil {
				byShard[sh] = map[string]bool{}
			}
			byShard[sh][s.Name] = true
		} else {
			global[s.Name] = true
		}
	}

	// Every subsystem, for every shard.
	subsystems := []string{
		"remon_ghumvee_monitored_calls_total",
		"remon_ikb_intercepted_total",
		"remon_ipmon_dispatched_total",
		"remon_rb_flushes_total",
		"remon_rb_cur_lag",
		"remon_policy_snapshot_version",
		"remon_mvee_max_lag",
		"remon_mvee_virtual_ns",
		"remon_shard_state",
		"remon_shard_conns_routed_total",
		"remon_vnet_segments_total", // per-shard back network
	}
	for i := 0; i < 3; i++ {
		sh := fmt.Sprint(i)
		if byShard[sh] == nil {
			t.Fatalf("no series at all for shard %s", sh)
		}
		for _, name := range subsystems {
			if !byShard[sh][name] {
				t.Errorf("shard %s missing %s", sh, name)
			}
		}
	}
	// Fleet-global and process-wide families.
	for _, name := range []string{
		"remon_fleet_conns_routed_total",
		"remon_fleet_recoveries_total",
		"remon_arena_hits_total",
		"remon_telemetry_scrapes_total",
	} {
		if !global[name] {
			t.Errorf("missing global series %s", name)
		}
	}

	// Cross-check one value against the Stats() surface: routed conns.
	st := f.Stats()
	for _, s := range samples {
		if s.Name == "remon_fleet_conns_routed_total" {
			if uint64(s.Value) != st.ConnsRouted {
				t.Errorf("scrape routed=%v, Stats routed=%d", s.Value, st.ConnsRouted)
			}
		}
	}

	// Health endpoint agrees on the shard set and serving state.
	hres, err := telemetry.Scrape(f.FrontNetwork(), "telemetry:9090", "/health", res.Arrived)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.HealthReport
	if err := json.Unmarshal(hres.Body, &rep); err != nil {
		t.Fatalf("health JSON: %v", err)
	}
	if rep.Status != "ok" || len(rep.Shards) != 3 {
		t.Fatalf("health: %+v", rep)
	}
	for _, sh := range rep.Shards {
		if sh.State != "serving" {
			t.Errorf("shard %d health state %q", sh.Shard, sh.State)
		}
	}
}

// TestFleetHealthDegradesOnQuarantine: the health document flips to
// degraded while a shard recovers and reports the divergence verdict.
func TestFleetHealthDegradesOnQuarantine(t *testing.T) {
	f, err := New(quickCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if err := f.InjectDivergence(0); err != nil {
		t.Fatal(err)
	}
	if !f.WaitRecoveriesDriving(1, 20e9, burst(f)) {
		t.Fatal("recovery never completed")
	}
	rep := f.Health()
	// Post-recovery the fleet serves again, but the verdict must be
	// visible on the shard's record.
	var diverged bool
	for _, sh := range rep.Shards {
		if sh.Shard == 0 && sh.Diverged && sh.LastVerdict != "" {
			diverged = true
		}
	}
	if !diverged {
		t.Fatalf("divergence not surfaced in health: %+v", rep)
	}
}

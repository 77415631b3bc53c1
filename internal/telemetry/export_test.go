package telemetry

import (
	"encoding/json"
	"strings"
	"testing"

	"remon/internal/vnet"
)

type fakeHealth struct{}

func (fakeHealth) Health() HealthReport {
	return HealthReport{
		Status: "ok",
		Shards: []ShardHealth{{Shard: 0, State: "serving", Policy: "SOCKET_RW"}},
	}
}

// TestExporterScrape drives a full virtual-network scrape: bind, GET
// /metrics, validate the payload, GET /health, decode the JSON.
func TestExporterScrape(t *testing.T) {
	net := vnet.New(vnet.Loopback)
	reg := NewRegistry()
	reg.Counter("exp_reqs_total", "requests", L("shard", "0")).Add(5)

	exp, err := NewExporter(net, "telemetry:9090", reg, fakeHealth{})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	res, err := Scrape(net, "telemetry:9090", "/metrics", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 {
		t.Fatalf("scrape status %d, want 200", res.Status)
	}
	samples, err := PromParse(string(res.Body))
	if err != nil {
		t.Fatalf("scrape body invalid:\n%s\nerr: %v", res.Body, err)
	}
	found := false
	for _, s := range samples {
		if s.Name == "exp_reqs_total" && s.Labels["shard"] == "0" && s.Value == 5 {
			found = true
		}
	}
	if !found {
		t.Errorf("exp_reqs_total{shard=0} 5 not in scrape:\n%s", res.Body)
	}

	// The exporter self-instruments: a second scrape sees the first.
	res2, err := Scrape(net, "telemetry:9090", "/metrics", res.Arrived)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(res2.Body), "remon_telemetry_scrapes_total") {
		t.Error("exporter self-metrics missing")
	}
	if !strings.Contains(string(res2.Body), "remon_telemetry_scrape_bytes_bucket") {
		t.Error("scrape-size histogram missing")
	}
	if res2.Arrived <= res.Arrived {
		t.Error("second scrape's virtual arrival did not advance")
	}

	// Health endpoint.
	hres, err := Scrape(net, "telemetry:9090", "/health", res2.Arrived)
	if err != nil {
		t.Fatal(err)
	}
	var rep HealthReport
	if err := json.Unmarshal(hres.Body, &rep); err != nil {
		t.Fatalf("health JSON invalid: %v\n%s", err, hres.Body)
	}
	if rep.Status != "ok" || len(rep.Shards) != 1 || rep.Shards[0].State != "serving" {
		t.Errorf("health report %+v", rep)
	}

	// Unknown path and bad method.
	if r, err := Scrape(net, "telemetry:9090", "/nope", 0); err != nil || r.Status != 404 {
		t.Errorf("unknown path: %v %v", r.Status, err)
	}
}

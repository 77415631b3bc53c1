// The health model: a JSON document describing each shard's lifecycle
// state and load, served by the exporter at /health. The shape mirrors
// what an external orchestrator needs to make the decisions the fleet's
// control loop makes internally — serving set, policy level, in-flight
// load, shed pressure, last verdict.
package telemetry

import "encoding/json"

// ShardHealth is one shard's health summary.
type ShardHealth struct {
	Shard int `json:"shard"`
	// State is the lifecycle state: serving / draining / quarantined /
	// respawning.
	State string `json:"state"`
	Gen   int    `json:"gen"`
	// Policy is the shard's active global relaxation level name.
	Policy string `json:"policy"`
	// InFlight is tracked connections plus pending admissions.
	InFlight int `json:"in_flight"`
	// LastVerdict is the most recent divergence verdict reason (empty if
	// the shard never diverged).
	LastVerdict string `json:"last_verdict,omitempty"`
	Diverged    bool   `json:"diverged"`
}

// HealthReport is the fleet-wide health document.
type HealthReport struct {
	// Status is "ok" when every shard is Serving, "degraded" otherwise.
	Status string        `json:"status"`
	Shards []ShardHealth `json:"shards"`
	// ShedRate is the fraction of admission attempts shed with
	// ErrOverloaded over the fleet's lifetime.
	ShedRate     float64 `json:"shed_rate"`
	ConnsRouted  uint64  `json:"conns_routed"`
	ConnsRefused uint64  `json:"conns_refused"`
	ConnsShed    uint64  `json:"conns_shed"`
	Handoffs     uint64  `json:"handoffs"`
	Failovers    uint64  `json:"failovers"`
	Recoveries   int     `json:"recoveries"`
}

// JSON renders the report (indented — the /health payload).
func (h HealthReport) JSON() []byte {
	b, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return []byte(`{"status":"error"}`)
	}
	return b
}

// HealthSource supplies the /health document; fleet.Fleet implements it.
type HealthSource interface {
	Health() HealthReport
}

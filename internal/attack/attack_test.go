package attack

import (
	"strings"
	"testing"
)

func TestDivergentWriteMonitored(t *testing.T) {
	o := DivergentWriteMonitored()
	if !o.Detected {
		t.Fatalf("attack survived: %s", o.Detail)
	}
}

func TestDivergentWriteUnmonitored(t *testing.T) {
	o := DivergentWriteUnmonitored()
	if !o.Detected {
		t.Fatalf("attack survived: %s", o.Detail)
	}
	if !strings.Contains(o.Detail, "ipmon-detected=true") {
		t.Fatalf("detection did not flow through IP-MON: %s", o.Detail)
	}
}

func TestDivergentSyscallSequence(t *testing.T) {
	o := DivergentSyscallSequence()
	if !o.Detected {
		t.Fatalf("attack survived: %s", o.Detail)
	}
}

func TestTokenForgery(t *testing.T) {
	o := TokenForgery()
	if !o.Detected {
		t.Fatalf("forged token accepted: %s", o.Detail)
	}
}

func TestStaleTokenReplay(t *testing.T) {
	o := StaleTokenReplay()
	if !o.Detected {
		t.Fatalf("outstanding token survived a foreign call: %s", o.Detail)
	}
}

func TestSharedMemoryChannel(t *testing.T) {
	o := SharedMemoryChannel()
	if !o.Detected {
		t.Fatalf("shm channel allowed: %s", o.Detail)
	}
}

func TestRBDisclosureViaProcMaps(t *testing.T) {
	o := RBDisclosureViaProcMaps()
	if !o.Detected {
		t.Fatalf("RB visible through /proc: %s", o.Detail)
	}
}

func TestRBPointerLeakScan(t *testing.T) {
	o := RBPointerLeakScan()
	if !o.Detected {
		t.Fatalf("RB pointer leaked into process memory: %s", o.Detail)
	}
}

func TestRBGuessingEntropy(t *testing.T) {
	o := RBGuessingEntropy(8)
	if !o.Detected {
		t.Fatalf("RB bases not diversified: %s", o.Detail)
	}
}

func TestDCLIntegrity(t *testing.T) {
	o := DCLIntegrity()
	if !o.Detected {
		t.Fatalf("DCL violated: %s", o.Detail)
	}
}

func TestMasterRunAheadWindow(t *testing.T) {
	small := MasterRunAheadWindow(256 * 1024)
	if !small.Detected {
		t.Fatalf("run-ahead attack survived: %s", small.Detail)
	}
}

func TestFleetShardCompromise(t *testing.T) {
	o := FleetShardCompromise()
	if !o.Detected {
		t.Fatalf("fleet containment failed: %s", o.Detail)
	}
}

func TestVaranMissesDivergentWrite(t *testing.T) {
	o := VaranMissesDivergentWrite()
	if !o.Detected {
		t.Fatalf("baseline unexpectedly caught the attack — Table 2's security contrast breaks: %s", o.Detail)
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, o := range RunAll() {
		if !o.Detected {
			t.Errorf("scenario failed: %s", o)
		}
		t.Log(o.String())
	}
}

package workload

import (
	"math"
	"testing"

	"remon/internal/core"
	"remon/internal/libc"
	"remon/internal/model"
	"remon/internal/policy"
	"remon/internal/vkernel"
	"remon/internal/vnet"
)

func newLibcEnv(t *vkernel.Thread) *libc.Env { return libc.NewEnv(t, 0, nil) }

func TestFig3ProfilesComplete(t *testing.T) {
	profiles := Fig3Profiles(100)
	if len(profiles) != 25 {
		t.Fatalf("Fig3 profiles = %d, want 25 (12 PARSEC + 13 SPLASH)", len(profiles))
	}
	for _, p := range profiles {
		if p.Threads != 4 {
			t.Errorf("%s: threads = %d, want 4", p.Name, p.Threads)
		}
		var sum float64
		for _, f := range p.Fractions {
			if f < 0 {
				t.Errorf("%s: negative fraction", p.Name)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: fractions sum to %v", p.Name, sum)
		}
		if p.ComputePerCall <= 0 {
			t.Errorf("%s: non-positive compute per call", p.Name)
		}
	}
}

func TestFig3DensityOrdering(t *testing.T) {
	// The paper's high-overhead benchmarks must come out as the densest.
	profiles := Fig3Profiles(100)
	byName := map[string]*Profile{}
	for i := range profiles {
		byName[profiles[i].Name] = &profiles[i]
	}
	if byName["dedup"].SyscallDensity() <= byName["raytrace"].SyscallDensity() {
		t.Fatal("dedup not denser than raytrace")
	}
	if byName["water_spatial"].SyscallDensity() <= byName["fft"].SyscallDensity() {
		t.Fatal("water_spatial not denser than fft")
	}
}

func TestFig4ProfilesComplete(t *testing.T) {
	profiles := Fig4Profiles(100)
	if len(profiles) != 8 {
		t.Fatalf("Fig4 profiles = %d, want 8", len(profiles))
	}
	for _, p := range profiles {
		if len(p.PaperIPMon) != 6 {
			t.Errorf("%s: paper targets = %d, want 6 levels", p.Name, len(p.PaperIPMon))
		}
	}
	// network-loopback must be socket-heavy.
	nl := profiles[6]
	if nl.Name != "network-loopback" {
		t.Fatalf("profile order changed: %s", nl.Name)
	}
	if !nl.NeedsSockets() {
		t.Fatal("network-loopback has no socket classes")
	}
	if nl.Fractions[ClassSocketRW] <= 0 || nl.Fractions[ClassSocketRO] <= 0 {
		t.Fatalf("network-loopback socket fractions: %+v", nl.Fractions)
	}
}

func TestSpecProfiles(t *testing.T) {
	profiles := SpecProfiles(50)
	if len(profiles) != 12 {
		t.Fatalf("SPEC profiles = %d", len(profiles))
	}
	for _, p := range profiles {
		if p.NeedsSockets() {
			t.Errorf("%s: SPEC profile with sockets", p.Name)
		}
	}
}

func TestClassAtDeterministic(t *testing.T) {
	p := Fig4Profiles(100)[0]
	for i := 0; i < 200; i++ {
		if classAt(p, 1, i) != classAt(p, 1, i) {
			t.Fatal("classAt not deterministic")
		}
	}
	// Distribution roughly matches fractions.
	counts := map[Class]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[classAt(p, 0, i)]++
	}
	for c := Class(0); c < NumClasses; c++ {
		got := float64(counts[c]) / n
		want := p.Fractions[c]
		if math.Abs(got-want) > 0.02 {
			t.Errorf("class %d: frequency %.3f, want %.3f", c, got, want)
		}
	}
}

func TestSyntheticProgramRunsNative(t *testing.T) {
	p := Fig3Profiles(60)[0] // blackscholes, 4 threads
	rep, err := core.RunProgram(core.Config{Mode: core.ModeNative, Seed: 5}, SyntheticProgram(p))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Syscalls < uint64(p.Iterations) {
		t.Fatalf("only %d syscalls for %d iterations x 4 threads", rep.Syscalls, p.Iterations)
	}
}

func TestSyntheticProgramSocketProfileUnderReMon(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := Fig4Profiles(80)[6] // network-loopback
	rep, err := core.RunProgram(core.Config{
		Mode: core.ModeReMon, Replicas: 2, Policy: policy.SocketRWLevel,
		Seed: 5, Partitions: 16,
	}, SyntheticProgram(p))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict.Diverged {
		t.Fatalf("socket profile diverged: %+v", rep.Verdict)
	}
}

func TestExpectedClassCountMatchesRuntime(t *testing.T) {
	p := Fig4Profiles(500)[6]
	want := expectedClassCount(p, 0, ClassSocketRO)
	got := 0
	for i := 0; i < p.Iterations; i++ {
		if classAt(p, 0, i) == ClassSocketRO {
			got++
		}
	}
	if got != want {
		t.Fatalf("expectedClassCount = %d, runtime = %d", want, got)
	}
}

func TestClientsAgainstTrivialServer(t *testing.T) {
	net := vnet.New(vnet.Loopback)
	k := vkernel.New(net)
	// Hand-rolled echo server on a native thread.
	go func() {
		p := k.NewProcess("srv", 1, 0)
		th := p.NewThread(nil)
		env := newLibcEnv(th)
		lfd, _ := env.Socket()
		env.Bind(lfd, "echo:1")
		env.Listen(lfd, 16)
		for i := 0; i < 2; i++ {
			conn, errno := env.Accept(lfd)
			if errno != 0 {
				return
			}
			go func(c int) {
				we := newLibcEnv(p.NewThread(th))
				buf := make([]byte, 256)
				for {
					n, errno := we.Recv(c, buf)
					if errno != 0 || n == 0 {
						return
					}
					we.Send(c, make([]byte, 64))
				}
			}(conn)
		}
	}()
	res := RunClients(k, ClientConfig{
		Addr: "echo:1", Connections: 2, RequestsPerConn: 5,
		RequestSize: 32, ResponseSize: 64,
		ThinkTime: model.Microsecond,
	}, 3)
	if res.Errors != 0 || res.Completed != 10 {
		t.Fatalf("clients: %+v", res)
	}
	if res.Duration <= 0 {
		t.Fatal("no client time measured")
	}
}

func TestClientConfigTotals(t *testing.T) {
	c := ClientConfig{Connections: 3, RequestsPerConn: 7}
	if c.TotalRequests() != 21 {
		t.Fatalf("TotalRequests = %d", c.TotalRequests())
	}
}

// Package workload builds the benchmark workloads of §5: synthetic
// profiles standing in for the PARSEC 2.1 / SPLASH-2x / Phoronix binaries,
// and client load generators for the server benchmarks.
//
// A profile is calibrated from the paper's own reported bars: every
// benchmark's published "no IP-MON" overhead pins its system call density
// (CP-MVEE overhead is density × per-call lockstep cost), and the per-level
// overhead deltas pin how the calls split across Table 1's exemption
// classes. The simulation then *measures* the profiles under each monitor
// configuration — reproducing the figure shapes from first principles
// rather than replaying numbers.
package workload

import (
	"remon/internal/model"
)

// Syscall classes a profile mixes (each maps to one Table 1 bucket).
type Class int

// Workload syscall classes.
const (
	// ClassBase: time/identity queries (BASE_LEVEL exempt).
	ClassBase Class = iota
	// ClassFileRO: reads on regular files (NONSOCKET_RO conditional).
	ClassFileRO
	// ClassFileRW: writes on regular files (NONSOCKET_RW conditional).
	ClassFileRW
	// ClassSocketRO: reads on sockets (SOCKET_RO exempt).
	ClassSocketRO
	// ClassSocketRW: writes on sockets (SOCKET_RW exempt).
	ClassSocketRW
	// ClassSensitive: always-monitored calls (memory management).
	ClassSensitive
	// NumClasses bounds the class array.
	NumClasses
)

// Profile is one synthetic benchmark.
type Profile struct {
	Name    string
	Suite   string
	Threads int
	// Iterations per worker thread.
	Iterations int
	// ComputePerCall is the pure user-space work between consecutive
	// system calls (the inverse of syscall density).
	ComputePerCall model.Duration
	// Fractions over classes (sums to 1).
	Fractions [NumClasses]float64
	// Paper targets that `go run ./cmd/remon-bench -experiment all`
	// prints next to its own figures: normalized execution time without
	// IP-MON and with IP-MON (the figure's two/six bars).
	PaperNoIPMon float64
	PaperIPMon   map[string]float64 // level name -> normalized time
}

// Calibration constants: estimated per-syscall overhead added to the
// critical path by the two monitoring paths, used only to derive profile
// densities from the paper's bars (the simulation measures real costs).
const (
	// estMonitoredCost is the lockstep path: two ptrace stops per replica,
	// rendezvous serialisation, comparison.
	estMonitoredCost = 11 * model.Microsecond
	// estUnmonitoredCost is the IP-MON fast path: broker route, token
	// check, RB traffic.
	estUnmonitoredCost = 1200 * model.Nanosecond
)

// densityFromOverhead inverts O = 1 + d*cost.
func densityFromOverhead(overhead float64, cost model.Duration) float64 {
	if overhead <= 1.005 {
		overhead = 1.005
	}
	return (overhead - 1) / cost.Seconds()
}

// fig3Targets: per-benchmark (noIPMon, IPMon@NONSOCKET_RW) normalized
// execution times from Figure 3.
var fig3Targets = []struct {
	name       string
	suite      string
	noIP, ipRW float64
}{
	{"blackscholes", "parsec", 1.09, 1.04},
	{"bodytrack", "parsec", 1.15, 1.03},
	{"dedup", "parsec", 3.53, 1.69},
	{"facesim", "parsec", 1.11, 1.03},
	{"ferret", "parsec", 1.04, 1.11},
	{"fluidanimate", "parsec", 1.28, 1.33},
	{"freqmine", "parsec", 1.06, 1.05},
	{"raytrace", "parsec", 1.03, 1.00},
	{"streamcluster", "parsec", 1.16, 0.97},
	{"swaptions", "parsec", 1.07, 1.07},
	{"vips", "parsec", 1.10, 1.03},
	{"x264", "parsec", 1.11, 1.16},
	{"barnes", "splash", 1.48, 1.52},
	{"fft", "splash", 1.03, 1.02},
	{"fmm", "splash", 1.55, 1.13},
	{"lu_cb", "splash", 1.01, 1.00},
	{"lu_ncb", "splash", 0.94, 0.95},
	{"ocean_cp", "splash", 1.06, 1.05},
	{"ocean_ncp", "splash", 1.09, 1.05},
	{"radiosity", "splash", 1.63, 1.38},
	{"radix", "splash", 1.05, 1.05},
	{"raytrace_sp", "splash", 1.17, 1.02},
	{"volrend", "splash", 1.22, 1.07},
	{"water_nsquared", "splash", 1.04, 1.02},
	{"water_spatial", "splash", 4.20, 1.21},
}

// Fig3Profiles builds the PARSEC + SPLASH profiles (4 worker threads, 2
// replicas in the experiment driver).
func Fig3Profiles(iterations int) []Profile {
	if iterations <= 0 {
		iterations = 1500
	}
	var out []Profile
	for _, tgt := range fig3Targets {
		d := densityFromOverhead(tgt.noIP, estMonitoredCost)
		// Sensitive fraction from the IP-MON bar: at NONSOCKET_RW the
		// base/fileRO/fileRW mass goes fast, the sensitive mass stays
		// monitored.
		perCallIP := (max1(tgt.ipRW) - 1) / d // seconds per call under IP-MON
		fm := (perCallIP - estUnmonitoredCost.Seconds()) /
			(estMonitoredCost - estUnmonitoredCost).Seconds()
		if fm < 0 {
			fm = 0
		}
		if fm > 1 {
			fm = 1
		}
		rest := 1 - fm
		p := Profile{
			Name:           tgt.name,
			Suite:          tgt.suite,
			Threads:        4,
			Iterations:     iterations,
			ComputePerCall: model.Duration(1 / d * 1e9),
			PaperNoIPMon:   tgt.noIP,
			PaperIPMon:     map[string]float64{"NONSOCKET_RW_LEVEL": tgt.ipRW},
		}
		p.Fractions[ClassSensitive] = fm
		p.Fractions[ClassBase] = rest * 0.4
		p.Fractions[ClassFileRO] = rest * 0.4
		p.Fractions[ClassFileRW] = rest * 0.2
		out = append(out, p)
	}
	return out
}

func max1(v float64) float64 {
	if v < 1.005 {
		return 1.005
	}
	return v
}

// fig4Targets: per-benchmark normalized execution time for (no IP-MON,
// BASE, NONSOCKET_RO, NONSOCKET_RW, SOCKET_RO, SOCKET_RW) from Figure 4.
var fig4Targets = []struct {
	name   string
	levels [6]float64
}{
	{"compress-gzip", [6]float64{1.11, 1.11, 1.04, 1.04, 1.04, 1.05}},
	{"encode-flac", [6]float64{1.17, 1.17, 1.08, 1.02, 1.02, 1.02}},
	{"encode-ogg", [6]float64{1.09, 1.10, 1.06, 1.01, 1.01, 1.01}},
	{"mencoder", [6]float64{1.05, 1.04, 1.01, 1.00, 1.00, 1.00}},
	{"phpbench", [6]float64{2.48, 1.90, 1.90, 1.13, 1.13, 1.13}},
	{"unpack-linux", [6]float64{1.47, 1.48, 1.44, 1.22, 1.17, 1.17}},
	{"network-loopback", [6]float64{25.46, 25.36, 24.89, 17.03, 9.18, 3.00}},
	{"nginx-phoronix", [6]float64{9.77, 7.76, 7.74, 7.58, 6.65, 3.71}},
}

// Fig4LevelNames orders the six series of Figure 4.
var Fig4LevelNames = []string{
	"NO_IPMON", "BASE_LEVEL", "NONSOCKET_RO_LEVEL", "NONSOCKET_RW_LEVEL",
	"SOCKET_RO_LEVEL", "SOCKET_RW_LEVEL",
}

// Fig4Profiles builds the Phoronix profiles. Class fractions derive from
// the per-level overhead drops: the mass that becomes exempt at level L is
// proportional to the bar delta between L-1 and L.
func Fig4Profiles(iterations int) []Profile {
	if iterations <= 0 {
		iterations = 1500
	}
	var out []Profile
	for _, tgt := range fig4Targets {
		d := densityFromOverhead(tgt.levels[0], estMonitoredCost)
		diff := (estMonitoredCost - estUnmonitoredCost).Seconds()
		classOrder := []Class{ClassBase, ClassFileRO, ClassFileRW, ClassSocketRO, ClassSocketRW}
		var fr [NumClasses]float64
		total := 0.0
		for i, cls := range classOrder {
			delta := tgt.levels[i] - tgt.levels[i+1]
			if delta < 0 {
				delta = 0
			}
			f := delta / (d * diff)
			fr[cls] = f
			total += f
		}
		if total > 1 {
			for c := range fr {
				fr[c] /= total
			}
			total = 1
		}
		fr[ClassSensitive] = 1 - total
		levels := map[string]float64{}
		for i, name := range Fig4LevelNames {
			levels[name] = tgt.levels[i]
		}
		p := Profile{
			Name:           tgt.name,
			Suite:          "phoronix",
			Threads:        1,
			Iterations:     iterations,
			ComputePerCall: model.Duration(1 / d * 1e9),
			Fractions:      fr,
			PaperNoIPMon:   tgt.levels[0],
			PaperIPMon:     levels,
		}
		out = append(out, p)
	}
	return out
}

// SpecProfiles models the SPEC CPU2006-like suite of Table 2: long
// compute phases with sparse, mostly file-RO system calls.
func SpecProfiles(iterations int) []Profile {
	if iterations <= 0 {
		iterations = 400
	}
	specs := []struct {
		name string
		noIP float64
	}{
		{"perlbench-like", 1.25}, {"bzip2-like", 1.05}, {"gcc-like", 1.18},
		{"mcf-like", 1.08}, {"gobmk-like", 1.12}, {"hmmer-like", 1.03},
		{"sjeng-like", 1.06}, {"libquantum-like", 1.02}, {"h264ref-like", 1.15},
		{"omnetpp-like", 1.20}, {"astar-like", 1.07}, {"xalancbmk-like", 1.30},
	}
	var out []Profile
	for _, s := range specs {
		d := densityFromOverhead(s.noIP, estMonitoredCost)
		p := Profile{
			Name:           s.name,
			Suite:          "spec",
			Threads:        1,
			Iterations:     iterations,
			ComputePerCall: model.Duration(1 / d * 1e9),
			PaperNoIPMon:   s.noIP,
		}
		p.Fractions[ClassBase] = 0.3
		p.Fractions[ClassFileRO] = 0.5
		p.Fractions[ClassFileRW] = 0.1
		p.Fractions[ClassSensitive] = 0.1
		out = append(out, p)
	}
	return out
}

// NeedsSockets reports whether the profile emits socket-class calls (the
// synthetic program then sets up its loopback peer).
func (p *Profile) NeedsSockets() bool {
	return p.Fractions[ClassSocketRO] > 0 || p.Fractions[ClassSocketRW] > 0
}

// SyscallDensity reports the profile's target syscall rate (calls per
// virtual second).
func (p *Profile) SyscallDensity() float64 {
	if p.ComputePerCall <= 0 {
		return 0
	}
	return 1 / p.ComputePerCall.Seconds()
}

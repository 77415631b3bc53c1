package main

import (
	"math"
	"sort"
)

// batch is one group of operations a worker reports together: one
// MVEE.Run for the closed loops, one server run (connections x requests)
// for `server`, one generator tick for `fleet_open`.
type batch struct {
	// OK holds the host latency, in ns, of each successful operation.
	OK []int64 `json:"ok,omitempty"`
	// VirtX holds virtual-time overhead samples: virtual duration under
	// the monitor divided by the virtual duration of the same input under
	// ModeNative (what one sample spans is the workload's business; the
	// parent only takes their median).
	VirtX []float64 `json:"virt_x,omitempty"`
	// Fail counts failed operations by kind.
	Fail map[string]int `json:"fail,omitempty"`
	// Busy is the host time, in ns, the successful operations of this
	// batch kept the system busy. Zero excludes the batch from ops_per_s
	// (a hung server run: its answered requests still count as
	// successes, its watchdog wait does not count as service time).
	Busy int64 `json:"busy,omitempty"`
}

func (b batch) failed() int { return sumCounts(b.Fail) }

func sumCounts(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// Failure kinds. verdict: the lockstep watchdog (or a divergence check)
// fired on benign input. hang: the harness deadline expired without a
// verdict. crash: the worker process died. wrong: an output check failed.
const (
	kindVerdict = "verdict"
	kindHang    = "hang"
	kindCrash   = "crash"
	kindWrong   = "wrong"
)

var failKinds = []string{kindVerdict, kindHang, kindCrash, kindWrong}

// agg accumulates batches in arrival order.
type agg struct {
	ok        []int64
	virtX     []float64
	kinds     map[string]int
	attempted int
	batchOK   []int
	batchBusy []int64
}

func newAgg() *agg { return &agg{kinds: map[string]int{}} }

func (a *agg) add(b batch) {
	a.ok = append(a.ok, b.OK...)
	a.virtX = append(a.virtX, b.VirtX...)
	for k, v := range b.Fail {
		a.kinds[k] += v
	}
	a.attempted += len(b.OK) + b.failed()
	if b.Busy > 0 {
		a.batchOK = append(a.batchOK, len(b.OK))
		a.batchBusy = append(a.batchBusy, b.Busy)
	}
}

func (a *agg) failed() int { return sumCounts(a.kinds) }

// opsPerSec is successful operations per second of host time spent inside
// successful operations, taken over each fifth of the run; the median of
// the five is reported so one disturbed stretch cannot move it.
func (a *agg) opsPerSec() float64 { return medianOfFifths(a.batchOK, a.batchBusy) }

func medianOfFifths(ok []int, busyNs []int64) float64 {
	n := len(ok)
	if n == 0 {
		return 0
	}
	parts := 5
	if n < parts {
		parts = n
	}
	rates := make([]float64, 0, parts)
	for p := 0; p < parts; p++ {
		lo, hi := p*n/parts, (p+1)*n/parts
		var cnt int
		var busy int64
		for i := lo; i < hi; i++ {
			cnt += ok[i]
			busy += busyNs[i]
		}
		if busy > 0 {
			rates = append(rates, float64(cnt)/(float64(busy)/1e9))
		}
	}
	return median(rates)
}

// latencyMs is the p-quantile of operation latency in ms. Failed
// operations rank above every success (they miss any latency limit), so a
// quantile that lands among them reports the slowest success: the
// quantile is then only a lower bound, which is why p90 is the highest
// one the benchmark gates.
func (a *agg) latencyMs(p float64) float64 {
	if len(a.ok) == 0 {
		return 0
	}
	sorted := append([]int64(nil), a.ok...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := rankIndex(a.attempted, p)
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / 1e6
}

// rankIndex is the nearest-rank index of the p-quantile among n samples.
func rankIndex(n int, p float64) int {
	if n <= 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// percentile is the nearest-rank p-quantile of xs (not modified).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[rankIndex(len(sorted), p)]
}

// median averages the two middle values of an even-sized sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// worseBy reports by what share of base the value v is worse, given which
// direction is better ("lower" or "higher"); negative when v is better.
func worseBy(base, v float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - v) / base
	}
	return (v - base) / base
}

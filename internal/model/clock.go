// Package model provides the deterministic virtual-time substrate used by
// the whole reproduction: per-thread virtual clocks, the calibrated cost
// model for kernel and monitor operations, and a deterministic PRNG.
//
// Every simulated operation charges virtual nanoseconds to the thread that
// performs it. Synchronisation points (lockstep rendezvous, futex wakes,
// replication-buffer reads) propagate clock values so that a run's total
// virtual duration — the maximum final clock over all threads — models the
// critical path of a parallel execution. Every result that
// `go run ./cmd/remon-bench -experiment all` prints is a ratio of such
// durations, mirroring the paper's "normalized execution time" metric.
package model

import (
	"fmt"
	"sync/atomic"
)

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common virtual durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

func (d Duration) String() string {
	switch {
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.2fus", float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", float64(d)/float64(Second))
	}
}

// Seconds reports d as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Clock is a monotone virtual clock owned by a single simulated thread.
// The owning thread advances it with Advance; other threads may read it
// and synchronise to it via SyncTo. All accesses are atomic so that
// cross-thread clock propagation (e.g. a slave reading the master's
// publish timestamp) is race-free.
type Clock struct {
	now atomic.Int64
}

// Now reports the current virtual time.
func (c *Clock) Now() Duration { return Duration(c.now.Load()) }

// Advance moves the clock forward by d (clamped at zero for negative d)
// and reports the new time.
func (c *Clock) Advance(d Duration) Duration {
	if d < 0 {
		d = 0
	}
	return Duration(c.now.Add(int64(d)))
}

// SyncTo moves the clock forward to at least t. It models the thread
// blocking until virtual time t (a rendezvous or a data dependency).
// It reports the new time, which is max(current, t).
func (c *Clock) SyncTo(t Duration) Duration {
	for {
		cur := c.now.Load()
		if cur >= int64(t) {
			return Duration(cur)
		}
		if c.now.CompareAndSwap(cur, int64(t)) {
			return t
		}
	}
}

// MaxClock reports the maximum current time over the given clocks.
func MaxClock(clocks ...*Clock) Duration {
	var m Duration
	for _, c := range clocks {
		if t := c.Now(); t > m {
			m = t
		}
	}
	return m
}

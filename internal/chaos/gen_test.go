package chaos

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"remon/internal/fleet"
)

// TestGenZeroLossFlatGoroutines: paced open-loop campaigns on the
// event-driven generator against a polled-splice fleet lose, invent and
// reorder nothing, and the goroutine high-water is a function of the
// configuration (generator loops, splice loops, shards), never of the
// connection count: 4x the connections costs at most a constant more.
func TestGenZeroLossFlatGoroutines(t *testing.T) {
	const (
		shards, replicas = 2, 2
		loops, splice    = 4, 2
		reqsPerConn      = 2
		respSize         = 64
		ratePerSec       = 2000
	)
	base := runtime.NumGoroutine()
	f, err := fleet.New(fleet.Config{
		Shards:          shards,
		Replicas:        replicas,
		RequestSize:     32,
		ResponseSize:    respSize,
		SpliceLoops:     splice,
		DisableRouteLog: true,
		LockstepTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Generator loops, splice loops + admit workers, per-shard MVEE
	// machinery, the sampler, with headroom — but less than the two
	// goroutines per connection a per-connection client would add.
	pin := base + loops + 2*splice + shards*(6+4*replicas) + 16

	campaign := func(conns int) (highWater int) {
		arrivals := make([]time.Duration, conns)
		for i := range arrivals {
			arrivals[i] = time.Duration(i) * time.Second / ratePerSec
		}
		var launched, sent, lost, phantom, regressed, errs int
		var active atomic.Int64
		peakActive := 0
		g := &Gen{
			Net:  f.FrontNetwork(),
			Addr: f.FrontAddr(),
			PerConn: Load{
				RequestsPerConn: reqsPerConn, Window: 1, Gap: 10 * time.Millisecond,
				RequestSize: 32, ResponseSize: respSize, Timeout: 30 * time.Second,
			},
			Arrivals: arrivals,
			Loops:    loops,
			Active:   &active,
			OnDone: func(r ConnReport) {
				launched++
				sent += r.Sent
				lost += r.Lost
				if r.Phantom {
					phantom++
				}
				if r.Regressed {
					regressed++
				}
				if r.Err != "" {
					errs++
				}
			},
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					highWater = max(highWater, runtime.NumGoroutine())
					peakActive = max(peakActive, int(active.Load()))
				}
			}
		}()
		g.Run()
		close(stop)
		wg.Wait()

		if launched != conns || sent != conns*reqsPerConn {
			t.Errorf("%d conns: %d completed, %d requests sent, want %d", conns, launched, sent, conns*reqsPerConn)
		}
		if lost != 0 || phantom != 0 || regressed != 0 || errs != 0 {
			t.Errorf("%d conns: %d lost, %d phantom, %d regressed, %d errors", conns, lost, phantom, regressed, errs)
		}
		// Each connection lives at least one 10ms Gap, so the offered rate
		// keeps >= 20 open at once: enough that per-connection goroutines
		// would break the pin.
		if peakActive < 10 {
			t.Errorf("%d conns: only %d open at once; the pin proves nothing", conns, peakActive)
		}
		if highWater > pin {
			t.Errorf("%d conns: goroutine high-water %d exceeds the config pin %d", conns, highWater, pin)
		}
		t.Logf("%d conns: goroutine high-water %d (pin %d), %d open at peak", conns, highWater, pin, peakActive)
		return highWater
	}
	small := campaign(400)
	large := campaign(1600)
	if grow := large - small; grow > 16 {
		t.Errorf("goroutine high-water grew by %d from 400 to 1600 conns; want <= 16", grow)
	}
}

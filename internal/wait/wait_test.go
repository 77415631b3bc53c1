package wait

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"remon/internal/model"
)

// parkedOn waits until n parties are parked on q and returns them.
func parkedOn(t *testing.T, q *Queue, n int) []Waiter {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var on []Waiter
		for _, w := range Parked() {
			if w.On == q {
				on = append(on, w)
			}
		}
		if len(on) == n {
			return on
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d parties parked on the queue, want %d", len(on), n)
		}
		runtime.Gosched()
	}
}

// TestWakeFIFOHandsOffVirtualTime: Wake releases parties in park order
// and each Park returns its waker's virtual time.
func TestWakeFIFOHandsOffVirtualTime(t *testing.T) {
	var mu sync.Mutex
	var q Queue
	got := make(chan [2]model.Duration, 3)
	for i := 1; i <= 3; i++ {
		since := model.Duration(i)
		go func() {
			mu.Lock()
			at := q.Park(&mu, "fifo", since)
			mu.Unlock()
			got <- [2]model.Duration{since, at}
		}()
		parkedOn(t, &q, i) // fix the park order
	}
	mu.Lock()
	if n := q.Len(); n != 3 {
		t.Fatalf("Len = %d, want 3", n)
	}
	mu.Unlock()
	for i := 1; i <= 3; i++ {
		mu.Lock()
		if n := q.Wake(1, model.Duration(100*i)); n != 1 {
			t.Fatalf("Wake(1) woke %d", n)
		}
		mu.Unlock()
		r := <-got
		if r[0] != model.Duration(i) || r[1] != model.Duration(100*i) {
			t.Fatalf("wake %d released the party parked at %d with vt %d", i, r[0], r[1])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if n := q.WakeAll(0); n != 0 || q.Len() != 0 {
		t.Fatalf("empty queue: WakeAll woke %d, Len %d", n, q.Len())
	}
}

// TestParkedReportsReasonQueueAndSince: the registry lists a parked
// party with what Park was given, and forgets it once it is woken.
func TestParkedReportsReasonQueueAndSince(t *testing.T) {
	var mu sync.Mutex
	var q Queue
	done := make(chan struct{})
	go func() {
		mu.Lock()
		q.Park(&mu, "registry", 42)
		mu.Unlock()
		close(done)
	}()
	w := parkedOn(t, &q, 1)[0]
	if w.Reason != "registry" || w.Since != 42 {
		t.Fatalf("Parked() = %+v, want reason registry since 42", w)
	}
	mu.Lock()
	q.WakeAll(0)
	mu.Unlock()
	<-done
	parkedOn(t, &q, 0)
}

// TestParkUntilCancel: a closed cancel channel ends a park with ok false,
// takes the party off the queue, and leaves the others parked.
func TestParkUntilCancel(t *testing.T) {
	var mu sync.Mutex
	var q Queue
	cancel := make(chan struct{})
	res := make(chan bool, 1)
	go func() {
		mu.Lock()
		_, ok := q.ParkUntil(&mu, "cancel", 0, cancel, time.Time{})
		mu.Unlock()
		res <- ok
	}()
	parkedOn(t, &q, 1)
	stay := make(chan struct{})
	go func() {
		mu.Lock()
		q.Park(&mu, "stay", 0)
		mu.Unlock()
		close(stay)
	}()
	parkedOn(t, &q, 2)
	close(cancel)
	if ok := <-res; ok {
		t.Fatal("ParkUntil reported a wake after cancel")
	}
	mu.Lock()
	if n := q.Len(); n != 1 {
		t.Fatalf("Len after cancel = %d, want 1", n)
	}
	q.Wake(1, 0)
	mu.Unlock()
	<-stay

	// A cancel closed before the park returns at once.
	mu.Lock()
	if _, ok := q.ParkUntil(&mu, "cancel", 0, cancel, time.Time{}); ok || q.Len() != 0 {
		t.Fatalf("ParkUntil on a closed cancel: ok %v, Len %d", ok, q.Len())
	}
	mu.Unlock()
}

// TestParkUntilDeadline: ParkUntil returns ok false at its host
// deadline, and at once for a deadline already past.
func TestParkUntilDeadline(t *testing.T) {
	var mu sync.Mutex
	var q Queue
	mu.Lock()
	defer mu.Unlock()
	start := time.Now()
	if _, ok := q.ParkUntil(&mu, "deadline", 0, nil, start.Add(5*time.Millisecond)); ok {
		t.Fatal("ParkUntil reported a wake nobody sent")
	}
	if el := time.Since(start); el < 5*time.Millisecond {
		t.Fatalf("ParkUntil returned after %v, before its deadline", el)
	}
	if _, ok := q.ParkUntil(&mu, "deadline", 0, nil, start); ok || q.Len() != 0 {
		t.Fatalf("past deadline: ok %v, Len %d", ok, q.Len())
	}
}

// TestWakeRacingCancelIsNeverLost hammers a cancelled ParkUntil against Wake(1): a
// wake must land on some party, so every wake issued is reported by
// exactly one park, whichever of wake and cancel it saw first.
func TestWakeRacingCancelIsNeverLost(t *testing.T) {
	const rounds = 2000
	var mu sync.Mutex
	var q Queue
	for i := 0; i < rounds; i++ {
		cancel := make(chan struct{})
		res := make(chan bool, 1)
		go func() {
			mu.Lock()
			_, ok := q.ParkUntil(&mu, "race", 0, cancel, time.Time{})
			mu.Unlock()
			res <- ok
		}()
		for {
			mu.Lock()
			n := q.Len()
			mu.Unlock()
			if n == 1 {
				break
			}
			runtime.Gosched()
		}
		close(cancel)
		mu.Lock()
		woke := q.Wake(1, 0)
		mu.Unlock()
		if ok := <-res; ok != (woke == 1) {
			t.Fatalf("round %d: Wake woke %d but the park reported ok=%v", i, woke, ok)
		}
	}
}

// TestParkWakeZeroAlloc pins that a steady-state park/wake cycle
// allocates nothing: waiters come from the registry's pool.
func TestParkWakeZeroAlloc(t *testing.T) {
	var mu sync.Mutex
	var q Queue
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			q.Wake(1, 0)
			mu.Unlock()
			runtime.Gosched()
		}
	}()
	allocs := testing.AllocsPerRun(200, func() {
		mu.Lock()
		q.Park(&mu, "alloc", 0)
		mu.Unlock()
	})
	if allocs != 0 {
		t.Fatalf("park/wake cycle allocates %.1f objects, want 0", allocs)
	}
}

package rr

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"remon/internal/vkernel"
)

func newThread() *vkernel.Thread {
	k := vkernel.New(nil)
	return k.NewProcess("rr-test", 1, 0).NewThread(nil)
}

func TestMasterRecords(t *testing.T) {
	log := NewLog()
	a := NewAgent(log, true)
	th := newThread()
	a.Sync(th, 0, 100, OpLock)
	a.Sync(th, 1, 100, OpLock)
	if log.Len() != 2 {
		t.Fatalf("log length = %d", log.Len())
	}
}

func TestSlaveReplaysInOrder(t *testing.T) {
	log := NewLog()
	master := NewAgent(log, true)
	slave := NewAgent(log, false)
	mt := newThread()

	// Master records: thread 1 locks, then thread 0 locks.
	master.Sync(mt, 1, 42, OpLock)
	master.Sync(mt, 0, 42, OpLock)

	// Slave threads arrive in the opposite order; replay must force the
	// recorded order: ltid 1 first.
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, ltid := range []int{0, 1} {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			th := newThread()
			slave.Sync(th, l, 42, OpLock)
			mu.Lock()
			order = append(order, l)
			mu.Unlock()
		}(ltid)
	}
	wg.Wait()
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("replay order = %v, want [1 0]", order)
	}
}

func TestSlaveBlocksUntilRecorded(t *testing.T) {
	log := NewLog()
	master := NewAgent(log, true)
	slave := NewAgent(log, false)
	done := make(chan struct{})
	go func() {
		defer close(done)
		slave.Sync(newThread(), 0, 7, OpLock)
	}()
	select {
	case <-done:
		t.Fatal("slave proceeded before master recorded")
	default:
	}
	master.Sync(newThread(), 0, 7, OpLock)
	<-done
}

func TestCloseReleasesSlaves(t *testing.T) {
	log := NewLog()
	slave := NewAgent(log, false)
	done := make(chan struct{})
	go func() {
		defer close(done)
		slave.Sync(newThread(), 3, 9, OpUnlock)
	}()
	log.Close()
	<-done // must not hang
}

// TestLongSequenceReplay replays 500 lock/unlock pairs over three slave
// threads. rr orders the turns it grants, not what a thread does after
// its turn, so each slave records inside a real per-object critical
// section bracketed by its OpLock and OpUnlock turns, as libc.Mutex
// does: the next OpLock turn is granted only after the previous
// holder's OpUnlock, which makes the recorded order the replayed one.
func TestLongSequenceReplay(t *testing.T) {
	log := NewLog()
	master := NewAgent(log, true)
	slave := NewAgent(log, false)
	mt := newThread()

	const n = 500
	want := make([]Event, n)
	for i := 0; i < n; i++ {
		want[i] = Event{LTID: i % 3, Obj: uint64(i % 5), Kind: OpLock}
		master.Sync(mt, want[i].LTID, want[i].Obj, OpLock)
		master.Sync(mt, want[i].LTID, want[i].Obj, OpUnlock)
	}

	var objs [5]sync.Mutex
	var mu sync.Mutex
	var got []Event
	var wg sync.WaitGroup
	// Three slave threads, one per ltid, each replays its own events.
	for ltid := 0; ltid < 3; ltid++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			th := newThread()
			for i := 0; i < n; i++ {
				if want[i].LTID != l {
					continue
				}
				obj := want[i].Obj
				slave.Sync(th, l, obj, OpLock)
				objs[obj].Lock()
				mu.Lock()
				got = append(got, Event{LTID: l, Obj: obj, Kind: OpLock})
				mu.Unlock()
				slave.Sync(th, l, obj, OpUnlock)
				objs[obj].Unlock()
			}
		}(ltid)
	}
	wg.Wait()
	if len(got) != n {
		t.Fatalf("replayed %d events, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRecordChargesLessThanReplay(t *testing.T) {
	log := NewLog()
	master := NewAgent(log, true)
	slave := NewAgent(log, false)
	mt := newThread()
	st := newThread()
	master.Sync(mt, 0, 1, OpLock)
	slave.Sync(st, 0, 1, OpLock)
	if mt.Clock.Now() >= st.Clock.Now() {
		t.Fatalf("record cost %v should be below replay cost %v",
			mt.Clock.Now(), st.Clock.Now())
	}
}

// TestLaggingRecorderWakesParkedKeys drives the case the indexed-wake
// protocol must not drop: a replayer parks on its operation key while the
// recorder has not yet written the matching event, and the cursor is
// already at the position that event will occupy. The record-side agent
// notification must hand it the turn.
func TestLaggingRecorderWakesParkedKeys(t *testing.T) {
	for round := 0; round < 50; round++ {
		log := NewLog()
		rec := NewAgent(log, true)
		slave := NewAgent(log, false)
		th := make([]*vkernel.Thread, 4)
		for i := range th {
			th[i] = newThread()
		}

		// The replay total order itself is enforced (and separately tested
		// by TestSlaveReplaysInOrder); what must not happen here is a
		// deadlock from a lost wake, so completion of all three replayers
		// is the assertion.
		var wg sync.WaitGroup
		done := make(chan struct{})
		for lt := 1; lt <= 3; lt++ {
			wg.Add(1)
			go func(lt int) {
				defer wg.Done()
				slave.Sync(th[lt], lt, uint64(lt), OpLock)
			}(lt)
		}
		// Give replayers a chance to park before anything is recorded.
		runtime.Gosched()
		for lt := 3; lt >= 1; lt-- { // reverse spawn order
			rec.Sync(th[0], lt, uint64(lt), OpLock)
		}
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: parked replayer never woken (lost wake)", round)
		}
		log.Close()
	}
}

// TestCloseReleasesKeyParkedSlaves: a replayer parked on its operation
// key (not a log position) must also drain when the log closes after the
// cursor has passed the end of the recorded sequence.
func TestCloseReleasesKeyParkedSlaves(t *testing.T) {
	log := NewLog()
	rec := NewAgent(log, true)
	slave := NewAgent(log, false)
	thA, thB := newThread(), newThread()

	rec.Sync(newThread(), 1, 1, OpLock) // single event A
	done := make(chan struct{})
	go func() {
		slave.Sync(thB, 2, 2, OpLock) // key B: parks (event A is not its turn)
		close(done)
	}()
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	slave.Sync(thA, 1, 1, OpLock) // consume A; cursor passes the end
	log.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("key-parked replayer not released by Close")
	}
}

package rb

import (
	"runtime"
	"testing"
	"time"

	"remon/internal/vkernel"
	"remon/internal/wait"
)

// parkLagWriter stages entries until the writer parks on the lag budget
// and returns a channel closed when its blocked Reserve returns.
func parkLagWriter(t *testing.T, e *pipeEnv, w *Writer, n int) <-chan struct{} {
	t.Helper()
	for i := 0; i < n; i++ {
		reserveBatched(t, w, e.threads[0], i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		call := &vkernel.Call{Num: vkernel.SysGetpid, Args: [6]uint64{uint64(n)}}
		if _, err := w.Reserve(e.threads[0], call, FlagBatched|FlagMasterCall, nil, 16); err != nil {
			t.Error(err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !lagParked() {
		if time.Now().After(deadline) {
			t.Fatal("writer never parked on the lag budget")
		}
		runtime.Gosched()
	}
	return done
}

func lagParked() bool {
	for _, p := range wait.Parked() {
		if p.Reason == "rb.lag" {
			return true
		}
	}
	return false
}

// TestLagWaitWokenByLastConsume: a writer parked on the lag budget stays
// parked while one of two slaves has drained, and the other slave's
// Consume is what wakes it — no timer stands behind that wake.
func TestLagWaitWokenByLastConsume(t *testing.T) {
	const maxLag = 4
	e := newPipeEnv(t, 1<<16, 1, 3, maxLag)
	w := e.buf.NewWriter(0, e.bases[0])
	done := parkLagWriter(t, e, w, maxLag)

	r1 := e.buf.NewReader(0, 1, e.bases[1])
	for i := 0; i < maxLag; i++ {
		drainOne(t, r1, e.threads[1], i)
	}
	select {
	case <-done:
		t.Fatal("writer passed the lag budget while slave 2 had consumed nothing")
	case <-time.After(5 * time.Millisecond):
	}
	r2 := e.buf.NewReader(0, 2, e.bases[2])
	for i := 0; i < maxLag; i++ {
		drainOne(t, r2, e.threads[2], i)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the last slave's Consume did not wake the lag-budget writer")
	}
	if st := e.buf.Stats(); st.LagWaits != 1 {
		t.Fatalf("LagWaits = %d, want 1", st.LagWaits)
	}
}

// TestLagWaitWokenByThreadExit: a writer parked on the lag budget
// returns when its own thread exits, with no slave ever consuming.
func TestLagWaitWokenByThreadExit(t *testing.T) {
	e := newPipeEnv(t, 1<<16, 1, 2, 2)
	w := e.buf.NewWriter(0, e.bases[0])
	done := parkLagWriter(t, e, w, 2)
	e.threads[0].Crash("test teardown")
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the writer's thread exit did not wake its lag wait")
	}
}

package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/multipath"
	"repro/internal/obs"
)

// wedgedEngine builds a depth-1, single-shard engine whose only queue
// slot is already taken and whose consumer is blocked in OnResult, so
// every further Submit returns ErrQueueFull until release is closed.
func wedgedEngine(t *testing.T, reg *obs.Registry) (e *Engine, release chan struct{}) {
	t.Helper()
	rec := trainRec(t, 7)
	release = make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	e, err := New(rec, Options{
		Shards:     1,
		QueueDepth: 1,
		Obs:        reg,
		OnResult: func(Result) {
			once.Do(func() { close(entered) })
			<-release
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A complete tiny session wedges the shard inside OnResult, and one
	// more event then fills the single queue slot. The depth-1 queue can
	// bounce these while the shard catches up, so spin on backpressure.
	for _, ev := range []Event{
		{Session: "wedge", Kind: multipath.FingerDown, X: 1, Y: 1, T: 0},
		{Session: "wedge", Kind: multipath.FingerUp, X: 1, Y: 1, T: 0.01},
	} {
		for {
			err := e.Submit(ev)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("wedge submit: %v", err)
			}
		}
	}
	<-entered
	for {
		err := e.Submit(Event{Session: "filler", Kind: multipath.FingerDown, X: 1, Y: 1, T: 0})
		if err == nil {
			break
		}
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("filler submit: %v", err)
		}
	}
	return e, release
}

// TestSubmitterUnlimitedRetrySucceeds: the engine's wait-for-space
// submit path (SubmitWait) keeps retrying a full queue until the wedged
// consumer drains, then delivers.
func TestSubmitterUnlimitedRetrySucceeds(t *testing.T) {
	e, release := wedgedEngine(t, nil)
	defer func() {
		if err := e.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	done := make(chan error, 1)
	go func() {
		done <- e.SubmitWait(Event{Session: "patient", Kind: multipath.FingerDown, X: 1, Y: 1, T: 0})
	}()
	// Let it spin against the full queue briefly, then unwedge.
	time.Sleep(5 * time.Millisecond)
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("unlimited-retry SubmitWait = %v, want nil", err)
	}
}

// TestSubmitWaitPassesThroughTerminalErrors: ErrBadEvent and ErrClosed
// are not retried — they return immediately and unwrapped.
func TestSubmitWaitPassesThroughTerminalErrors(t *testing.T) {
	rec := trainRec(t, 7)
	e, err := New(rec, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitWait(Event{Session: "", Kind: multipath.FingerDown}); !errors.Is(err, ErrBadEvent) {
		t.Fatalf("bad event through SubmitWait = %v, want ErrBadEvent", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitWait(Event{Session: "x", Kind: multipath.FingerDown}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed engine through SubmitWait = %v, want ErrClosed", err)
	}
	if st := e.Stats(); st.Bad != 1 || st.Rejected != 0 {
		t.Errorf("Stats = %+v, want Bad 1 and Rejected 0", st)
	}
}

// TestSubmitWaitEndsAtClose: a producer waiting on a wedged shard holds
// no lock, so Close proceeds and the wait ends with ErrClosed — before
// the consumer is released, so the wait cannot have ended by draining.
func TestSubmitWaitEndsAtClose(t *testing.T) {
	e, release := wedgedEngine(t, nil)
	waiting := make(chan error, 1)
	go func() {
		waiting <- e.SubmitWait(Event{Session: "waiter", Kind: multipath.FingerDown, X: 1, Y: 1, T: 0})
	}()
	time.Sleep(5 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	select {
	case err := <-waiting:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("SubmitWait across Close = %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SubmitWait still waiting 10s after Close began")
	}
	close(release)
	if err := <-closed; err != nil {
		t.Errorf("close: %v", err)
	}
}

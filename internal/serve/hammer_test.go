package serve

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/multipath"
)

// TestHammerSwapUnderLoad drives many concurrent sessions while another
// goroutine hot-swaps the recognizer as fast as it can. Every started
// session must produce exactly one Result with a completed outcome —
// swaps must never lose, duplicate, or wedge a session.
func TestHammerSwapUnderLoad(t *testing.T) {
	rec := trainRec(t, 7)
	sink := newSink()
	e, err := New(rec, Options{Shards: 4, QueueDepth: 16, OnResult: sink.add})
	if err != nil {
		t.Fatal(err)
	}

	const producers, perProducer = 4, 6
	stopSwap := make(chan struct{})
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		a, b := trainRec(t, 8), trainRec(t, 9)
		for i := 0; ; i++ {
			select {
			case <-stopSwap:
				return
			default:
			}
			if i%2 == 0 {
				e.Swap(a)
			} else {
				e.Swap(b)
			}
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				g, _ := sampleGesture(int64(1000+p*100+i), i%2)
				playSession(t, e, fmt.Sprintf("swap-%d-%d", p, i), g)
			}
		}(p)
	}
	wg.Wait()
	close(stopSwap)
	swapWG.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	if got, want := sink.len(), producers*perProducer; got != want {
		t.Errorf("results = %d, want %d", got, want)
	}
	if d := sink.duplicates(); d != 0 {
		t.Errorf("%d duplicate Results delivered", d)
	}
	for p := 0; p < producers; p++ {
		for i := 0; i < perProducer; i++ {
			id := fmt.Sprintf("swap-%d-%d", p, i)
			if o, ok := sink.outcome(id); !ok || o != OutcomeCompleted {
				t.Errorf("session %s outcome = %v (present %v), want %v", id, o, ok, OutcomeCompleted)
			}
		}
	}
}

// TestHammerCloseConcurrentWithSubmit races Close against a crowd of
// submitting producers. The invariants: every session whose FingerDown
// was accepted gets exactly one Result (completed or drained), sessions
// whose FingerDown was refused get none, the only refusal SubmitWait
// returns is ErrClosed, and Submit after Close always reports ErrClosed.
func TestHammerCloseConcurrentWithSubmit(t *testing.T) {
	rec := trainRec(t, 7)
	sink := newSink()
	e, err := New(rec, Options{Shards: 4, QueueDepth: 8, OnResult: sink.add})
	if err != nil {
		t.Fatal(err)
	}

	const producers, perProducer = 6, 8
	var mu sync.Mutex
	started := map[string]bool{}

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				id := fmt.Sprintf("close-%d-%d", p, i)
				g, _ := sampleGesture(int64(2000+p*100+i), i%2)
				ok := true
				for j, pt := range g {
					kind := multipath.FingerMove
					if j == 0 {
						kind = multipath.FingerDown
					}
					err := e.SubmitWait(Event{Session: id, Finger: 0, Kind: kind, X: pt.X, Y: pt.Y, T: pt.T})
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("session %s: unexpected submit error %v", id, err)
						}
						ok = j > 0 // the FingerDown (j == 0) was accepted iff j > 0 here
						goto next
					}
				}
				{
					last := g[len(g)-1]
					err := e.SubmitWait(Event{Session: id, Finger: 0, Kind: multipath.FingerUp, X: last.X, Y: last.Y, T: last.T + 0.01})
					if err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("session %s: unexpected up error %v", id, err)
					}
				}
			next:
				mu.Lock()
				started[id] = ok
				mu.Unlock()
			}
		}(p)
	}

	// Close while producers are mid-stream.
	closeErr := make(chan error, 1)
	go func() { closeErr <- e.Close() }()
	wg.Wait()
	if err := <-closeErr; err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(Event{Session: "post", Kind: multipath.FingerDown, X: 1, Y: 1, T: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}

	if d := sink.duplicates(); d != 0 {
		t.Errorf("%d duplicate Results delivered", d)
	}
	for id, ok := range started {
		o, got := sink.outcome(id)
		if ok && !got {
			t.Errorf("session %s started but produced no Result", id)
		}
		if !ok && got {
			t.Errorf("session %s never started but produced a Result (%v)", id, o)
		}
		if got && o != OutcomeCompleted && o != OutcomeDrained {
			t.Errorf("session %s outcome = %v, want completed or drained", id, o)
		}
	}
	st := e.Stats()
	if int64(sink.len()) != st.Completed {
		t.Errorf("results delivered = %d, Stats.Completed = %d", sink.len(), st.Completed)
	}
}

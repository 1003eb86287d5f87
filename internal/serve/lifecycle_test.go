package serve

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/multipath"
	"repro/internal/obs"
)

// lastTEntries counts live timestamp high-water entries across every
// shard — the state Submit consults to reject regressing timestamps.
// Any entry that outlives its session would spuriously reject a
// reconnecting session with a fresh clock.
func lastTEntries(e *Engine) int {
	n := 0
	for _, sh := range e.shards {
		sh.vmu.Lock()
		n += len(sh.lastT)
		sh.vmu.Unlock()
	}
	return n
}

// TestLastTClearedOnEveryOutcome finishes sessions via each terminal
// path — completed, degraded, panicked, reaped, drained — and checks
// (1) the lastT map is empty afterwards and (2) re-submitting the same
// session ID with a fresh clock (T restarting at 0, below every
// timestamp the first incarnation used) passes Submit validation
// instead of being rejected as regressing.
func TestLastTClearedOnEveryOutcome(t *testing.T) {
	rec := trainRec(t, 7)
	g, _ := sampleGesture(7, 0)

	// The scripted faults drive the degraded and panicked outcomes
	// deterministically: poisoned coordinates force the degraded
	// fallback, an injected panic quarantines the session.
	script := fault.NewScript().
		Set("deg", 3, fault.KindPoison).
		Set("pan", 1, fault.KindPanic)
	clock := obs.NewManualClock(time.Unix(0, 0))
	results := make(chan Result, 16)
	e, err := New(rec, Options{
		Shards:       2,
		OnResult:     func(r Result) { results <- r },
		Fault:        script,
		Clock:        clock,
		IdleTimeout:  time.Second,
		ReapInterval: -1, // reap only via explicit Reap calls
	})
	if err != nil {
		t.Fatal(err)
	}

	waitResult := func(id string, want Outcome) {
		t.Helper()
		select {
		case r := <-results:
			if r.Session != id || r.Outcome != want {
				t.Fatalf("result = %+v, want session %s outcome %v", r, id, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no result for %s", id)
		}
	}

	// Completed: a full gesture. Degraded: same gesture with poisoned
	// coordinates. Panicked: injected panic on the second event.
	playSession(t, e, "com", g)
	waitResult("com", OutcomeCompleted)
	playSession(t, e, "deg", g)
	waitResult("deg", OutcomeDegraded)
	playSession(t, e, "pan", g)
	waitResult("pan", OutcomePanicked)

	// Reaped: a half-open session, the virtual clock jumping past the
	// idle deadline, and an explicit sweep.
	submitRetry(t, e, Event{Session: "rea", Kind: multipath.FingerDown, X: 1, Y: 1, T: 5})
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second)
	if n, err := e.Reap(); err != nil || n != 1 {
		t.Fatalf("Reap = %d, %v, want 1, nil", n, err)
	}
	waitResult("rea", OutcomeReaped)

	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := lastTEntries(e); n != 0 {
		t.Fatalf("%d lastT entries survive finished sessions", n)
	}

	// Reconnect each finished session with a fresh clock: T=0 is below
	// every timestamp its first incarnation submitted, so any stale
	// lastT entry would reject this as regressing. The panicked ID is
	// quarantined at the shard (no second Result, by design) but must
	// still clear Submit validation.
	for _, id := range []string{"com", "deg", "pan", "rea"} {
		if err := e.Submit(Event{Session: id, Kind: multipath.FingerDown, X: 1, Y: 1, T: 0}); err != nil {
			t.Errorf("fresh-clock resubmit for %s = %v, want nil", id, err)
		}
	}
	// The reconnects above either opened sessions or were quarantine-
	// dropped; both paths must account lastT correctly on drain.
	for _, id := range []string{"com", "deg", "rea"} {
		submitRetry(t, e, Event{Session: id, Kind: multipath.FingerUp, X: 1, Y: 1, T: 0.01})
	}

	// Drained: half-open sessions force-finished by Close.
	submitRetry(t, e, Event{Session: "dra", Kind: multipath.FingerDown, X: 1, Y: 1, T: 9})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	drained := false
	for done := false; !done; {
		select {
		case r := <-results:
			if r.Session == "dra" {
				if r.Outcome != OutcomeDrained {
					t.Fatalf("dra outcome = %v, want drained", r.Outcome)
				}
				drained = true
			}
		default:
			done = true
		}
	}
	if !drained {
		t.Fatal("no drained result for dra")
	}
	if n := lastTEntries(e); n != 0 {
		t.Fatalf("%d lastT entries survive Close", n)
	}
}

// TestLastTClearedForStrayEvents: stray moves/ups for unknown sessions
// and late events for quarantined sessions must not leave lastT
// entries behind (the map would otherwise grow without bound under
// stray traffic).
func TestLastTClearedForStrayEvents(t *testing.T) {
	rec := trainRec(t, 7)
	e, err := New(rec, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	submitRetry(t, e, Event{Session: "ghost", Kind: multipath.FingerMove, X: 1, Y: 1, T: 3})
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := lastTEntries(e); n != 0 {
		t.Fatalf("%d lastT entries survive a stray event", n)
	}
	// The same session can now legitimately start with T=0.
	if err := e.Submit(Event{Session: "ghost", Kind: multipath.FingerDown, X: 1, Y: 1, T: 0}); err != nil {
		t.Fatalf("fresh-clock submit after stray = %v, want nil", err)
	}
}

// TestRejectedCountsOncePerShed: when the admission controller sheds
// an event in brownout, SubmitWait returns ErrOverloaded at once and
// Stats.Rejected (and serve.events.rejected) counts it exactly once.
func TestRejectedCountsOncePerShed(t *testing.T) {
	reg := obs.New()
	a, _ := admitFixture(t, AdmitOptions{Target: time.Millisecond, Sustain: 1, ShedMin: 1, ShedMax: 1})
	a.Observe(time.Second) // brownout at 1000 permille: shed everything
	e, err := New(trainRec(t, 7), Options{Shards: 1, Admission: a, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	err = e.SubmitWait(Event{Session: "shed-once", Kind: multipath.FingerDown, X: 1, Y: 1, T: 0})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("SubmitWait = %v, want ErrOverloaded", err)
	}
	if got := e.Stats().Rejected; got != 1 {
		t.Errorf("Stats.Rejected = %d for one shed event, want 1", got)
	}
	if got := snapCounter(t, reg.Snapshot(), "serve.events.rejected"); got != 1 {
		t.Errorf("serve.events.rejected = %d, want 1 (exactly once per shed)", got)
	}
}

// TestRejectedNotCountedOnRetrySuccess: SubmitWait waits out a wedged
// consumer and delivers. The event bounced off a full queue but was
// never terminally refused, so Stats.Rejected must not move.
func TestRejectedNotCountedOnRetrySuccess(t *testing.T) {
	e, release := wedgedEngine(t, nil)
	defer func() {
		if err := e.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	base := e.Stats().Rejected

	done := make(chan error, 1)
	go func() {
		done <- e.SubmitWait(Event{Session: "patient", Kind: multipath.FingerDown, X: 1, Y: 1, T: 0})
	}()
	time.Sleep(2 * time.Millisecond) // let it bounce a few times
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("SubmitWait = %v, want nil", err)
	}
	if got := e.Stats().Rejected - base; got != 0 {
		t.Errorf("Stats.Rejected grew by %d for an eventually-accepted event, want 0", got)
	}
}

// TestClosedReportsShutdown: Closed flips at Close and is what front
// ends consult to answer with a typed shutting-down status.
func TestClosedReportsShutdown(t *testing.T) {
	e, err := New(trainRec(t, 7), Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.Closed() {
		t.Fatal("fresh engine reports closed")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if !e.Closed() {
		t.Fatal("closed engine reports open")
	}
	if err := e.Submit(Event{Session: "x", Kind: multipath.FingerDown, X: 1, Y: 1, T: 0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit on closed engine = %v, want ErrClosed", err)
	}
}

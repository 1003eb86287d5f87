package serve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/multipath"
	"repro/internal/obs"
)

// snapCounter returns a named counter's value from the snapshot, failing
// the test when the counter was never registered.
func snapCounter(t *testing.T, snap obs.Snapshot, name string) int64 {
	t.Helper()
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %q not in snapshot", name)
	return 0
}

// snapHist returns a named histogram snapshot, failing the test when it
// was never registered.
func snapHist(t *testing.T, snap obs.Snapshot, name string) obs.HistogramSnap {
	t.Helper()
	for _, h := range snap.Histograms {
		if h.Name == name {
			return h
		}
	}
	t.Fatalf("histogram %q not in snapshot", name)
	return obs.HistogramSnap{}
}

// TestEngineObservability runs an instrumented engine through a full
// workload — sessions, a swap, a rejected swap, a drain at Close — and
// checks the serve.* metric contract: counters reconcile with Stats and
// with each other, latency histograms saw every session, and the trace
// ring recorded the lifecycle events.
func TestEngineObservability(t *testing.T) {
	reg := obs.New()
	rec := trainRec(t, 1)
	sink := newSink()
	e, err := New(rec, Options{Shards: 4, OnResult: sink.add, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}

	const done = 20
	for i := 0; i < done; i++ {
		g, _ := sampleGesture(int64(100+i), i%2)
		playSession(t, e, fmt.Sprintf("s%02d", i), g)
	}
	if got := e.Swap(nil); got != nil {
		t.Fatalf("Swap(nil) = %v, want nil", got)
	}
	if got := e.Swap(trainRec(t, 2)); got == nil {
		t.Fatal("Swap returned nil previous recognizer")
	}
	// One session left open (no FingerUp) so Close has something to drain.
	g, _ := sampleGesture(999, 0)
	for i, p := range g {
		kind := multipath.FingerMove
		if i == 0 {
			kind = multipath.FingerDown
		}
		submitRetry(t, e, Event{Session: "open", Finger: 0, Kind: kind, X: p.X, Y: p.Y, T: p.T})
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	st := e.Stats()
	if got := snapCounter(t, snap, "serve.events.submitted"); got != st.Submitted {
		t.Errorf("serve.events.submitted = %d, Stats.Submitted = %d", got, st.Submitted)
	}
	if got := snapCounter(t, snap, "serve.events.rejected"); got != st.Rejected {
		t.Errorf("serve.events.rejected = %d, Stats.Rejected = %d", got, st.Rejected)
	}
	opened := snapCounter(t, snap, "serve.sessions.opened")
	completed := snapCounter(t, snap, "serve.sessions.completed")
	drained := snapCounter(t, snap, "serve.sessions.drained")
	if opened != done+1 || completed != done+1 {
		t.Errorf("opened=%d completed=%d, want both %d", opened, completed, done+1)
	}
	if drained != 1 {
		t.Errorf("serve.sessions.drained = %d, want 1", drained)
	}
	if got := snapCounter(t, snap, "serve.swaps"); got != 1 {
		t.Errorf("serve.swaps = %d, want 1", got)
	}
	// A healthy workload must not trip any of the failure-path counters,
	// but they must all be registered (the contract is load-time).
	for _, name := range []string{
		"serve.events.bad", "serve.events.quarantined",
		"serve.sessions.reaped", "serve.sessions.panicked", "serve.sessions.degraded",
	} {
		if got := snapCounter(t, snap, name); got != 0 {
			t.Errorf("%s = %d, want 0 on a healthy workload", name, got)
		}
	}
	if got := snapCounter(t, snap, "serve.swaps_rejected"); got != 1 {
		t.Errorf("serve.swaps_rejected = %d, want 1", got)
	}

	if h := snapHist(t, snap, "serve.session.latency_ns"); h.Count != done+1 {
		t.Errorf("serve.session.latency_ns count = %d, want %d", h.Count, done+1)
	}
	if h := snapHist(t, snap, "serve.queue.wait_ns"); h.Count != st.Submitted {
		t.Errorf("serve.queue.wait_ns count = %d, want %d", h.Count, st.Submitted)
	}
	if h := snapHist(t, snap, "serve.queue.depth"); h.Count != st.Submitted {
		t.Errorf("serve.queue.depth count = %d, want %d", h.Count, st.Submitted)
	}

	var traced *obs.TraceSnap
	for i := range snap.Traces {
		if snap.Traces[i].Name == "serve.trace" {
			traced = &snap.Traces[i]
		}
	}
	if traced == nil {
		t.Fatal("serve.trace missing from snapshot")
	}
	counts := map[string]int{}
	for _, ev := range traced.Events {
		counts[ev.Name]++
	}
	// done+1 opens, done normal completions, 1 drain, 1 swap, 1 rejection:
	// well under the ring capacity, so nothing has been overwritten.
	want := map[string]int{
		"session_open": done + 1, "session_done": done,
		"session_drained": 1, "swap": 1, "swap_rejected": 1,
	}
	for name, n := range want {
		if counts[name] != n {
			t.Errorf("trace %q count = %d, want %d", name, counts[name], n)
		}
	}
}

// TestEngineUninstrumented checks that a no-registry engine still serves
// correctly — the nil-handle no-op path — and records nothing anywhere.
func TestEngineUninstrumented(t *testing.T) {
	rec := trainRec(t, 1)
	sink := newSink()
	e, err := New(rec, Options{Shards: 2, OnResult: sink.add})
	if err != nil {
		t.Fatal(err)
	}
	g, want := sampleGesture(7, 1)
	playSession(t, e, "only", g)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got, ok := sink.get("only"); !ok || got != want {
		t.Fatalf("session class = %q (ok=%v), want %q", got, ok, want)
	}
}

// statsMixedRun drives one engine through every outcome Stats counts —
// an admission shed, a bad event, a full queue, completed, degraded,
// panicked and reaped sessions, and one session left open — and returns
// Stats with the session still open and again after Close drains it.
// reg may be nil: Stats must count without observability.
func statsMixedRun(t *testing.T, reg *obs.Registry) (open, closed Stats) {
	t.Helper()
	g, _ := sampleGesture(7, 0)
	a, clk := admitFixture(t, AdmitOptions{Target: time.Millisecond, Sustain: 1, ShedMin: 1, ShedMax: 1})
	a.Observe(time.Second) // brownout at 1000 permille: shed everything
	results := make(chan Result, 16)
	release := make(chan struct{})
	e, err := New(trainRec(t, 7), Options{
		Shards:     1,
		QueueDepth: 1,
		Obs:        reg,
		Admission:  a,
		Clock:      clk,
		Fault:      fault.NewScript().Set("deg", 3, fault.KindPoison).Set("pan", 1, fault.KindPanic),
		OnResult: func(r Result) {
			results <- r
			if r.Session == "wedge" {
				<-release
			}
		},
		IdleTimeout:  time.Second,
		ReapInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitResult := func(id string) {
		t.Helper()
		select {
		case r := <-results:
			if r.Session != id {
				t.Fatalf("result for %s, want %s", r.Session, id)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no result for %s", id)
		}
	}

	down := func(id string, ts float64) Event {
		return Event{Session: id, Kind: multipath.FingerDown, X: 1, Y: 1, T: ts}
	}
	if err := e.Submit(down("shed", 0)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit in brownout = %v, want ErrOverloaded", err)
	}
	clk.Advance(time.Second) // quiet intervals end the brownout
	if got := a.State(); got != AdmitHealthy {
		t.Fatalf("admission state after recovery = %v, want healthy", got)
	}
	if err := e.Submit(Event{Kind: multipath.FingerDown}); !errors.Is(err, ErrBadEvent) {
		t.Fatalf("Submit with no session = %v, want ErrBadEvent", err)
	}
	for _, id := range []string{"com", "deg", "pan"} {
		playSession(t, e, id, g)
		waitResult(id)
	}
	submitRetry(t, e, down("rea", 0))
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if n, err := e.Reap(); err != nil || n != 1 {
		t.Fatalf("Reap = %d, %v, want 1, nil", n, err)
	}
	waitResult("rea")

	// Wedge the shard in OnResult, fill its one queue slot with the
	// session left open, and the next Submit finds the queue full.
	playSession(t, e, "wedge", g[:2])
	waitResult("wedge")
	submitRetry(t, e, down("open", 0))
	if err := e.Submit(down("full", 0)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit to a wedged shard = %v, want ErrQueueFull", err)
	}
	close(release)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	open = e.Stats()
	if reg != nil {
		assertStatsMirrorRegistry(t, open, reg.Snapshot())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	closed = e.Stats()
	if reg != nil {
		assertStatsMirrorRegistry(t, closed, reg.Snapshot())
	}
	return open, closed
}

// assertStatsMirrorRegistry checks every Stats field against the serve.*
// counter it is read from.
func assertStatsMirrorRegistry(t *testing.T, st Stats, snap obs.Snapshot) {
	t.Helper()
	for name, got := range map[string]int64{
		"serve.events.submitted":   st.Submitted,
		"serve.events.rejected":    st.Rejected,
		"serve.events.bad":         st.Bad,
		"serve.sessions.completed": st.Completed,
		"serve.sessions.reaped":    st.Reaped,
		"serve.sessions.panicked":  st.Panicked,
		"serve.sessions.degraded":  st.Degraded,
	} {
		if want := snapCounter(t, snap, name); got != want {
			t.Errorf("Stats field for %s = %d, registry has %d", name, got, want)
		}
	}
	active := snapCounter(t, snap, "serve.sessions.opened") - snapCounter(t, snap, "serve.sessions.completed")
	if st.Active != active {
		t.Errorf("Stats.Active = %d, registry opened-completed = %d", st.Active, active)
	}
}

// TestStatsMirrorsObsCounters: Stats is read from the serve.* counters,
// so after a mixed run it equals the registry, and an engine without a
// registry counts exactly the same.
func TestStatsMirrorsObsCounters(t *testing.T) {
	open, closed := statsMixedRun(t, obs.New())
	want := Stats{Submitted: open.Submitted, Rejected: 2, Bad: 1, Completed: 5, Active: 1, Reaped: 1, Panicked: 1, Degraded: 1}
	if open != want {
		t.Errorf("Stats with a session open = %+v, want %+v", open, want)
	}
	want.Completed, want.Active = 6, 0
	if closed != want {
		t.Errorf("Stats after Close = %+v, want %+v", closed, want)
	}
	darkOpen, darkClosed := statsMixedRun(t, nil)
	if darkOpen != open || darkClosed != closed {
		t.Errorf("Stats without obs = %+v then %+v, want %+v then %+v", darkOpen, darkClosed, open, closed)
	}
}

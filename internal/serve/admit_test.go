package serve

import (
	"errors"
	"testing"
	"time"

	"repro/internal/multipath"
	"repro/internal/obs"
)

// admitCounter reads one counter out of a registry snapshot.
func admitCounter(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %q not registered", name)
	return 0
}

// admitGauge reads one gauge out of a registry snapshot.
func admitGauge(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	for _, g := range reg.Snapshot().Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	t.Fatalf("gauge %q not registered", name)
	return 0
}

// admitFixture builds an Admission on a manual clock with a tight,
// fully specified configuration so the state machine steps are exact.
func admitFixture(t *testing.T, opts AdmitOptions) (*Admission, *obs.ManualClock) {
	t.Helper()
	clk := obs.NewManualClock(time.Unix(1_700_000_000, 0))
	opts.Clock = clk
	a, err := NewAdmission(opts)
	if err != nil {
		t.Fatalf("NewAdmission: %v", err)
	}
	return a, clk
}

func TestAdmissionValidation(t *testing.T) {
	bad := []AdmitOptions{
		{Target: -time.Second},
		{Interval: -time.Second},
		{RetryAfter: -time.Second},
		{Sustain: -1},
		{ShedMin: -0.1},
		{ShedMin: 1.5},
		{ShedMax: 2},
		{ShedMin: 0.9, ShedMax: 0.1},
	}
	for i, o := range bad {
		if _, err := NewAdmission(o); err == nil {
			t.Errorf("case %d: options %+v accepted, want error", i, o)
		}
	}
	if _, err := NewAdmission(AdmitOptions{}); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
}

func TestAdmissionNilSafe(t *testing.T) {
	var a *Admission
	if !a.Admit() {
		t.Fatal("nil Admission must admit")
	}
	a.Observe(time.Second)
	if got := a.State(); got != AdmitHealthy {
		t.Fatalf("nil State = %v, want healthy", got)
	}
	if a.ShedPerMille() != 0 || a.RetryAfterMS() != 0 || a.WaitP99() != 0 {
		t.Fatal("nil Admission must report zero shed/retry/p99")
	}
}

// TestAdmissionStateMachine walks the controller through the full
// lifecycle on a virtual clock: healthy while the bad streak builds,
// brownout at Sustain with the shed fraction starting at ShedMin and
// doubling up to ShedMax, then halving through good intervals back to
// healthy.
func TestAdmissionStateMachine(t *testing.T) {
	const interval = 100 * time.Millisecond
	a, clk := admitFixture(t, AdmitOptions{
		Target:   5 * time.Millisecond,
		Interval: interval,
		Sustain:  3,
		ShedMin:  0.1,
		ShedMax:  0.8,
	})

	// step forces one evaluation: advance past the interval boundary
	// and deliver one observation.
	step := func(wait time.Duration) {
		clk.Advance(interval)
		a.Observe(wait)
	}

	// First observation triggers the initial evaluation (streak 1).
	a.Observe(10 * time.Millisecond)
	wantShed := []int64{0, 100, 200, 400, 800, 800}
	for i, want := range wantShed {
		step(10 * time.Millisecond)
		if got := a.ShedPerMille(); got != want {
			t.Fatalf("bad interval %d: shed %d permille, want %d", i+2, got, want)
		}
	}
	if a.State() != AdmitBrownout {
		t.Fatalf("state after sustained overload = %v, want brownout", a.State())
	}
	if a.WaitP99() <= 5*time.Millisecond {
		t.Fatalf("WaitP99 = %v, want > target", a.WaitP99())
	}

	// Recovery: stop observing entirely; the stale window slots age out
	// on the clock, so each further evaluation sees an empty (zero)
	// p99 and halves the fraction: 800 -> 400 -> 200 -> 100 -> 0.
	for _, want := range []int64{400, 200, 100, 0} {
		clk.Advance(2 * interval) // let both merged slots go stale
		if got := a.State(); want > 0 && got != AdmitBrownout {
			t.Fatalf("state during recovery = %v, want brownout", got)
		}
		if got := a.ShedPerMille(); got != want {
			t.Fatalf("recovery: shed %d permille, want %d", got, want)
		}
	}
	if a.State() != AdmitHealthy {
		t.Fatalf("state after recovery = %v, want healthy", a.State())
	}
}

// TestAdmissionRotorDeterminism pins the pacing property: at p permille
// exactly p of every 1000 consecutive decisions shed, with the shed
// side observable in serve.admit.shed.
func TestAdmissionRotorDeterminism(t *testing.T) {
	reg := obs.New()
	a, _ := admitFixture(t, AdmitOptions{
		Target:  time.Millisecond,
		Sustain: 1,
		ShedMin: 0.5,
		ShedMax: 0.5,
		Obs:     reg,
	})
	// One over-target observation, one evaluation: p jumps to ShedMin.
	a.Observe(50 * time.Millisecond)
	if got := a.ShedPerMille(); got != 500 {
		t.Fatalf("shed fraction = %d permille, want 500", got)
	}
	shed := 0
	for i := 0; i < 1000; i++ {
		if !a.Admit() {
			shed++
		}
	}
	if shed != 500 {
		t.Fatalf("shed %d of 1000 decisions at 500 permille, want exactly 500", shed)
	}
	if got := admitCounter(t, reg, "serve.admit.shed"); got != 500 {
		t.Fatalf("serve.admit.shed = %d, want 500", got)
	}
	if got := admitGauge(t, reg, "serve.admit.state"); got != float64(AdmitBrownout) {
		t.Fatalf("serve.admit.state gauge = %v, want %v", got, float64(AdmitBrownout))
	}
	// Retry hint scales with depth: base 50ms x (1 + 500/250) = 150ms.
	if got := a.RetryAfterMS(); got != 150 {
		t.Fatalf("RetryAfterMS = %d, want 150", got)
	}
}

// TestAdmissionShedsAndRecovers is the acceptance scenario: a simulated
// queue whose arrival rate exceeds its service rate builds wait until
// the controller browns out; shedding then caps the backlog, and when
// the burst ends the wait p99 recovers under target and the controller
// returns to healthy — all on a virtual-clock timeline.
func TestAdmissionShedsAndRecovers(t *testing.T) {
	const (
		interval    = 100 * time.Millisecond
		target      = 50 * time.Millisecond
		serviceRate = 10 // events drained per interval
		arrivalRate = 25 // events offered per interval while the burst lasts
	)
	a, clk := admitFixture(t, AdmitOptions{
		Target:   target,
		Interval: interval,
		Sustain:  2,
		ShedMin:  0.2,
		ShedMax:  0.9,
	})

	depth := 0
	sawBrownout := false
	peakWait := time.Duration(0)
	totalShed := 0
	// Burst phase: 40 intervals of 2.5x overload.
	for i := 0; i < 40; i++ {
		clk.Advance(interval)
		for j := 0; j < arrivalRate; j++ {
			if a.Admit() {
				depth++
			} else {
				totalShed++
			}
		}
		drained := serviceRate
		if depth < drained {
			drained = depth
		}
		depth -= drained
		// Wait of the last event drained this interval: proportional to
		// the backlog it sat behind.
		wait := time.Duration(depth) * interval / serviceRate
		if wait > peakWait {
			peakWait = wait
		}
		a.Observe(wait)
		if a.State() == AdmitBrownout {
			sawBrownout = true
		}
	}
	if !sawBrownout {
		t.Fatal("controller never entered brownout under 2.5x sustained overload")
	}
	if totalShed == 0 {
		t.Fatal("controller never shed under sustained overload")
	}
	if peakWait <= target {
		t.Fatalf("peak simulated wait %v never exceeded target %v; scenario is too weak", peakWait, target)
	}
	// Shedding must have held the backlog finite: with no admission
	// control 40 intervals of +15/interval would leave 600 queued.
	if depth >= 40*(arrivalRate-serviceRate) {
		t.Fatalf("backlog %d events — shedding had no effect", depth)
	}

	// Burst over: drain and let the window age out.
	for i := 0; i < 40 && (depth > 0 || a.State() != AdmitHealthy); i++ {
		clk.Advance(interval)
		if depth > 0 {
			drained := serviceRate
			if depth < drained {
				drained = depth
			}
			depth -= drained
			a.Observe(time.Duration(depth) * interval / serviceRate)
		} else {
			a.State() // keep evaluations ticking on the empty window
		}
	}
	if got := a.State(); got != AdmitHealthy {
		t.Fatalf("state after burst ended = %v (shed %d permille), want healthy", got, a.ShedPerMille())
	}
	if got := a.WaitP99(); got > target {
		t.Fatalf("wait p99 after recovery = %v, want <= %v", got, target)
	}
}

// TestEngineAdmissionGate pins the engine integration: a pre-driven
// controller at full shed makes Submit return ErrOverloaded without
// queueing, SubmitWait returns it at once instead of waiting, and each
// refusal counts into Stats.Rejected exactly once.
func TestEngineAdmissionGate(t *testing.T) {
	reg := obs.New()
	a, _ := admitFixture(t, AdmitOptions{
		Target:  time.Millisecond,
		Sustain: 1,
		ShedMin: 1.0,
		ShedMax: 1.0,
	})
	a.Observe(time.Second) // drive to 1000 permille: shed everything
	if got := a.ShedPerMille(); got != 1000 {
		t.Fatalf("shed fraction = %d permille, want 1000", got)
	}
	e, err := New(trainRec(t, 1), Options{Shards: 1, Admission: a, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ev := Event{Session: "s", Finger: 0, Kind: multipath.FingerDown, X: 1, Y: 1, T: 1}
	if err := e.Submit(ev); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit under full shed = %v, want ErrOverloaded", err)
	}
	if err := e.SubmitWait(ev); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("SubmitWait under full shed = %v, want ErrOverloaded (no wait loop)", err)
	}
	st := e.Stats()
	if st.Rejected != 2 {
		t.Fatalf("Stats.Rejected = %d, want 2", st.Rejected)
	}
	if st.Submitted != 0 {
		t.Fatalf("Stats.Submitted = %d, want 0 — shed events must not queue", st.Submitted)
	}
	if got := e.AdmitState(); got != AdmitBrownout {
		t.Fatalf("AdmitState = %v, want brownout", got)
	}
	if e.Admission() != a {
		t.Fatal("Admission() accessor must return the installed controller")
	}
	if got := admitCounter(t, reg, "serve.events.rejected"); got != 2 {
		t.Fatalf("serve.events.rejected = %d, want 2", got)
	}
}

// TestEngineAdmitOptions pins the Options.Admit construction path: the
// engine builds its own controller, defaults its clock/registry from
// the engine's, and a healthy controller admits everything.
func TestEngineAdmitOptions(t *testing.T) {
	reg := obs.New()
	e, err := New(trainRec(t, 1), Options{
		Shards: 1,
		Obs:    reg,
		Admit:  &AdmitOptions{Target: time.Hour}, // unreachable target: never sheds
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Admission() == nil {
		t.Fatal("Options.Admit did not install a controller")
	}
	g, _ := sampleGesture(7, 0)
	playSession(t, e, "s1", g)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := e.AdmitState(); got != AdmitHealthy {
		t.Fatalf("AdmitState = %v, want healthy", got)
	}
	if got := e.Stats().Rejected; got != 0 {
		t.Fatalf("Stats.Rejected = %d, want 0", got)
	}
	// The invalid-options error propagates out of New.
	if _, err := New(trainRec(t, 1), Options{Admit: &AdmitOptions{Sustain: -1}}); err == nil {
		t.Fatal("New accepted invalid AdmitOptions")
	}
}

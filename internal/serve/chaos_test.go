package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/multipath"
	"repro/internal/obs"
	"repro/internal/recognizer"
)

// chaosRates is the fault mix every chaos schedule uses: producer-side
// corruption (drop/dup/NaN/Inf/negative-T/reorder/stall) plus
// engine-side dispatch faults (panic/poison).
func chaosRates() map[fault.Kind]float64 {
	return map[fault.Kind]float64{
		fault.KindDrop:    0.06,
		fault.KindDup:     0.06,
		fault.KindNaN:     0.04,
		fault.KindInf:     0.03,
		fault.KindNegT:    0.03,
		fault.KindReorder: 0.04,
		fault.KindStall:   0.02,
		fault.KindPanic:   0.02,
		fault.KindPoison:  0.03,
	}
}

// chaosTally accumulates, under a mutex, what the producers observed:
// how often each fault kind was applied and how many submissions the
// engine refused with ErrBadEvent.
type chaosTally struct {
	mu    sync.Mutex
	kinds map[fault.Kind]int64
	bad   int64
}

func (ct *chaosTally) merge(kinds map[fault.Kind]int64, bad int64) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	for k, n := range kinds {
		ct.kinds[k] += n
	}
	ct.bad += bad
}

// chaosProducer plays one session's gesture through SubmitWait,
// applying the schedule's producer-side fates event by event. It
// returns whether the FingerDown was accepted (the session started)
// and what it observed.
func chaosProducer(t *testing.T, e *Engine, sched *fault.Schedule, id string, events []Event) (started bool, kinds map[fault.Kind]int64, bad int64) {
	t.Helper()
	kinds = make(map[fault.Kind]int64)
	submit := func(ev Event, wantBad bool) error {
		err := e.SubmitWait(ev)
		switch {
		case err == nil:
			if wantBad {
				t.Errorf("session %s: corrupted event accepted: %+v", id, ev)
			}
		case errors.Is(err, ErrBadEvent):
			bad++
			if !wantBad {
				// Reorder rejections land here: legitimate, counted by
				// observation, not predicted.
				_ = err
			}
		default:
			t.Errorf("session %s: unexpected submit error %v", id, err)
		}
		return err
	}
	for i := 0; i < len(events); i++ {
		f := sched.Fate(id, i)
		if f != fault.KindNone {
			kinds[f]++
		}
		switch f {
		case fault.KindStall:
			// Mid-stroke stall: the producer dies here; the session stays
			// open until the idle reaper collects it.
			return started, kinds, bad
		case fault.KindDrop:
			continue
		case fault.KindDup:
			err := submit(events[i], false)
			if err == nil && i == 0 {
				started = true
			}
			submit(events[i], false)
		case fault.KindNaN:
			ev := events[i]
			ev.X = math.NaN()
			submit(ev, true)
		case fault.KindInf:
			ev := events[i]
			ev.Y = math.Inf(1)
			submit(ev, true)
		case fault.KindNegT:
			ev := events[i]
			ev.T = -1
			submit(ev, true)
		case fault.KindReorder:
			if i+1 >= len(events) {
				// Nothing to swap with at the tail; submit normally.
				if err := submit(events[i], false); err == nil && i == 0 {
					started = true
				}
				continue
			}
			// The later event goes first; the earlier one then usually
			// regresses below the session's high-water timestamp and is
			// rejected — exactly what Submit-time validation is for.
			submit(events[i+1], false)
			if err := submit(events[i], false); err == nil && i == 0 {
				started = true
			}
			i++ // the swapped partner was already submitted; never re-fated
		default: // KindNone
			if err := submit(events[i], false); err == nil && i == 0 {
				started = true
			}
		}
	}
	return started, kinds, bad
}

// sessionEvents renders a sampled gesture as the event stream
// playSession would submit: FingerDown, moves, FingerUp.
func sessionEvents(id string, seed int64, class int) ([]Event, string) {
	g, want := sampleGesture(seed, class)
	events := make([]Event, 0, len(g)+1)
	for i, p := range g {
		kind := multipath.FingerMove
		if i == 0 {
			kind = multipath.FingerDown
		}
		events = append(events, Event{Session: id, Finger: 0, Kind: kind, X: p.X, Y: p.Y, T: p.T})
	}
	last := g[len(g)-1]
	events = append(events, Event{Session: id, Finger: 0, Kind: multipath.FingerUp, X: last.X, Y: last.Y, T: last.T + 0.01})
	return events, want
}

// TestChaosSchedules is the fault-injection harness: for each seed it
// runs a full engine under a deterministic fault schedule and then
// audits the invariants that hardening promises — exactly one Result
// per started session, queue accounting that balances, every injected
// fault visible in the fault.injected.* counters, panic containment,
// degraded classification for poisoned strokes, idle reaping of
// stalled sessions, and flight bundles whose recorded reason matches
// the delivered outcome.
func TestChaosSchedules(t *testing.T) {
	runChaosSchedules(t, trainRec(t, 7))
}

// TestChaosSchedulesTemplateBackend replays the same seeded fault
// schedules against the streaming template backend: the hardening
// invariants (one Result per session, queue accounting, panic
// containment, backend-agnostic degraded outcomes, reaping, flight
// bundle consistency) are properties of the serving engine and must
// hold for any recognizer.Backend, not just the eager one.
func TestChaosSchedulesTemplateBackend(t *testing.T) {
	runChaosSchedules(t, trainTemplate(t, 7))
}

func runChaosSchedules(t *testing.T, rec recognizer.Backend) {
	t.Helper()
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			reg := obs.New()
			clk := obs.NewManualClock(time.Unix(1_700_000_000, 0))
			sched, err := fault.NewSchedule(fault.Plan{Seed: seed, Rates: chaosRates()})
			if err != nil {
				t.Fatal(err)
			}
			sched.Instrument(reg)
			rec2 := flight.NewRecorder(flight.Options{Capacity: 4096, Trigger: flight.TriggerAlways})
			sink := newSink()
			e, err := New(rec, Options{
				Shards:       4,
				QueueDepth:   32,
				OnResult:     sink.add,
				Obs:          reg,
				Flight:       rec2,
				IdleTimeout:  time.Second,
				ReapInterval: -1, // reap only on demand; the clock is virtual
				Clock:        clk,
				Fault:        sched,
			})
			if err != nil {
				t.Fatal(err)
			}

			const producers, perProducer = 3, 3
			tally := &chaosTally{kinds: make(map[fault.Kind]int64)}
			var mu sync.Mutex
			started := map[string]bool{}
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < perProducer; i++ {
						id := fmt.Sprintf("c%d-p%d-s%d", seed, p, i)
						events, _ := sessionEvents(id, seed*1000+int64(p*100+i), i%2)
						ok, kinds, bad := chaosProducer(t, e, sched, id, events)
						tally.merge(kinds, bad)
						mu.Lock()
						started[id] = ok
						mu.Unlock()
					}
				}(p)
			}
			wg.Wait()
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}

			// Reap everything still open (stalled or tail-corrupted
			// sessions): advance the virtual clock past the idle deadline
			// and sweep.
			activeBefore := e.Stats().Active
			clk.Advance(2 * time.Second)
			reaped, err := e.Reap()
			if err != nil {
				t.Fatal(err)
			}
			if int64(reaped) != activeBefore {
				t.Errorf("Reap() = %d, want %d (all idle sessions)", reaped, activeBefore)
			}
			if got := e.Stats().Active; got != 0 {
				t.Errorf("Stats.Active = %d after full reap, want 0", got)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if err := e.Submit(Event{Session: "post", Kind: multipath.FingerDown, X: 1, Y: 1, T: 1}); !errors.Is(err, ErrClosed) {
				t.Errorf("Submit after Close = %v, want ErrClosed", err)
			}

			snap := reg.Snapshot()
			st := e.Stats()

			// One Result per started session, none for never-started ones.
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
				if got && o == OutcomeDrained {
					t.Errorf("session %s drained; every open session should have been reaped first", id)
				}
			}
			if int64(sink.len()) != st.Completed {
				t.Errorf("results delivered = %d, Stats.Completed = %d", sink.len(), st.Completed)
			}

			// Queue accounting balances: every accepted event was observed
			// leaving a queue; control messages are not accounted.
			if h := snapHist(t, snap, "serve.queue.wait_ns"); h.Count != st.Submitted {
				t.Errorf("serve.queue.wait_ns count = %d, Stats.Submitted = %d", h.Count, st.Submitted)
			}
			if got := snapCounter(t, snap, "serve.events.bad"); got != tally.bad || st.Bad != tally.bad {
				t.Errorf("serve.events.bad = %d, Stats.Bad = %d, producers observed %d", got, st.Bad, tally.bad)
			}

			// Every producer-side injected fault is visible in its counter.
			var total int64
			for _, k := range []fault.Kind{fault.KindDrop, fault.KindDup, fault.KindNaN,
				fault.KindInf, fault.KindNegT, fault.KindReorder, fault.KindStall} {
				got := snapCounter(t, snap, "fault.injected."+k.String())
				if got != tally.kinds[k] {
					t.Errorf("fault.injected.%s = %d, producers applied %d", k, got, tally.kinds[k])
				}
				total += got
			}

			// Engine-side faults: each injected panic quarantines exactly
			// one session; degraded outcomes need at least one poisoning.
			var panicked, degraded, reapedN int64
			for id := range started {
				switch o, _ := sink.outcome(id); o {
				case OutcomePanicked:
					panicked++
				case OutcomeDegraded:
					degraded++
				case OutcomeReaped:
					reapedN++
				}
			}
			panicInjected := snapCounter(t, snap, "fault.injected.panic")
			poisonInjected := snapCounter(t, snap, "fault.injected.poison")
			total += panicInjected + poisonInjected
			if panicInjected != st.Panicked || st.Panicked != panicked {
				t.Errorf("fault.injected.panic = %d, Stats.Panicked = %d, panicked results = %d",
					panicInjected, st.Panicked, panicked)
			}
			if degraded > poisonInjected {
				t.Errorf("degraded results = %d exceed poison injections = %d", degraded, poisonInjected)
			}
			if st.Degraded != degraded {
				t.Errorf("Stats.Degraded = %d, degraded results = %d", st.Degraded, degraded)
			}
			if st.Reaped != reapedN || int64(reaped) != reapedN {
				t.Errorf("Stats.Reaped = %d, Reap() = %d, reaped results = %d", st.Reaped, reaped, reapedN)
			}
			if got := snapCounter(t, snap, "fault.injected.total"); got != total {
				t.Errorf("fault.injected.total = %d, per-kind sum = %d", got, total)
			}

			// Flight bundles carry the same outcome the engine reported.
			for _, b := range rec2.Bundles() {
				o, ok := sink.outcome(b.Session)
				if !ok {
					t.Errorf("bundle for session %s which has no Result", b.Session)
					continue
				}
				if b.Outcome.Reason != o.String() {
					t.Errorf("bundle %s reason = %q, Result outcome = %v", b.Session, b.Outcome.Reason, o)
				}
				if o == OutcomeDegraded && !b.Outcome.Poisoned {
					t.Errorf("bundle %s: degraded outcome but Poisoned = false", b.Session)
				}
			}
		})
	}
}

// refClass runs a standalone multipath session over the same event
// stream and returns the class it decides — the fault-free ground truth
// for what the engine should report. It works for any backend, which is
// what lets the isolation tests run against both.
func refClass(rec recognizer.Backend, events []Event) string {
	ref := multipath.NewSession(rec)
	for _, ev := range events {
		ref.Handle(multipath.Event{Finger: ev.Finger, Kind: ev.Kind, X: ev.X, Y: ev.Y, T: ev.T})
	}
	return ref.Class()
}

// TestChaosPoisonIsolation poisons one of two sessions interleaved on
// the same shard. The poisoned stroke must degrade — the backend's
// fallback scorer on the finite prefix — while its neighbor classifies
// normally, on the same shard, unaffected.
func TestChaosPoisonIsolation(t *testing.T) {
	runChaosIsolation(t, trainRec(t, 7), fault.KindPoison, OutcomeDegraded)
}

// TestChaosPanicIsolation injects a dispatch panic into one of two
// sessions interleaved on the same shard. The panicking session is
// quarantined; the shard keeps serving its neighbor and future
// sessions.
func TestChaosPanicIsolation(t *testing.T) {
	runChaosIsolation(t, trainRec(t, 7), fault.KindPanic, OutcomePanicked)
}

// Template-backend variants of the isolation tests: poisoned strokes
// must degrade through template.Session.Degrade (the backend-agnostic
// recognizer.Stream contract) and panic quarantine must behave
// identically — the engine cannot tell backends apart.
func TestChaosPoisonIsolationTemplateBackend(t *testing.T) {
	runChaosIsolation(t, trainTemplate(t, 7), fault.KindPoison, OutcomeDegraded)
}

func TestChaosPanicIsolationTemplateBackend(t *testing.T) {
	runChaosIsolation(t, trainTemplate(t, 7), fault.KindPanic, OutcomePanicked)
}

func runChaosIsolation(t *testing.T, rec recognizer.Backend, k fault.Kind, want Outcome) {
	t.Helper()
	reg := obs.New()
	script := fault.NewScript().Set("victim", 5, k)
	script.Instrument(reg)
	rec2 := flight.NewRecorder(flight.Options{Capacity: 16, Trigger: flight.TriggerAlways})
	sink := newSink()
	e, err := New(rec, Options{Shards: 1, OnResult: sink.add, Obs: reg, Flight: rec2, Fault: script})
	if err != nil {
		t.Fatal(err)
	}

	vEvents, _ := sessionEvents("victim", 41, 0)
	bEvents, _ := sessionEvents("bystander", 42, 1)
	bWant := refClass(rec, bEvents)
	// Interleave the two sessions event by event on the single shard.
	for i := 0; i < len(vEvents) || i < len(bEvents); i++ {
		if i < len(vEvents) {
			if err := e.SubmitWait(vEvents[i]); err != nil {
				t.Fatalf("victim event %d: %v", i, err)
			}
		}
		if i < len(bEvents) {
			if err := e.SubmitWait(bEvents[i]); err != nil {
				t.Fatalf("bystander event %d: %v", i, err)
			}
		}
	}
	// The shard must still serve brand-new sessions after the fault.
	aEvents, _ := sessionEvents("after", 43, 0)
	aWant := refClass(rec, aEvents)
	for _, ev := range aEvents {
		if err := e.SubmitWait(ev); err != nil {
			t.Fatalf("after event: %v", err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	if o, ok := sink.outcome("victim"); !ok || o != want {
		t.Errorf("victim outcome = %v (present %v), want %v", o, ok, want)
	}
	if want == OutcomeDegraded {
		if class, _ := sink.get("victim"); class == "" {
			t.Error("degraded victim has no class; the finite prefix should classify")
		}
	}
	for _, other := range []struct{ id, want string }{{"bystander", bWant}, {"after", aWant}} {
		if class, ok := sink.get(other.id); !ok || class != other.want {
			t.Errorf("session %s class = %q (present %v), want %q — fault leaked across sessions",
				other.id, class, ok, other.want)
		}
		if o, _ := sink.outcome(other.id); o != OutcomeCompleted {
			t.Errorf("session %s outcome = %v, want %v", other.id, o, OutcomeCompleted)
		}
	}

	snap := reg.Snapshot()
	if got := snapCounter(t, snap, "fault.injected."+k.String()); got != 1 {
		t.Errorf("fault.injected.%s = %d, want 1", k, got)
	}
	if want == OutcomePanicked {
		if got := snapCounter(t, snap, "serve.sessions.panicked"); got != 1 {
			t.Errorf("serve.sessions.panicked = %d, want 1", got)
		}
		if got := snapCounter(t, snap, "serve.events.quarantined"); got == 0 {
			t.Error("serve.events.quarantined = 0; the victim's post-panic events should be counted")
		}
	} else {
		if got := snapCounter(t, snap, "serve.sessions.degraded"); got != 1 {
			t.Errorf("serve.sessions.degraded = %d, want 1", got)
		}
		for _, b := range rec2.Bundles() {
			if b.Session == "victim" {
				if !b.Outcome.Poisoned || b.Outcome.Reason != "degraded" {
					t.Errorf("victim bundle: Poisoned=%v Reason=%q, want poisoned+degraded",
						b.Outcome.Poisoned, b.Outcome.Reason)
				}
			}
		}
	}
}

// Package obsdemo builds small, fully instrumented, deterministic
// train-and-serve workloads over the paper's GDP gesture set. It is the
// shared substrate behind three consumers:
//
//   - cmd/gserve uses New to boot an instrumented engine with a model to
//     serve and a registry to expose over HTTP;
//   - cmd/gbench -obs uses Run to embed a populated metrics snapshot in
//     its JSON artifact;
//   - the OBSERVABILITY.md contract test uses Run to obtain a snapshot
//     that has every documented metric registered, and checks the
//     document and the snapshot against each other.
//
// Everything seeded is deterministic: for a fixed seed the trained
// recognizer, the replayed traffic, and therefore the set of metric
// names, bucket boundaries, and all count-valued metrics are identical
// run over run (latency-valued histogram contents of course vary).
package obsdemo

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"time"

	"repro/internal/eager"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/geom"
	"repro/internal/ingest"
	"repro/internal/multipath"
	"repro/internal/netfault"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/slo"
	"repro/internal/synth"
	"repro/internal/template"
	"repro/internal/wire"
)

// TrainExamples is the per-class training-set size used by New and Run —
// small enough that a demo trains in well under a second, large enough
// that the GDP classes separate cleanly.
const TrainExamples = 6

// New trains a GDP recognizer with full training instrumentation
// attached to a fresh registry and returns both. The recognizer is
// instrumented too (eager.Train does that when Options.Obs is set), so
// sessions created from it — directly or through a serve.Engine sharing
// the same registry — record into the returned registry.
func New(seed int64) (*obs.Registry, *eager.Recognizer, error) {
	reg := obs.New()
	gen := synth.NewGenerator(synth.DefaultParams(seed))
	set, _ := gen.Set("gdp-train", synth.GDPClasses(), TrainExamples)
	opts := eager.DefaultOptions()
	opts.Obs = reg
	rec, _, err := eager.Train(set, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("obsdemo: train: %w", err)
	}
	return reg, rec, nil
}

// SpanCapacity is the gesture.spans buffer capacity the demo
// pre-registers (first registration wins over the serve engine's
// default): generous headroom over the workload's span count, so no
// record is ever evicted and the set of span names in the snapshot is
// deterministic.
const SpanCapacity = 32768

// FlightCapacity is the demo flight recorder's ring capacity — larger
// than the session count, so every captured gesture survives in the
// dump.
const FlightCapacity = 64

// Run executes the full demo workload and returns the populated
// registry: train (New), serve a burst of replayed GDP interactions
// through an instrumented multi-shard engine (with span tracing and a
// keep-everything flight recorder attached), exercise the swap and
// swap-rejection paths, leave one session to be drained at Close and one
// too short to ever fire eagerly (so the mouse-up "classify" span is
// exercised), run the scripted failure segment (a poisoned stroke that
// degrades, a dispatch panic that quarantines, a stalled session the
// idle reaper collects), replay gestures through Recognizer.Run for the
// commit-fraction histogram, and poison-then-Reset one span-traced
// streaming session. After Run, every metric and span name in the
// OBSERVABILITY.md contract is present in the snapshot.
func Run(seed int64) (*obs.Registry, error) {
	reg, _, _, err := demo(seed)
	return reg, err
}

// Flight runs the same workload as Run and returns the trained
// recognizer together with the populated flight recorder — the pair
// cmd/greplay -record saves so a later replay can be checked against the
// exact model that produced the captures.
func Flight(seed int64) (*eager.Recognizer, *flight.Recorder, error) {
	_, rec, fr, err := demo(seed)
	return rec, fr, err
}

// demo is the shared workload behind Run and Flight.
func demo(seed int64) (*obs.Registry, *eager.Recognizer, *flight.Recorder, error) {
	reg, rec, err := New(seed)
	if err != nil {
		return nil, nil, nil, err
	}

	// Pre-register the span buffer with headroom before the engine's
	// default-capacity registration (first registration wins), keeping the
	// demo's span-name set eviction-free and deterministic.
	spans := reg.Spans("gesture.spans", SpanCapacity)

	fr := flight.NewRecorder(flight.Options{Capacity: FlightCapacity, Trigger: flight.TriggerAlways})
	// The fault script drives the demo's failure segment: one session
	// poisoned mid-stroke (degraded classification), one panicked at
	// dispatch (quarantine). Index 3 is below MinSubgesture, so neither
	// session can have decided eagerly before the fault lands.
	script := fault.NewScript().
		Set("demo-fault-degraded", 3, fault.KindPoison).
		Set("demo-fault-panic", 3, fault.KindPanic)
	script.Instrument(reg)
	clk := obs.NewManualClock(time.Unix(1_700_000_000, 0))
	e, err := serve.New(rec, serve.Options{
		Shards:       minInt(4, runtime.GOMAXPROCS(0)),
		QueueDepth:   64,
		Obs:          reg,
		Flight:       fr,
		Fault:        script,
		Clock:        clk,
		IdleTimeout:  time.Second,
		ReapInterval: -1, // reap on demand only; the clock is virtual
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("obsdemo: %w", err)
	}

	gen := synth.NewGenerator(synth.DefaultParams(seed + 1))
	classes := synth.GDPClasses()
	const sessions = 24
	for i := 0; i < sessions; i++ {
		s := gen.Sample(classes[i%len(classes)])
		if err := play(e, fmt.Sprintf("demo-%03d", i), s.G.Points, true); err != nil {
			return nil, nil, nil, err
		}
	}

	// Swap paths: a rejected nil swap, then a real (self-)swap — the
	// engine republishes the same immutable snapshot, which exercises the
	// full code path without a second training run.
	e.Swap(nil)
	e.Swap(rec)

	// One stroke too short to reach MinSubgesture: eager never fires, so
	// the mouse-up full classification runs (the "classify" span).
	s := gen.Sample(classes[1])
	short := s.G.Points
	if n := rec.Opts.MinSubgesture - 1; len(short) > n {
		short = short[:n]
	}
	if err := play(e, "demo-short", short, true); err != nil {
		return nil, nil, nil, err
	}

	// Failure segment, driven by the fault script: one poisoned stroke
	// that degrades (full classifier on the finite prefix), one dispatch
	// panic that quarantines its session while the shard keeps serving,
	// and one stalled session the idle reaper collects after the virtual
	// clock jumps past the deadline.
	s = gen.Sample(classes[2])
	if err := play(e, "demo-fault-degraded", s.G.Points, true); err != nil {
		return nil, nil, nil, err
	}
	s = gen.Sample(classes[3])
	if err := play(e, "demo-fault-panic", s.G.Points, true); err != nil {
		return nil, nil, nil, err
	}
	s = gen.Sample(classes[4])
	if err := play(e, "demo-fault-stall", s.G.Points, false); err != nil {
		return nil, nil, nil, err
	}
	if err := e.Flush(); err != nil {
		return nil, nil, nil, fmt.Errorf("obsdemo: flush: %w", err)
	}
	clk.Advance(2 * time.Second)
	if _, err := e.Reap(); err != nil {
		return nil, nil, nil, fmt.Errorf("obsdemo: reap: %w", err)
	}

	// Wire ingestion segment: one gesture arrives over a real loopback
	// socket through internal/ingest (sharing the registry, so every
	// wire.* metric and the "wire.spans" buffer registers), one NaN
	// coordinate draws a deterministic bad-event NACK, and a second
	// connection sends garbage and is refused with a fatal response.
	if err := wireSegment(reg, e, gen.Sample(classes[5]).G.Points); err != nil {
		return nil, nil, nil, err
	}

	// Robustness segment: the scripted netfault kinds (netfault.injected.*),
	// a browned-out admission controller shedding over the wire
	// (serve.admit.*, wire.nacks.overload), an over-cap connection refused
	// (wire.connections.rejected), and an idle connection the watchdog
	// collects (wire.connections.idle_closed) — all exactly once, so the
	// counts stay deterministic.
	if err := robustnessSegment(reg, rec); err != nil {
		return nil, nil, nil, err
	}

	// One session left open (no FingerUp) so Close drains it.
	s = gen.Sample(classes[0])
	if err := play(e, "demo-open", s.G.Points, false); err != nil {
		return nil, nil, nil, err
	}
	if err := e.Close(); err != nil {
		return nil, nil, nil, fmt.Errorf("obsdemo: close: %w", err)
	}

	// Replay through Run for the commit-fraction histogram (the paper's
	// eagerness measurement).
	gen = synth.NewGenerator(synth.DefaultParams(seed + 2))
	for i := 0; i < len(classes); i++ {
		sample := gen.Sample(classes[i])
		if _, _, err := rec.Run(sample.G); err != nil {
			return nil, nil, nil, fmt.Errorf("obsdemo: replay: %w", err)
		}
	}

	// Error path: a poisoned stroke (counted once) and its Reset, traced
	// directly (no engine) so the "poisoned" and "reset" span events are
	// in the buffer too.
	sess, err := rec.NewSession()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("obsdemo: %w", err)
	}
	root := spans.Start("gesture")
	root.SetAttr("session", "demo-poison")
	sess.SetSpan(root)
	for i := 0; i <= rec.Opts.MinSubgesture; i++ {
		sess.Add(geom.TimedPoint{X: math.NaN(), T: float64(i)})
	}
	sess.Reset()
	root.End()

	// Template-backend segment: the second recognizer backend serves a
	// burst through an engine selected via Options.Backend, sharing the
	// registry, then exercises its poison/degrade/reset and Run paths
	// directly — so every template.* metric in the OBSERVABILITY.md
	// contract registers with deterministic counts.
	if err := templateSegment(reg, seed); err != nil {
		return nil, nil, nil, err
	}

	// SLO segment: evaluate the default objectives over the windowed
	// instruments the workload populated, so every slo.* gauge in the
	// OBSERVABILITY.md contract registers.
	slo.New(reg, slo.DefaultObjectives(), clk).Evaluate()

	return reg, rec, fr, nil
}

// templateSegment trains the streaming template backend on the same GDP
// workload, replays a short burst through an Options.Backend-selected
// engine, and then drives one pooled session through the poisoned ->
// Degrade -> Reset lifecycle plus one Run replay. After it, all seven
// template.* metrics are non-zero and deterministic for a fixed seed.
func templateSegment(reg *obs.Registry, seed int64) error {
	classes := synth.GDPClasses()
	set, _ := synth.NewGenerator(synth.DefaultParams(seed)).Set("gdp-template", classes, TrainExamples)
	tmpl, err := template.Train(set, template.DefaultOptions())
	if err != nil {
		return fmt.Errorf("obsdemo: template: %w", err)
	}
	tmpl.Instrument(reg)

	e, err := serve.New(nil, serve.Options{Backend: tmpl, Shards: 2, QueueDepth: 64, Obs: reg})
	if err != nil {
		return fmt.Errorf("obsdemo: template: %w", err)
	}
	gen := synth.NewGenerator(synth.DefaultParams(seed + 3))
	for i := 0; i < len(classes); i++ {
		s := gen.Sample(classes[i%len(classes)])
		if err := play(e, fmt.Sprintf("demo-tmpl-%03d", i), s.G.Points, true); err != nil {
			return err
		}
	}
	if err := e.Close(); err != nil {
		return fmt.Errorf("obsdemo: template: close: %w", err)
	}

	// Poison -> Degrade -> Reset on a pooled session (template.session.
	// poisoned / .degraded / .resets), then one Run replay for the
	// commit-fraction histogram and the end-fire counter.
	ts, err := tmpl.NewSession()
	if err != nil {
		return fmt.Errorf("obsdemo: template: %w", err)
	}
	pts := gen.Sample(classes[0]).G.Points
	for _, p := range pts[:5] {
		if _, _, err := ts.Add(p); err != nil {
			return fmt.Errorf("obsdemo: template: %w", err)
		}
	}
	ts.Add(geom.TimedPoint{X: math.NaN(), T: pts[4].T + 1})
	if _, err := ts.Degrade(); err != nil {
		return fmt.Errorf("obsdemo: template: degrade: %w", err)
	}
	ts.Reset()
	if _, _, err := tmpl.Run(gen.Sample(classes[1]).G); err != nil {
		return fmt.Errorf("obsdemo: template: replay: %w", err)
	}
	return nil
}

// wireSegment replays one gesture over a real loopback socket through
// the wire-protocol ingest front end, exercising the accept path, the
// per-event NACK path (one NaN coordinate refused by Submit
// validation), and the fatal path (a garbage frame on a second
// connection). Counter-valued wire.* metrics end deterministic: one
// frame rejected, one bad-event NACK, two connections opened and
// closed.
func wireSegment(reg *obs.Registry, e *serve.Engine, g geom.Path) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("obsdemo: wire listen: %w", err)
	}
	ws := ingest.Serve(ln, e, ingest.Options{Obs: reg})
	defer ws.Close()

	fail := func(err error) error { return fmt.Errorf("obsdemo: wire: %w", err) }
	c, err := net.Dial("tcp", ws.Addr().String())
	if err != nil {
		return fail(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	enc := wire.NewEncoder()
	events := make([]wire.Event, 0, len(g)+2)
	for i, p := range g {
		kind := wire.KindMove
		if i == 0 {
			kind = wire.KindDown
		}
		events = append(events, wire.Event{
			Session: "demo-wire", Kind: kind, X: p.X, Y: p.Y, TMicros: wire.Micros(p.T),
		})
	}
	last := g[len(g)-1]
	events = append(events, wire.Event{
		Session: "demo-wire", Kind: wire.KindUp, X: last.X, Y: last.Y, TMicros: wire.Micros(last.T + 0.01),
	})
	// One event that fails Submit validation: the frame decodes, the
	// event NACKs with wire.NackBadEvent.
	events = append(events, wire.Event{
		Session: "demo-wire-bad", Kind: wire.KindDown, X: math.NaN(), Y: 0, TMicros: wire.Micros(last.T + 0.02),
	})
	nacked := 0
	for len(events) > 0 {
		n := 8
		if n > len(events) {
			n = len(events)
		}
		frame, err := enc.AppendFrame(nil, events[:n])
		if err != nil {
			return fail(err)
		}
		if _, err := c.Write(frame); err != nil {
			return fail(err)
		}
		resp, err := wire.ReadResponse(br, nil)
		if err != nil {
			return fail(err)
		}
		if resp.Fatal {
			return fail(fmt.Errorf("unexpected fatal response %s", resp.Code))
		}
		nacked += len(resp.Nacks)
		events = events[n:]
	}
	if nacked != 1 {
		return fail(fmt.Errorf("%d NACKs, want exactly the bad-coordinate one", nacked))
	}

	// Fatal path: a second connection sends bytes that are not a frame.
	c2, err := net.Dial("tcp", ws.Addr().String())
	if err != nil {
		return fail(err)
	}
	defer c2.Close()
	if _, err := c2.Write([]byte("not a wire frame")); err != nil {
		return fail(err)
	}
	resp, err := wire.ReadResponse(bufio.NewReader(c2), nil)
	if err != nil {
		return fail(err)
	}
	if !resp.Fatal {
		return fail(fmt.Errorf("garbage frame drew non-fatal response %+v", resp))
	}
	return ws.Close()
}

// robustnessSegment populates the robustness-layer instruments with
// deterministic counts. Three sub-scenes: (1) a scripted fault of every
// netfault kind over an in-memory pipe — each injected exactly once, so
// every netfault.injected.* counter registers at 1 (total 7); (2) an
// admission controller pushed into brownout on a virtual clock at a
// full shed fraction, attached to an engine behind a wire listener —
// one event arrives over a real socket and is shed with an overload
// NACK carrying a retry-after hint (serve.admit.*,
// wire.nacks.overload); (3) the listener's self-defense: a second
// connection beyond MaxConns is refused with FatalOverloaded
// (wire.connections.rejected) and the first, now idle past the
// watchdog deadline on the virtual clock, is collected with a
// FatalTimeout (wire.connections.idle_closed).
func robustnessSegment(reg *obs.Registry, rec *eager.Recognizer) error {
	fail := func(err error) error { return fmt.Errorf("obsdemo: robustness: %w", err) }

	// Scene 1: every fault kind, scripted to an exact operation index so
	// the injection tallies are count-deterministic. Sleeps are virtual —
	// the stall and jitter kinds must not slow the demo down.
	script := netfault.NewScript().
		Set("demo-nf", netfault.DirRead, 0, netfault.KindShortRead).
		Set("demo-nf", netfault.DirWrite, 0, netfault.KindSplit).
		Set("demo-nf", netfault.DirWrite, 1, netfault.KindJitter).
		Set("demo-nf", netfault.DirWrite, 2, netfault.KindStall).
		Set("demo-nf", netfault.DirWrite, 3, netfault.KindCorrupt).
		Set("demo-nf", netfault.DirWrite, 4, netfault.KindTruncate).
		Set("demo-nf", netfault.DirWrite, 5, netfault.KindReset)
	script.SetSleep(func(time.Duration) {})
	script.Instrument(reg)
	a, b := net.Pipe()
	defer a.Close()
	fc := script.Conn(a, "demo-nf")
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer b.Close()
		if _, err := b.Write([]byte("ping")); err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, b)
	}()
	buf := make([]byte, 16)
	for got := 0; got < 4; {
		n, err := fc.Read(buf) // op 0 is the scripted short read
		if err != nil {
			return fail(err)
		}
		got += n
	}
	for i := 0; i < 6; i++ {
		// Ops 4 (truncate) and 5 (reset) fail by design — the injected
		// error is the point; the benign ops before them must not.
		if _, err := fc.Write([]byte("demo payload")); err != nil && i < 4 {
			return fail(err)
		}
	}
	fc.Close()
	<-done

	// Scene 2: a controller on a virtual clock, one over-target
	// observation at Sustain 1 and a pinned full shed fraction — straight
	// into brownout, so the engine behind the wire listener sheds the one
	// event a client offers.
	clk := obs.NewManualClock(time.Unix(1_700_000_000, 0))
	adm, err := serve.NewAdmission(serve.AdmitOptions{
		Target:  time.Millisecond,
		Sustain: 1,
		ShedMin: 1,
		ShedMax: 1,
		Clock:   clk,
		Obs:     reg,
	})
	if err != nil {
		return fail(err)
	}
	adm.Observe(50 * time.Millisecond)
	if adm.State() != serve.AdmitBrownout {
		return fail(fmt.Errorf("controller did not brown out"))
	}
	e, err := serve.New(rec, serve.Options{Shards: 1, QueueDepth: 8, Obs: reg, Admission: adm, Clock: clk})
	if err != nil {
		return fail(err)
	}
	iclk := obs.NewManualClock(time.Unix(1_700_000_000, 0))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	ws := ingest.Serve(ln, e, ingest.Options{
		Obs:           reg,
		IdleTimeout:   time.Second,
		SweepInterval: -1, // swept explicitly below; the clock is virtual
		Clock:         iclk,
		MaxConns:      1,
		WriteTimeout:  time.Second,
	})
	defer ws.Close()
	c1, err := net.Dial("tcp", ws.Addr().String())
	if err != nil {
		return fail(err)
	}
	defer c1.Close()
	br1 := bufio.NewReader(c1)
	frame, err := wire.NewEncoder().AppendFrame(nil, []wire.Event{{
		Session: "demo-shed", Kind: wire.KindDown, X: 0.1, Y: 0.2, TMicros: 1,
	}})
	if err != nil {
		return fail(err)
	}
	if _, err := c1.Write(frame); err != nil {
		return fail(err)
	}
	resp, err := wire.ReadResponse(br1, nil)
	if err != nil {
		return fail(err)
	}
	if resp.Fatal || len(resp.Nacks) != 1 || resp.Nacks[0].Code != wire.NackOverload || resp.RetryAfterMS == 0 {
		return fail(fmt.Errorf("browned-out engine answered %+v, want one overload NACK with a retry hint", resp))
	}

	// Scene 3a: a second connection while the first holds the only
	// MaxConns slot — refused with a typed fatal, never served.
	c2, err := net.Dial("tcp", ws.Addr().String())
	if err != nil {
		return fail(err)
	}
	defer c2.Close()
	resp2, err := wire.ReadResponse(bufio.NewReader(c2), nil)
	if err != nil {
		return fail(err)
	}
	if !resp2.Fatal || resp2.Code != wire.FatalOverloaded {
		return fail(fmt.Errorf("over-cap connection answered %+v, want fatal overloaded", resp2))
	}

	// Scene 3b: the first connection goes silent past the idle deadline;
	// the watchdog collects it with a FatalTimeout.
	iclk.Advance(2 * time.Second)
	if n := ws.SweepIdle(); n != 1 {
		return fail(fmt.Errorf("SweepIdle = %d, want 1", n))
	}
	resp3, err := wire.ReadResponse(br1, nil)
	if err != nil {
		return fail(err)
	}
	if !resp3.Fatal || resp3.Code != wire.FatalTimeout {
		return fail(fmt.Errorf("idle connection answered %+v, want fatal timeout", resp3))
	}
	if err := ws.Close(); err != nil {
		return fail(err)
	}
	if err := e.Close(); err != nil {
		return fail(fmt.Errorf("close: %w", err))
	}
	return nil
}

// play streams one single-finger interaction through SubmitWait (which
// waits out a full queue). finish controls
// whether the FingerUp is sent (false leaves the session in flight for
// Close to drain or the reaper to collect).
func play(e *serve.Engine, id string, g geom.Path, finish bool) error {
	for i, p := range g {
		kind := multipath.FingerMove
		if i == 0 {
			kind = multipath.FingerDown
		}
		if err := e.SubmitWait(serve.Event{Session: id, Kind: kind, X: p.X, Y: p.Y, T: p.T}); err != nil {
			return fmt.Errorf("obsdemo: submit: %w", err)
		}
	}
	if !finish {
		return nil
	}
	last := g[len(g)-1]
	if err := e.SubmitWait(serve.Event{Session: id, Kind: multipath.FingerUp, X: last.X, Y: last.Y, T: last.T + 0.01}); err != nil {
		return fmt.Errorf("obsdemo: submit: %w", err)
	}
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

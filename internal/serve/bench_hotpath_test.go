package serve

// The hot-path allocation contract, measured. DESIGN.md §6 documents the
// three-layer gate: the hotalloc analyzer flags AST-visible allocation
// sources in //glint:hotpath functions, cmd/glint -escape cross-checks
// the compiler's escape analysis against the same regions, and the
// benchmarks and test here prove the end result at runtime — zero
// allocations per point on the decide path, with observability off and
// with it on as gserve ships it (metrics and spans into an obs.Registry;
// flight capture off). CI publishes the benchmark numbers as
// BENCH_hotpath.json.

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/multipath"
	"repro/internal/obs"
	"repro/internal/recognizer"
)

// instrumentable is a backend that attaches its metrics to a registry,
// as both eager.Recognizer and template.Recognizer do.
type instrumentable interface {
	recognizer.Backend
	Instrument(reg *obs.Registry)
}

// BenchmarkDecidePerPoint measures one eager.Session.Add — the paper's
// per-mouse-point D + C-hat cost — on a warm session with observability
// disabled. The contract is 0 allocs/op.
func BenchmarkDecidePerPoint(b *testing.B) { benchDecide(b, trainRec(b, 1), nil) }

// BenchmarkDecidePerPointObs is BenchmarkDecidePerPoint instrumented:
// decide metrics plus the per-point decide/auc_score/full_score spans,
// measured once every span ring slot has been written. The contract is
// 0 allocs/op.
func BenchmarkDecidePerPointObs(b *testing.B) { benchDecide(b, trainRec(b, 1), obs.New()) }

// BenchmarkSubmitSteadyState measures the full engine path — Submit,
// shard dispatch, session decide, completion, pool return — in steady
// state: one session ID cycling through whole gestures, so every gesture
// after the first revives its predecessor's pooled session. Allocations
// on the shard goroutine count too (AllocsPerOp is process-wide), so
// 0 allocs/op here means the entire serving loop is allocation-free per
// event.
func BenchmarkSubmitSteadyState(b *testing.B) { benchSubmit(b, trainRec(b, 1), nil) }

// BenchmarkSubmitSteadyStateObs is BenchmarkSubmitSteadyState with the
// engine and backend instrumented: every event also records its
// queue_wait, dispatch and decide spans, and every gesture its root.
func BenchmarkSubmitSteadyStateObs(b *testing.B) { benchSubmit(b, trainRec(b, 1), obs.New()) }

// TestDecidePathZeroAlloc is the allocation gate as a hard test: a warm
// eager session must perform zero allocations per Add. This is the
// runtime proof behind the //glint:hotpath annotations; the static
// analyzers keep the property reviewable, this test keeps it true.
func TestDecidePathZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	gateDecide(t, trainRec(t, 1), nil)
}

// TestDecidePathZeroAllocObs extends the gate to the instrumented
// session: once each span ring slot has been written, tracing every
// point must not allocate either.
func TestDecidePathZeroAllocObs(t *testing.T) {
	skipUnderRace(t)
	gateDecide(t, trainRec(t, 1), obs.New())
}

// TestSubmitPathZeroAlloc extends the gate to the intake half: Submit on
// a live session (validation, shard hash, timestamp high-water check,
// enqueue) must not allocate. The shard consumer is kept idle-free by
// draining through a real dispatch loop.
func TestSubmitPathZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	gateSubmit(t, trainRec(t, 1), nil)
}

// TestSubmitPathZeroAllocObs is TestSubmitPathZeroAlloc on an
// instrumented engine, measured once each span ring slot has been
// written.
func TestSubmitPathZeroAllocObs(t *testing.T) {
	skipUnderRace(t)
	gateSubmit(t, trainRec(t, 1), obs.New())
}

// skipUnderRace skips an allocation gate in a -race build.
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the contract is asserted by the non-race pass")
	}
}

// spansWrapped reports whether every slot of the buffer has been
// written at least once — the point from which recording a span reuses
// its slot's record instead of allocating it. A nil buffer (tracing
// off) has nothing to warm.
func spansWrapped(b *obs.SpanBuffer) bool {
	return b.Recorded() >= uint64(b.Cap())
}

// warmStream returns a warm stream of be and the gesture to feed it.
// With reg set, be is instrumented against it and the stream traces
// under a root span in reg's gesture span buffer. The stream is fed
// whole strokes, with a Reset after each, until that ring has wrapped;
// the first stroke also grows any buffer past its preallocated capacity
// (Reset retains it).
func warmStream(t testing.TB, be instrumentable, reg *obs.Registry) (recognizer.Stream, geom.Path) {
	t.Helper()
	var spans *obs.SpanBuffer
	if reg != nil {
		be.Instrument(reg)
		spans = reg.Spans("gesture.spans", 0)
	}
	s, err := be.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	s.SetSpan(spans.Start("gesture"))
	g, _ := sampleGesture(2, 0)
	for warm := true; warm; warm = !spansWrapped(spans) {
		for _, p := range g {
			s.Add(p)
		}
		s.Reset()
	}
	return s, g
}

// warmEngine returns a one-shard engine over be (instrumented against
// reg when set) after whole gestures on session id have filled its
// session pool and, with reg set, wrapped its span ring.
func warmEngine(t testing.TB, be instrumentable, reg *obs.Registry, id string) (*Engine, geom.Path) {
	t.Helper()
	if reg != nil {
		be.Instrument(reg)
	}
	e, err := New(nil, Options{Backend: be, Shards: 1, QueueDepth: 4096, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	spans := reg.Spans("gesture.spans", 0)
	g, _ := sampleGesture(2, 0)
	for warm := true; warm; warm = !spansWrapped(spans) {
		playSession(t, e, id, g)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return e, g
}

// benchDecide measures one Add per iteration on a warm stream of be,
// cycling through whole strokes with a Reset between them.
func benchDecide(b *testing.B, be instrumentable, reg *obs.Registry) {
	s, g := warmStream(b, be, reg)
	b.ReportAllocs()
	b.ResetTimer()
	j := 0
	for i := 0; i < b.N; i++ {
		if j == len(g) {
			s.Reset()
			j = 0
		}
		s.Add(g[j])
		j++
	}
}

// benchSubmit measures one Submit per iteration on a warm engine over
// be, one session ID cycling through whole gestures.
func benchSubmit(b *testing.B, be instrumentable, reg *obs.Registry) {
	e, g := warmEngine(b, be, reg, "bench")
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	t, j := g[len(g)-1].T+1, 0
	for i := 0; i < b.N; i++ {
		ev := Event{Session: "bench", Finger: 0, T: t}
		switch {
		case j == 0:
			ev.Kind = multipath.FingerDown
			ev.X, ev.Y = g[0].X, g[0].Y
		case j < len(g):
			ev.Kind = multipath.FingerMove
			ev.X, ev.Y = g[j].X, g[j].Y
		default:
			ev.Kind = multipath.FingerUp
			ev.X, ev.Y = g[len(g)-1].X, g[len(g)-1].Y
		}
		for {
			err := e.Submit(ev)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				b.Fatal(err)
			}
			runtime.Gosched() // backpressure: let the shard drain
		}
		t++
		if j++; j > len(g) {
			j = 0
		}
	}
	b.StopTimer()
}

// gateDecide fails t unless a warm stream of be performs zero
// allocations per Add.
func gateDecide(t *testing.T, be instrumentable, reg *obs.Registry) {
	s, g := warmStream(t, be, reg)
	j := 0
	allocs := testing.AllocsPerRun(400, func() {
		if j == len(g) {
			s.Reset()
			j = 0
		}
		s.Add(g[j])
		j++
	})
	if allocs != 0 {
		t.Fatalf("%s decide path allocated %.2f times per point; the //glint:hotpath contract requires 0", be.Caps().Name, allocs)
	}
}

// gateSubmit fails t unless a warm engine over be performs zero
// allocations per event, intake and dispatch together: a long stream of
// moves for one open session, so no per-gesture setup or teardown runs
// inside the measured loop. AllocsPerRun runs with GOMAXPROCS=1, so the
// yield after each Submit hands the processor to the shard, which
// dispatches the event inside the measured window.
func gateSubmit(t *testing.T, be instrumentable, reg *obs.Registry) {
	e, g := warmEngine(t, be, reg, "warm")
	defer e.Close()
	if err := e.Submit(Event{Session: "warm", Finger: 0, Kind: multipath.FingerDown, X: g[0].X, Y: g[0].Y, T: g[len(g)-1].T + 1}); err != nil {
		t.Fatal(err)
	}
	ts := g[len(g)-1].T + 2
	allocs := testing.AllocsPerRun(400, func() {
		for {
			err := e.Submit(Event{Session: "warm", Finger: 0, Kind: multipath.FingerMove, X: g[0].X, Y: g[0].Y, T: ts})
			if err == nil {
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				t.Fatal(err)
			}
			runtime.Gosched()
		}
		runtime.Gosched()
		ts++
	})
	if allocs != 0 {
		t.Fatalf("%s Submit allocated %.2f times per event; the //glint:hotpath contract requires 0", be.Caps().Name, allocs)
	}
}

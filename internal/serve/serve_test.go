package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/eager"
	"repro/internal/geom"
	"repro/internal/multipath"
	"repro/internal/synth"
)

func trainRec(t testing.TB, seed int64) *eager.Recognizer {
	t.Helper()
	set, _ := synth.NewGenerator(synth.DefaultParams(seed)).Set("train", synth.UDClasses(), 12)
	rec, _, err := eager.Train(set, eager.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// sampleGesture returns one synthetic gesture of the given UD class index
// together with its class name.
func sampleGesture(seed int64, class int) (geom.Path, string) {
	gen := synth.NewGenerator(synth.DefaultParams(seed))
	c := synth.UDClasses()[class]
	return gen.Sample(c).G.Points, c.Name
}

// submitRetry submits with SubmitWait, waiting out a full queue and
// failing the test on any other error.
func submitRetry(t testing.TB, e *Engine, ev Event) {
	t.Helper()
	if err := e.SubmitWait(ev); err != nil {
		t.Fatalf("submit: %v", err)
	}
}

// playSession streams one full single-finger interaction (down, moves,
// up) for the given session ID.
func playSession(t testing.TB, e *Engine, id string, g geom.Path) {
	t.Helper()
	for i, p := range g {
		kind := multipath.FingerMove
		if i == 0 {
			kind = multipath.FingerDown
		}
		if err := e.SubmitWait(Event{Session: id, Finger: 0, Kind: kind, X: p.X, Y: p.Y, T: p.T}); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	last := g[len(g)-1]
	if err := e.SubmitWait(Event{Session: id, Finger: 0, Kind: multipath.FingerUp, X: last.X, Y: last.Y, T: last.T + 0.01}); err != nil {
		t.Fatalf("submit: %v", err)
	}
}

// resultSink collects results safely across shard goroutines, tracking
// duplicate Results per session (there must never be any).
type resultSink struct {
	mu       sync.Mutex
	classes  map[string]string
	outcomes map[string]Outcome
	dups     int
}

func newSink() *resultSink {
	return &resultSink{classes: make(map[string]string), outcomes: make(map[string]Outcome)}
}

func (rs *resultSink) add(r Result) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if _, ok := rs.classes[r.Session]; ok {
		rs.dups++
	}
	rs.classes[r.Session] = r.Class
	rs.outcomes[r.Session] = r.Outcome
}

func (rs *resultSink) get(id string) (string, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	c, ok := rs.classes[id]
	return c, ok
}

func (rs *resultSink) outcome(id string) (Outcome, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	o, ok := rs.outcomes[id]
	return o, ok
}

func (rs *resultSink) len() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.classes)
}

func (rs *resultSink) duplicates() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.dups
}

// TestManyConcurrentSessions drives many interleaved sessions from many
// producer goroutines through a multi-shard engine sharing one
// recognizer, and checks every session completes with the class a
// standalone session computes. Run under -race this exercises the
// snapshot-sharing contract end to end.
func TestManyConcurrentSessions(t *testing.T) {
	rec := trainRec(t, 7)
	sink := newSink()
	e, err := New(rec, Options{Shards: 4, QueueDepth: 64, OnResult: sink.add})
	if err != nil {
		t.Fatal(err)
	}

	const producers = 6
	const perProducer = 5
	type expect struct{ id, class string }
	var mu sync.Mutex
	var expects []expect

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < perProducer; k++ {
				seed := int64(100 + p*31 + k)
				g, _ := sampleGesture(seed, (p+k)%2)
				id := fmt.Sprintf("s-%d-%d", p, k)

				// Ground truth: a standalone session over the same stream.
				ref := multipath.NewSession(rec)
				for i, pt := range g {
					kind := multipath.FingerMove
					if i == 0 {
						kind = multipath.FingerDown
					}
					ref.Handle(multipath.Event{Finger: 0, Kind: kind, X: pt.X, Y: pt.Y, T: pt.T})
				}
				last := g[len(g)-1]
				ref.Handle(multipath.Event{Finger: 0, Kind: multipath.FingerUp, X: last.X, Y: last.Y, T: last.T + 0.01})

				playSession(t, e, id, g)
				mu.Lock()
				expects = append(expects, expect{id, ref.Class()})
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	if got := sink.len(); got != producers*perProducer {
		t.Fatalf("completed %d sessions, want %d", got, producers*perProducer)
	}
	for _, ex := range expects {
		got, ok := sink.get(ex.id)
		if !ok {
			t.Fatalf("session %s never completed", ex.id)
		}
		if got != ex.class {
			t.Fatalf("session %s classified %q, standalone session says %q", ex.id, got, ex.class)
		}
	}
	st := e.Stats()
	if st.Active != 0 {
		t.Fatalf("active sessions after Close: %d", st.Active)
	}
	if st.Completed != int64(producers*perProducer) {
		t.Fatalf("completed counter %d, want %d", st.Completed, producers*perProducer)
	}
}

// TestSwapDuringActiveClassification hammers Swap from one goroutine
// while others stream sessions: the race gate proves snapshot handoff is
// clean, and every session must still resolve to a valid class from one
// of the recognizers (both are trained on the same classes, so "U"/"D").
func TestSwapDuringActiveClassification(t *testing.T) {
	recA := trainRec(t, 7)
	recB := trainRec(t, 8)
	sink := newSink()
	e, err := New(recA, Options{Shards: 3, QueueDepth: 64, OnResult: sink.add})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		use := recB
		for {
			select {
			case <-stop:
				return
			default:
			}
			if old := e.Swap(use); old == nil {
				t.Error("Swap returned nil previous recognizer")
				return
			}
			use = e.Swap(use).(*eager.Recognizer) // swap back and forth
			runtime.Gosched()
		}
	}()

	const n = 20
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			g, _ := sampleGesture(int64(500+k), k%2)
			playSession(t, e, fmt.Sprintf("swap-%d", k), g)
		}(k)
	}
	wg.Wait()
	close(stop)
	swapper.Wait()
	if e.Swap(nil) != nil {
		t.Fatal("Swap(nil) must refuse and return nil")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.len() != n {
		t.Fatalf("completed %d sessions, want %d", sink.len(), n)
	}
	for k := 0; k < n; k++ {
		class, _ := sink.get(fmt.Sprintf("swap-%d", k))
		if class != "U" && class != "D" && class != "" {
			t.Fatalf("session swap-%d got impossible class %q", k, class)
		}
	}
}

// TestBackpressureQueueFull wedges the single shard by blocking OnResult,
// fills the depth-1 queue, and asserts Submit reports ErrQueueFull
// (and counts it) instead of blocking or dropping.
func TestBackpressureQueueFull(t *testing.T) {
	rec := trainRec(t, 7)
	release := make(chan struct{})
	blocked := make(chan struct{})
	e, err := New(rec, Options{Shards: 1, QueueDepth: 1, OnResult: func(r Result) {
		if r.Session == "wedge" {
			close(blocked)
			<-release
		}
	}})
	if err != nil {
		t.Fatal(err)
	}

	g, _ := sampleGesture(900, 0)
	playSession(t, e, "wedge", g) // completing this session blocks the worker
	<-blocked

	// Worker is parked in OnResult. Queue capacity is 1: at most one more
	// event is accepted, then ErrQueueFull must surface.
	var sawFull bool
	for i := 0; i < 10; i++ {
		err := e.Submit(Event{Session: "next", Finger: 0, Kind: multipath.FingerDown, X: 1, Y: 1, T: float64(i)})
		if errors.Is(err, ErrQueueFull) {
			sawFull = true
			break
		}
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	if !sawFull {
		t.Fatal("queue never reported ErrQueueFull with a wedged worker")
	}
	if st := e.Stats(); st.Rejected == 0 {
		t.Fatalf("rejected counter not incremented: %+v", st)
	}
	close(release)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDrainsInFlight: sessions mid-gesture at Close are finished —
// classified on the prefix collected so far — and reported, and Submit
// afterwards returns ErrClosed.
func TestCloseDrainsInFlight(t *testing.T) {
	rec := trainRec(t, 7)
	sink := newSink()
	e, err := New(rec, Options{Shards: 2, QueueDepth: 32, OnResult: sink.add})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := sampleGesture(901, 0)
	for i := 0; i < len(g)-2; i++ { // down + moves, never up
		kind := multipath.FingerMove
		if i == 0 {
			kind = multipath.FingerDown
		}
		submitRetry(t, e, Event{Session: "inflight", Finger: 0, Kind: kind, X: g[i].X, Y: g[i].Y, T: g[i].T})
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := sink.get("inflight"); !ok {
		t.Fatal("in-flight session not drained at Close")
	}
	if o, _ := sink.outcome("inflight"); o != OutcomeDrained {
		t.Fatalf("drained session reported outcome %v, want %v", o, OutcomeDrained)
	}
	if err := e.Submit(Event{Session: "late", Kind: multipath.FingerDown}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	st := e.Stats()
	if st.Active != 0 || st.Completed != 1 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// TestStrayEventsIgnored: moves/ups for sessions the engine has never
// seen (or already retired) must not create state.
func TestStrayEventsIgnored(t *testing.T) {
	rec := trainRec(t, 7)
	e, err := New(rec, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	submitRetry(t, e, Event{Session: "ghost", Finger: 0, Kind: multipath.FingerMove, X: 1, Y: 1, T: 0})
	submitRetry(t, e, Event{Session: "ghost", Finger: 0, Kind: multipath.FingerUp, X: 1, Y: 1, T: 0.01})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Active != 0 || st.Completed != 0 {
		t.Fatalf("stray events created sessions: %+v", st)
	}
}

// TestOptionValidation: nil recognizer and negative options are refused.
func TestOptionValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil recognizer accepted")
	}
	rec := trainRec(t, 7)
	if _, err := New(rec, Options{Shards: -1}); err == nil {
		t.Error("negative Shards accepted")
	}
	if _, err := New(rec, Options{QueueDepth: -1}); err == nil {
		t.Error("negative QueueDepth accepted")
	}
	if _, err := New(rec, Options{IdleTimeout: -1}); err == nil {
		t.Error("negative IdleTimeout accepted")
	}
}

// TestCompletedOutcome: the healthy path reports OutcomeCompleted and
// its string form renders for logs.
func TestCompletedOutcome(t *testing.T) {
	rec := trainRec(t, 7)
	sink := newSink()
	e, err := New(rec, Options{Shards: 1, OnResult: sink.add})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := sampleGesture(905, 1)
	playSession(t, e, "healthy", g)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if o, ok := sink.outcome("healthy"); !ok || o != OutcomeCompleted {
		t.Fatalf("outcome = %v (present %v), want %v", o, ok, OutcomeCompleted)
	}
	want := map[Outcome]string{
		OutcomeCompleted: "completed",
		OutcomeDegraded:  "degraded",
		OutcomeDrained:   "drained",
		OutcomeReaped:    "reaped",
		OutcomePanicked:  "panicked",
		Outcome(42):      "outcome(42)",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), s)
		}
	}
}

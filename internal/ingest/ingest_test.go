package ingest

import (
	"bufio"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eager"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/wire"
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

// testClient is one wire connection with its encoder and response
// reader, so tests read as frame in / response out.
type testClient struct {
	t    *testing.T
	c    net.Conn
	enc  *wire.Encoder
	br   *bufio.Reader
	resp []wire.Nack
}

func dialServer(t *testing.T, s *Server) *testClient {
	t.Helper()
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &testClient{t: t, c: c, enc: wire.NewEncoder(), br: bufio.NewReader(c)}
}

// send writes one frame and reads its response.
func (tc *testClient) send(events ...wire.Event) wire.Response {
	tc.t.Helper()
	frame, err := tc.enc.AppendFrame(nil, events)
	if err != nil {
		tc.t.Fatal(err)
	}
	if _, err := tc.c.Write(frame); err != nil {
		tc.t.Fatal(err)
	}
	resp, err := wire.ReadResponse(tc.br, tc.resp[:0])
	if err != nil {
		tc.t.Fatalf("read response: %v", err)
	}
	tc.resp = resp.Nacks
	return resp
}

// gestureEvents converts one synthetic gesture into wire events.
func gestureEvents(seed int64, class int, session string) []wire.Event {
	gen := synth.NewGenerator(synth.DefaultParams(seed))
	g := gen.Sample(synth.UDClasses()[class]).G.Points
	events := make([]wire.Event, 0, len(g)+1)
	for i, p := range g {
		kind := wire.KindMove
		if i == 0 {
			kind = wire.KindDown
		}
		events = append(events, wire.Event{
			Session: session, Kind: kind, X: p.X, Y: p.Y, TMicros: wire.Micros(p.T),
		})
	}
	last := g[len(g)-1]
	return append(events, wire.Event{
		Session: session, Kind: wire.KindUp, X: last.X, Y: last.Y, TMicros: wire.Micros(last.T + 0.01),
	})
}

type sink struct {
	mu      sync.Mutex
	results []serve.Result
}

func (s *sink) add(r serve.Result) {
	s.mu.Lock()
	s.results = append(s.results, r)
	s.mu.Unlock()
}

func (s *sink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.results)
}

// startServer boots an engine + ingest server on loopback.
func startServer(t *testing.T, reg *obs.Registry, engOpts serve.Options, opts Options) (*serve.Engine, *Server) {
	t.Helper()
	e, err := serve.New(trainRec(t, 7), engOpts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts.Obs = reg
	s := Serve(ln, e, opts)
	t.Cleanup(func() {
		s.Close()
		e.Close()
	})
	return e, s
}

// TestEndToEndGesture: a full gesture over a real socket is accepted
// frame by frame, completes in the engine, and the wire.* counters
// balance.
func TestEndToEndGesture(t *testing.T) {
	reg := obs.New()
	snk := &sink{}
	_, s := startServer(t, reg, serve.Options{Shards: 2, OnResult: snk.add, Obs: reg}, Options{})
	tc := dialServer(t, s)

	events := gestureEvents(7, 0, "e2e")
	total := 0
	for len(events) > 0 {
		n := 8
		if n > len(events) {
			n = len(events)
		}
		resp := tc.send(events[:n]...)
		if resp.Fatal || len(resp.Nacks) != 0 {
			t.Fatalf("frame response = %+v, want clean ACK", resp)
		}
		total += n
		events = events[n:]
	}
	deadline := time.Now().Add(5 * time.Second)
	for snk.len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no result within deadline")
		}
		time.Sleep(time.Millisecond)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"wire.events.decoded":     int64(total),
		"wire.frames.rejected":    0,
		"wire.nacks.bad_event":    0,
		"wire.connections.opened": 1,
	} {
		if got := snapCounter(t, snap, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snapCounter(t, snap, "wire.frames.decoded"); got < 2 {
		t.Errorf("wire.frames.decoded = %d, want >= 2", got)
	}
}

func snapCounter(t *testing.T, snap obs.Snapshot, name string) int64 {
	t.Helper()
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %s not in snapshot", name)
	return 0
}

// TestBadEventNacksWithIndex: an event failing Submit validation NACKs
// with NackBadEvent and the event's index; the rest of the frame is
// still accepted.
func TestBadEventNacksWithIndex(t *testing.T) {
	reg := obs.New()
	_, s := startServer(t, reg, serve.Options{Shards: 1}, Options{})
	tc := dialServer(t, s)

	resp := tc.send(
		wire.Event{Session: "ok", Kind: wire.KindDown, X: 1, Y: 1, TMicros: 1000},
		wire.Event{Session: "bad", Kind: wire.KindDown, X: math.NaN(), Y: 1, TMicros: 2000},
		wire.Event{Session: "ok", Kind: wire.KindMove, X: 2, Y: 2, TMicros: 3000},
	)
	if resp.Fatal {
		t.Fatalf("response = %+v, want ACK", resp)
	}
	if len(resp.Nacks) != 1 || resp.Nacks[0] != (wire.Nack{Index: 1, Code: wire.NackBadEvent}) {
		t.Fatalf("nacks = %+v, want [{1 bad_event}]", resp.Nacks)
	}
	// The connection survives a per-event NACK.
	if resp := tc.send(wire.Event{Session: "ok", Kind: wire.KindUp, X: 2, Y: 2, TMicros: 4000}); resp.Fatal || len(resp.Nacks) != 0 {
		t.Fatalf("follow-up = %+v, want clean ACK", resp)
	}
	if got := snapCounter(t, reg.Snapshot(), "wire.nacks.bad_event"); got != 1 {
		t.Errorf("wire.nacks.bad_event = %d, want 1", got)
	}
}

// TestFullQueueWaitsInsteadOfNacking: against a wedged engine the
// server waits for queue space instead of refusing: the frame's ACK is
// held until the consumer drains, then arrives clean, and no NACK of
// any code is counted.
func TestFullQueueWaitsInsteadOfNacking(t *testing.T) {
	reg := obs.New()
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	e, s := startServer(t, reg, serve.Options{
		Shards:     1,
		QueueDepth: 1,
		OnResult: func(serve.Result) {
			once.Do(func() { close(entered) })
			<-release
		},
	}, Options{})

	// Wedge the single shard (complete session blocks in OnResult), then
	// fill its one queue slot. SubmitWait, not Submit, so the setup's own
	// bounces off the depth-1 queue are not counted as Rejected.
	wedge := func(ev serve.Event) {
		if err := e.SubmitWait(ev); err != nil {
			t.Fatalf("wedge submit: %v", err)
		}
	}
	wedge(serve.Event{Session: "wedge", Kind: 0, X: 1, Y: 1, T: 0})
	wedge(serve.Event{Session: "wedge", Kind: 2, X: 1, Y: 1, T: 0.01})
	<-entered
	wedge(serve.Event{Session: "filler", Kind: 0, X: 1, Y: 1, T: 0})

	tc := dialServer(t, s)
	frame, err := tc.enc.AppendFrame(nil, []wire.Event{{Session: "patient", Kind: wire.KindDown, X: 1, Y: 1, TMicros: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.c.Write(frame); err != nil {
		t.Fatal(err)
	}
	type reply struct {
		resp wire.Response
		err  error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := wire.ReadResponse(tc.br, nil)
		replies <- reply{resp, err}
	}()
	select {
	case r := <-replies:
		t.Fatalf("response %+v (err %v) before the wedged shard drained, want the frame held", r.resp, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if r := <-replies; r.err != nil || r.resp.Fatal || len(r.resp.Nacks) != 0 {
		t.Fatalf("response = %+v (err %v), want a clean ACK", r.resp, r.err)
	}
	for _, c := range reg.Snapshot().Counters {
		if strings.HasPrefix(c.Name, "wire.nacks.") && c.Value != 0 {
			t.Errorf("%s = %d, want 0", c.Name, c.Value)
		}
	}
	if got := e.Stats().Rejected; got != 0 {
		t.Errorf("Stats.Rejected = %d, want 0", got)
	}
}

// TestCorruptFrameIsFatal: an undecodable frame draws a fatal response
// with the right code and the server closes the connection.
func TestCorruptFrameIsFatal(t *testing.T) {
	reg := obs.New()
	_, s := startServer(t, reg, serve.Options{Shards: 1}, Options{})
	tc := dialServer(t, s)

	frame, err := tc.enc.AppendFrame(nil, []wire.Event{{Session: "x", Kind: wire.KindDown, X: 1, Y: 1, TMicros: 1}})
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] ^= 0xFF // break the CRC
	if _, err := tc.c.Write(frame); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadResponse(tc.br, nil)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	if !resp.Fatal || resp.Code != wire.FatalCorrupt {
		t.Fatalf("response = %+v, want fatal corrupt", resp)
	}
	// The server hangs up after a fatal response.
	tc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := tc.br.ReadByte(); err == nil {
		t.Fatal("connection still open after fatal response")
	}
	if got := snapCounter(t, reg.Snapshot(), "wire.frames.rejected"); got != 1 {
		t.Errorf("wire.frames.rejected = %d, want 1", got)
	}
}

// TestClosedEngineNacksClosed: submitting into a closed engine NACKs
// every event with NackClosed and tears the connection down.
func TestClosedEngineNacksClosed(t *testing.T) {
	reg := obs.New()
	e, s := startServer(t, reg, serve.Options{Shards: 1}, Options{})
	tc := dialServer(t, s)

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	resp := tc.send(
		wire.Event{Session: "a", Kind: wire.KindDown, X: 1, Y: 1, TMicros: 1},
		wire.Event{Session: "b", Kind: wire.KindDown, X: 1, Y: 1, TMicros: 2},
	)
	if resp.Fatal || len(resp.Nacks) != 2 {
		t.Fatalf("response = %+v, want two NACKs", resp)
	}
	for i, n := range resp.Nacks {
		if n.Code != wire.NackClosed || n.Index != uint32(i) {
			t.Fatalf("nack %d = %+v, want {%d closed}", i, n, i)
		}
	}
	tc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := tc.br.ReadByte(); err == nil {
		t.Fatal("connection still open after closed-engine NACK")
	}
	if got := snapCounter(t, reg.Snapshot(), "wire.nacks.closed"); got != 2 {
		t.Errorf("wire.nacks.closed = %d, want 2", got)
	}
}

// TestServerCloseDrains: Close with live connections returns cleanly
// and the connection counters balance.
func TestServerCloseDrains(t *testing.T) {
	reg := obs.New()
	_, s := startServer(t, reg, serve.Options{Shards: 1}, Options{})
	tc := dialServer(t, s)
	if resp := tc.send(wire.Event{Session: "d", Kind: wire.KindDown, X: 1, Y: 1, TMicros: 1}); resp.Fatal {
		t.Fatalf("response = %+v", resp)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	opened := snapCounter(t, snap, "wire.connections.opened")
	closed := snapCounter(t, snap, "wire.connections.closed")
	if opened != 1 || closed != 1 {
		t.Errorf("connections opened/closed = %d/%d, want 1/1", opened, closed)
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitBatchZeroAlloc is the ingest half of the per-event
// allocation gate: submitting a warm batch of accepted events must not
// allocate per event (ISSUE 7 acceptance; see DESIGN.md §6).
func TestSubmitBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the contract is asserted by the non-race pass")
	}
	e, err := serve.New(trainRec(t, 7), serve.Options{Shards: 1, QueueDepth: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := &Server{eng: e}

	// Alternating move events for two warm sessions: no session opens or
	// completes during the measured runs, so the engine side stays on its
	// pooled path. Drain between runs via Flush... but Flush inside the
	// measured loop would allocate; instead size the queue to hold every
	// measured event and drain afterwards.
	for _, id := range []string{"za", "zb"} {
		if err := e.Submit(serve.Event{Session: id, Kind: 0, X: 0, Y: 0, T: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	events := make([]serve.Event, 8)
	nacks := make([]wire.Nack, 0, 8)
	tick := 0.001
	allocs := testing.AllocsPerRun(100, func() {
		for i := range events {
			id := "za"
			if i%2 == 1 {
				id = "zb"
			}
			events[i] = serve.Event{Session: id, Kind: 1, X: 1, Y: 1, T: tick}
			tick += 0.001
		}
		var closing bool
		nacks, closing = s.submitBatch(events, nacks[:0])
		if closing || len(nacks) != 0 {
			t.Fatalf("submitBatch refused events: %v", nacks)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm submitBatch allocated %.2f times per batch; the //glint:hotpath contract requires 0", allocs)
	}
}

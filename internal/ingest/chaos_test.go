package ingest

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/netfault"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/wire"
)

// TestIngestIdleTimeout is the slow-loris regression test: a silent
// connection is torn down by the idle watchdog on a virtual-clock
// timeline — FatalTimeout response, then close — while an active
// connection on the same server is untouched. Before the watchdog
// existed, the silent client pinned its serving goroutine forever.
func TestIngestIdleTimeout(t *testing.T) {
	reg := obs.New()
	clk := obs.NewManualClock(time.Unix(1_700_000_000, 0))
	_, s := startServer(t, reg, serve.Options{Shards: 1}, Options{
		IdleTimeout:   time.Second,
		SweepInterval: -1, // no background sweeper: the test drives SweepIdle
		Clock:         clk,
	})
	active := dialServer(t, s)
	if resp := active.send(wire.Event{Session: "live", Kind: wire.KindDown, X: 1, Y: 1, TMicros: 1}); resp.Fatal {
		t.Fatalf("active conn response = %+v", resp)
	}
	idle := dialServer(t, s)
	if resp := idle.send(wire.Event{Session: "idle", Kind: wire.KindDown, X: 1, Y: 1, TMicros: 1}); resp.Fatal {
		t.Fatalf("idle conn response = %+v", resp)
	}

	// Not idle long enough: nothing happens.
	clk.Advance(500 * time.Millisecond)
	if n := s.SweepIdle(); n != 0 {
		t.Fatalf("SweepIdle before the deadline closed %d conns, want 0", n)
	}

	// Cross the deadline, but keep one connection active.
	clk.Advance(600 * time.Millisecond)
	if resp := active.send(wire.Event{Session: "live", Kind: wire.KindMove, X: 2, Y: 2, TMicros: 2000}); resp.Fatal {
		t.Fatalf("active conn response = %+v", resp)
	}
	if n := s.SweepIdle(); n != 1 {
		t.Fatalf("SweepIdle closed %d conns, want 1", n)
	}
	// A second sweep must not double-close or double-count.
	if n := s.SweepIdle(); n != 0 {
		t.Fatalf("second SweepIdle closed %d conns, want 0", n)
	}

	// The silent client sees the typed fatal, then EOF.
	idle.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := wire.ReadResponse(idle.br, nil)
	if err != nil {
		t.Fatalf("idle conn read: %v", err)
	}
	if !resp.Fatal || resp.Code != wire.FatalTimeout {
		t.Fatalf("idle conn response = %+v, want fatal timeout", resp)
	}
	if _, err := idle.br.ReadByte(); err == nil {
		t.Fatal("idle connection still open after FatalTimeout")
	}

	// The active connection is untouched.
	if resp := active.send(wire.Event{Session: "live", Kind: wire.KindMove, X: 3, Y: 3, TMicros: 3000}); resp.Fatal {
		t.Fatalf("active conn after sweep = %+v", resp)
	}

	// The teardown is accounted as an idle close, not a frame error.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := reg.Snapshot()
		if snapCounter(t, snap, "wire.connections.closed") == 1 {
			if got := snapCounter(t, snap, "wire.connections.idle_closed"); got != 1 {
				t.Fatalf("wire.connections.idle_closed = %d, want 1", got)
			}
			if got := snapCounter(t, snap, "wire.frames.rejected"); got != 0 {
				t.Fatalf("wire.frames.rejected = %d, want 0 — watchdog teardown is not a peer frame error", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle connection's goroutine never exited")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIngestMaxConns: accepts over the cap draw FatalOverloaded and are
// counted rejected, never served; capacity freed by a disconnect is
// reusable.
func TestIngestMaxConns(t *testing.T) {
	reg := obs.New()
	_, s := startServer(t, reg, serve.Options{Shards: 1}, Options{MaxConns: 1})
	tc := dialServer(t, s)
	if resp := tc.send(wire.Event{Session: "one", Kind: wire.KindDown, X: 1, Y: 1, TMicros: 1}); resp.Fatal {
		t.Fatalf("first conn response = %+v", resp)
	}

	over, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	over.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := wire.ReadResponse(bufio.NewReader(over), nil)
	if err != nil {
		t.Fatalf("over-cap conn read: %v", err)
	}
	if !resp.Fatal || resp.Code != wire.FatalOverloaded {
		t.Fatalf("over-cap response = %+v, want fatal overloaded", resp)
	}
	snap := reg.Snapshot()
	if got := snapCounter(t, snap, "wire.connections.rejected"); got != 1 {
		t.Fatalf("wire.connections.rejected = %d, want 1", got)
	}
	if got := snapCounter(t, snap, "wire.connections.opened"); got != 1 {
		t.Fatalf("wire.connections.opened = %d, want 1 — rejected conns must not count opened", got)
	}

	// Freeing the slot lets a new connection in.
	tc.c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		enc := wire.NewEncoder()
		frame, err := enc.AppendFrame(nil, []wire.Event{{Session: "two", Kind: wire.KindDown, X: 1, Y: 1, TMicros: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		r, err := wire.ReadResponse(bufio.NewReader(c), nil)
		c.Close()
		if err == nil && !r.Fatal {
			break // served: the slot was reclaimed
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: last response %+v err %v", r, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestIngressSkewClamp pins the wire v2 stamp edge cases end to end
// over a socket: a client clock running ahead, an unstamped frame, and
// a stamp older than process start must never produce a negative or
// absurd wire.e2e.ingress_ns / wire.e2e_ns observation.
func TestIngressSkewClamp(t *testing.T) {
	reg := obs.New()
	snk := &sink{}
	_, s := startServer(t, reg, serve.Options{Shards: 1, OnResult: snk.add, Obs: reg}, Options{})
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	enc := wire.NewEncoder()
	br := bufio.NewReader(c)

	send := func(stamp int64, events ...wire.Event) {
		t.Helper()
		frame, err := enc.AppendFrameAt(nil, events, stamp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
		resp, err := wire.ReadResponse(br, nil)
		if err != nil || resp.Fatal || len(resp.Nacks) != 0 {
			t.Fatalf("response = %+v err %v, want clean ACK", resp, err)
		}
	}

	// Client clock an hour ahead; then a stamp far older than process
	// start; then unstamped; then the FingerUp (ahead again) so the
	// session completes and the engine-side wire.e2e_ns observes too.
	ahead := time.Now().Add(time.Hour).UnixNano()
	send(ahead, wire.Event{Session: "skew", Kind: wire.KindDown, X: 1, Y: 1, TMicros: 1000})
	send(1, wire.Event{Session: "skew", Kind: wire.KindMove, X: 2, Y: 2, TMicros: 2000})
	send(0, wire.Event{Session: "skew", Kind: wire.KindMove, X: 3, Y: 3, TMicros: 3000})
	send(ahead, wire.Event{Session: "skew", Kind: wire.KindUp, X: 3, Y: 3, TMicros: 4000})

	deadline := time.Now().Add(5 * time.Second)
	for snk.len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no result within deadline")
		}
		time.Sleep(time.Millisecond)
	}

	snap := reg.Snapshot()
	check := func(name string, wantCount int64, exact bool) {
		t.Helper()
		for _, h := range snap.Histograms {
			if h.Name != name {
				continue
			}
			if exact && h.Count != wantCount {
				t.Errorf("%s count = %d, want %d", name, h.Count, wantCount)
			}
			if !exact && h.Count < wantCount {
				t.Errorf("%s count = %d, want >= %d", name, h.Count, wantCount)
			}
			if h.Count > 0 && h.Min < 0 {
				t.Errorf("%s min = %v, want >= 0 — e2e latency must never be negative", name, h.Min)
			}
			// Both skew directions clamp into [0, process uptime]; a
			// test run is far under a minute.
			if h.Max > float64(time.Minute) {
				t.Errorf("%s max = %v ns — skew clamp failed", name, h.Max)
			}
			return
		}
		t.Errorf("histogram %s not in snapshot", name)
	}
	// Ingress: 3 stamped frames observed, the unstamped one skipped.
	check("wire.e2e.ingress_ns", 3, true)
	// Engine e2e: every stamped event observes at dispatch (3 of 4).
	check("wire.e2e_ns", 3, true)
}

// TestChaosScriptedCorruptIsFatal pins the strongest corruption
// invariant deterministically: a scripted single-bit flip in a frame's
// writer-side bytes (outside the CRC-exempt stamp window) surfaces as a
// typed fatal decode response — never a mis-decode, never a crash — and
// the connection tears down.
func TestChaosScriptedCorruptIsFatal(t *testing.T) {
	reg := obs.New()
	_, s := startServer(t, reg, serve.Options{Shards: 1}, Options{})
	script := netfault.NewScript().Set("k", netfault.DirWrite, 1, netfault.KindCorrupt)
	script.Instrument(reg)

	raw, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := script.Conn(raw, "k")
	defer c.Close()
	enc := wire.NewEncoder()
	br := bufio.NewReader(c)

	frame, err := enc.AppendFrame(nil, []wire.Event{{Session: "a", Kind: wire.KindDown, X: 1, Y: 1, TMicros: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(frame); err != nil { // write op 0: clean
		t.Fatal(err)
	}
	if resp, err := wire.ReadResponse(br, nil); err != nil || resp.Fatal {
		t.Fatalf("clean frame response = %+v err %v", resp, err)
	}

	frame, err = enc.AppendFrame(nil, []wire.Event{{Session: "a", Kind: wire.KindMove, X: 2, Y: 2, TMicros: 2000}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(frame); err != nil { // write op 1: corrupted
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := wire.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("read response after corrupt frame: %v", err)
	}
	if !resp.Fatal {
		t.Fatalf("corrupted frame drew %+v — a flipped bit mis-decoded", resp)
	}
	switch resp.Code {
	case wire.FatalCorrupt, wire.FatalOversized, wire.FatalTruncated, wire.FatalVersion:
	default:
		t.Fatalf("corrupted frame drew fatal %v, want a decode-error code", resp.Code)
	}
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("connection still open after fatal response")
	}
	snap := reg.Snapshot()
	if got := snapCounter(t, snap, "wire.frames.rejected"); got != 1 {
		t.Errorf("wire.frames.rejected = %d, want 1", got)
	}
	if got := snapCounter(t, snap, "netfault.injected.corrupt"); got != 1 {
		t.Errorf("netfault.injected.corrupt = %d, want 1", got)
	}
	if got := script.Counts()["corrupt"]; got != 1 {
		t.Errorf("script corrupt count = %d, want 1", got)
	}
}

// chaosSink counts terminal results per session.
type chaosSink struct {
	mu  sync.Mutex
	per map[string]int
}

func (s *chaosSink) add(r serve.Result) {
	s.mu.Lock()
	if s.per == nil {
		s.per = map[string]int{}
	}
	s.per[r.Session]++
	s.mu.Unlock()
}

func (s *chaosSink) snapshot() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.per))
	for k, v := range s.per {
		out[k] = v
	}
	return out
}

// chaosClient streams sessions at the server through a fault-injecting
// dialer with at-most-once frame delivery: any error drops the in-flight
// frame (its events are lost, the engine's reaper owns the half
// session) and reconnects with a fresh encoder. Returns the fatal codes
// seen and how many events were lost.
func chaosClient(t *testing.T, addr string, sched *netfault.Schedule, sessions []string, seed int64) (fatals map[wire.FatalCode]int, lost int) {
	t.Helper()
	fatals = map[wire.FatalCode]int{}
	for si, session := range sessions {
		events := gestureEvents(seed+int64(si), si%len(synth.UDClasses()), session)
		pos, attempt := 0, 0
		var c net.Conn
		var enc *wire.Encoder
		var br *bufio.Reader
		redial := func() bool {
			if c != nil {
				c.Close()
			}
			if attempt++; attempt > 8 {
				return false
			}
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				return false
			}
			c = sched.Conn(raw, fmt.Sprintf("%s-a%d", session, attempt))
			enc = wire.NewEncoder()
			br = bufio.NewReader(c)
			return true
		}
		if !redial() {
			lost += len(events)
			continue
		}
		for pos < len(events) {
			n := 7
			if n > len(events)-pos {
				n = len(events) - pos
			}
			frame, err := enc.AppendFrame(nil, events[pos:pos+n])
			if err != nil {
				t.Fatal(err)
			}
			pos += n // at-most-once: the frame is spent whatever happens next
			if _, err := c.Write(frame); err != nil {
				lost += n
				if !redial() {
					lost += len(events) - pos
					break
				}
				continue
			}
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			resp, err := wire.ReadResponse(br, nil)
			if err != nil {
				lost += n
				if !redial() {
					lost += len(events) - pos
					break
				}
				continue
			}
			if resp.Fatal {
				fatals[resp.Code]++
				lost += n
				if !redial() {
					lost += len(events) - pos
					break
				}
				continue
			}
		}
		if c != nil {
			c.Close()
		}
	}
	return fatals, lost
}

// TestChaosBenignFaultsMatchBaseline: faults that only reshape the byte
// stream (split writes, short reads, jitter) must be invisible to the
// protocol — every session classifies identically to an unfaulted
// reference run.
func TestChaosBenignFaultsMatchBaseline(t *testing.T) {
	run := func(wrap func(net.Conn, int) net.Conn) map[string]string {
		t.Helper()
		snk := &sink{}
		e, err := serve.New(trainRec(t, 7), serve.Options{Shards: 1, OnResult: snk.add})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s := Serve(ln, e, Options{})
		defer e.Close()
		defer s.Close()
		const sessions = 6
		for i := 0; i < sessions; i++ {
			raw, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			c := wrap(raw, i)
			enc := wire.NewEncoder()
			br := bufio.NewReader(c)
			events := gestureEvents(int64(i+1), i%len(synth.UDClasses()), fmt.Sprintf("b%d", i))
			for pos := 0; pos < len(events); {
				n := 7
				if n > len(events)-pos {
					n = len(events) - pos
				}
				frame, err := enc.AppendFrame(nil, events[pos:pos+n])
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.Write(frame); err != nil {
					t.Fatalf("write under benign faults: %v", err)
				}
				c.SetReadDeadline(time.Now().Add(5 * time.Second))
				resp, err := wire.ReadResponse(br, nil)
				if err != nil || resp.Fatal || len(resp.Nacks) != 0 {
					t.Fatalf("response under benign faults = %+v err %v", resp, err)
				}
				pos += n
			}
			c.Close()
		}
		deadline := time.Now().Add(10 * time.Second)
		for snk.len() < sessions {
			if time.Now().After(deadline) {
				t.Fatalf("only %d/%d results", snk.len(), sessions)
			}
			time.Sleep(time.Millisecond)
		}
		classes := map[string]string{}
		snk.mu.Lock()
		for _, r := range snk.results {
			classes[r.Session] = r.Class
		}
		snk.mu.Unlock()
		return classes
	}

	baseline := run(func(c net.Conn, _ int) net.Conn { return c })

	sched, err := netfault.NewSchedule(netfault.Plan{
		Seed:       42,
		WriteRates: map[netfault.Kind]float64{netfault.KindSplit: 0.5, netfault.KindJitter: 0.3},
		ReadRates:  map[netfault.Kind]float64{netfault.KindShortRead: 0.4, netfault.KindJitter: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	sched.SetSleep(func(time.Duration) {}) // jitter decided, not slept
	faulted := run(func(c net.Conn, i int) net.Conn {
		return sched.Conn(c, fmt.Sprintf("b%d", i))
	})

	if len(faulted) != len(baseline) {
		t.Fatalf("faulted run produced %d sessions, baseline %d", len(faulted), len(baseline))
	}
	for sess, class := range baseline {
		if faulted[sess] != class {
			t.Errorf("session %s: faulted class %q != baseline %q", sess, faulted[sess], class)
		}
	}
	counts := sched.Counts()
	for _, kind := range []string{"split", "short_read", "jitter"} {
		if counts[kind] == 0 {
			t.Errorf("benign schedule never drew %s (counts %v)", kind, counts)
		}
	}
}

// TestChaosHostileMixOverSockets is the chaos harness acceptance test:
// seeded hostile fault schedules (corruption, truncation mid-frame,
// resets, short reads, jitter) against a real server over real sockets,
// asserting the system-level invariants — no goroutine leaks, at most
// one terminal Result per session with session accounting balanced,
// every fatal teardown carries a typed decode error, every enabled
// fault kind visible in the netfault.* counters, and queue accounting
// exact (every submitted event's queue wait observed).
func TestChaosHostileMixOverSockets(t *testing.T) {
	base := runtime.NumGoroutine()
	aggregate := map[string]uint64{}

	for _, seed := range []int64{1, 7, 1001} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			reg := obs.New()
			snk := &chaosSink{}
			e, err := serve.New(trainRec(t, 7), serve.Options{
				Shards:       2,
				OnResult:     snk.add,
				Obs:          reg,
				IdleTimeout:  100 * time.Millisecond,
				ReapInterval: 10 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			s := Serve(ln, e, Options{
				Obs:          reg,
				IdleTimeout:  2 * time.Second,
				WriteTimeout: 2 * time.Second,
			})

			sched, err := netfault.NewSchedule(netfault.Plan{
				Seed: seed,
				WriteRates: map[netfault.Kind]float64{
					netfault.KindSplit:    0.15,
					netfault.KindCorrupt:  0.08,
					netfault.KindTruncate: 0.08,
					netfault.KindJitter:   0.10,
					netfault.KindReset:    0.05,
				},
				ReadRates: map[netfault.Kind]float64{
					netfault.KindShortRead: 0.15,
					netfault.KindJitter:    0.10,
					netfault.KindReset:     0.05,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			sched.SetSleep(func(time.Duration) {})
			sched.Instrument(reg)

			sessions := make([]string, 10)
			for i := range sessions {
				sessions[i] = fmt.Sprintf("s%d-%d", seed, i)
			}
			fatals, _ := chaosClient(t, s.Addr().String(), sched, sessions, seed)

			// Every fatal teardown carried a typed decode error — a
			// flipped bit or torn frame never mis-decodes.
			for code := range fatals {
				switch code {
				case wire.FatalCorrupt, wire.FatalOversized, wire.FatalTruncated, wire.FatalVersion:
				default:
					t.Errorf("unexpected fatal code %v under hostile mix", code)
				}
			}

			// Settle: the reaper owns half-delivered sessions; wait until
			// every opened session has completed and every completion
			// reached the sink.
			deadline := time.Now().Add(10 * time.Second)
			for {
				snap := reg.Snapshot()
				opened := snapCounter(t, snap, "serve.sessions.opened")
				completed := snapCounter(t, snap, "serve.sessions.completed")
				snkTotal := 0
				for _, n := range snk.snapshot() {
					snkTotal += n
				}
				if opened == completed && int64(snkTotal) == completed {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("sessions never settled: opened %d completed %d sink %d", opened, completed, snkTotal)
				}
				time.Sleep(5 * time.Millisecond)
			}

			// Exactly one terminal Result per session: at-most-once frame
			// delivery means no session can complete twice.
			for sess, n := range snk.snapshot() {
				if n != 1 {
					t.Errorf("session %s produced %d terminal results, want 1", sess, n)
				}
			}

			// Queue accounting balanced: every accepted event's queue
			// wait was observed.
			snap := reg.Snapshot()
			submitted := snapCounter(t, snap, "serve.events.submitted")
			for _, h := range snap.Histograms {
				if h.Name == "serve.queue.wait_ns" {
					if h.Count != submitted {
						t.Errorf("queue accounting: wait_ns count %d != submitted %d", h.Count, submitted)
					}
				}
			}

			// Every injection the schedule decided is visible in the
			// netfault.* counters.
			counts := sched.Counts()
			var want int64
			for kind, n := range counts {
				aggregate[kind] += n
				want += int64(n)
				if got := snapCounter(t, snap, "netfault.injected."+kind); got != int64(n) {
					t.Errorf("netfault.injected.%s = %d, want %d", kind, got, n)
				}
			}
			if got := snapCounter(t, snap, "netfault.injected.total"); got != want {
				t.Errorf("netfault.injected.total = %d, want %d", got, want)
			}

			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}

	// Across the seeds, every enabled fault kind fired at least once.
	for _, kind := range []string{"split", "corrupt", "truncate", "jitter", "reset", "short_read"} {
		if aggregate[kind] == 0 {
			t.Errorf("hostile mix never drew %s across seeds (aggregate %v)", kind, aggregate)
		}
	}

	// No goroutine leaks once every server and engine is down.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d at start, %d after chaos", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

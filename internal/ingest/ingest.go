// Package ingest is the networked front end of the serving engine: a
// net.Listener-based server speaking the internal/wire frame protocol,
// feeding decoded events into serve.Engine.SubmitWait, and answering
// every frame with the typed ACK/NACK responses wire defines.
//
// One goroutine serves each connection: frames decode through a
// per-connection wire.Decoder (which owns the connection's session
// intern table and timestamp delta chain), every event submits through
// SubmitWait, and refusals map to per-event NACK codes —
// serve.ErrBadEvent to NackBadEvent, serve.ErrOverloaded to
// NackOverload, serve.ErrClosed to NackClosed followed by connection
// teardown. A full shard queue is waited out, never NACKed, so this
// server never sends NackQueueFull or NackShed. An undecodable frame
// is answered with the matching fatal code (FatalCorrupt,
// FatalOversized, FatalTruncated, FatalVersion for a peer speaking
// another wire format version) and the connection closes: the
// decoder's interning state can no longer be trusted.
//
// Each frame header carries the client-send stamp (wire format v2); the
// server observes receive−send into wire.e2e.ingress_ns — the queue/
// transit leg of end-to-end latency — and threads the stamp onto every
// decoded serve.Event so the engine can attribute the full
// send-to-decision span (wire.e2e_ns).
//
// Backpressure is per connection by construction: a connection waiting
// in SubmitWait for queue space stops reading its socket, so TCP flow
// control pushes back on that producer alone; other connections keep
// their own pace. Server.Close stops the accept loop, closes every
// connection, and waits for the per-connection goroutines — in-flight
// frames finish submitting before their goroutine exits.
//
// The server defends itself against hostile and broken peers. An idle
// watchdog (Options.IdleTimeout) tears down connections that stop
// delivering frames — a FatalTimeout response, then close — so a
// slow-loris client can never pin a goroutine until process exit.
// Options.MaxConns caps concurrently served connections; accepts over
// the cap are answered FatalOverloaded and closed without ever being
// served. Options.WriteTimeout deadline-bounds every response write so
// a non-draining client cannot wedge a flush. When the engine runs an
// admission controller (serve.Options.Admit), events it sheds map to
// NackOverload and the frame's ACK carries the controller's retry-after
// pacing hint.
//
// When Options.Obs is set the server registers the wire.* counters,
// histograms, and the "wire.spans" span buffer documented in
// OBSERVABILITY.md.
package ingest

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/multipath"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// Options configures a Server.
type Options struct {
	// Obs, when set, attaches the wire.* metrics and the "wire.spans"
	// span buffer (see OBSERVABILITY.md). Nil leaves the server
	// uninstrumented at no per-event cost.
	Obs *obs.Registry
	// IdleTimeout, when positive, arms the idle watchdog: a connection
	// that delivers no frame for at least this long (by Clock) is torn
	// down with a FatalTimeout response — the slow-loris defense, so a
	// silent client can never pin a goroutine until process exit. 0
	// disables idle teardown.
	IdleTimeout time.Duration
	// SweepInterval is the watchdog's sweep period: 0 means
	// IdleTimeout/4 (floored at 1ms), negative disables the background
	// sweeper — idleness is then only checked via explicit SweepIdle
	// calls, which is what deterministic virtual-clock tests want.
	// Ignored when IdleTimeout is 0.
	SweepInterval time.Duration
	// Clock is the idleness time source; nil means the wall clock.
	// Tests inject a virtual clock and drive SweepIdle directly.
	// Socket deadlines (WriteTimeout) always use real time — the
	// kernel's clock is not injectable.
	Clock obs.Clock
	// MaxConns, when positive, caps concurrently served connections:
	// an accept beyond the cap is answered with a FatalOverloaded
	// response and closed immediately (counted in
	// wire.connections.rejected), never served. 0 means unlimited.
	MaxConns int
	// WriteTimeout, when positive, bounds every response write via
	// SetWriteDeadline, so a client that stops draining its socket
	// cannot pin a goroutine in a response flush. 0 disables write
	// deadlines.
	WriteTimeout time.Duration
}

// metrics holds the server's obs handles; the zero value is the
// uninstrumented no-op state.
type metrics struct {
	connsOpened   *obs.Counter         // wire.connections.opened
	connsClosed   *obs.Counter         // wire.connections.closed
	framesOK      *obs.Counter         // wire.frames.decoded
	framesBad     *obs.Counter         // wire.frames.rejected
	events        *obs.Counter         // wire.events.decoded
	nackBad       *obs.Counter         // wire.nacks.bad_event
	nackClosed    *obs.Counter         // wire.nacks.closed
	nackOverload  *obs.Counter         // wire.nacks.overload
	idleClosed    *obs.Counter         // wire.connections.idle_closed
	connsRejected *obs.Counter         // wire.connections.rejected
	frameEvents   *obs.Histogram       // wire.frame.events
	frameDecodNS  *obs.Histogram       // wire.frame.decode_ns
	ingressNS     *obs.Histogram       // wire.e2e.ingress_ns
	eventsWin     *obs.WindowedCounter // window.wire.events.decoded
	nacksWin      *obs.WindowedCounter // window.wire.nacks
	spans         *obs.SpanBuffer      // wire.spans
}

func newMetrics(reg *obs.Registry) metrics {
	if reg == nil {
		return metrics{}
	}
	return metrics{
		connsOpened:   reg.Counter("wire.connections.opened"),
		connsClosed:   reg.Counter("wire.connections.closed"),
		framesOK:      reg.Counter("wire.frames.decoded"),
		framesBad:     reg.Counter("wire.frames.rejected"),
		events:        reg.Counter("wire.events.decoded"),
		nackBad:       reg.Counter("wire.nacks.bad_event"),
		nackClosed:    reg.Counter("wire.nacks.closed"),
		nackOverload:  reg.Counter("wire.nacks.overload"),
		idleClosed:    reg.Counter("wire.connections.idle_closed"),
		connsRejected: reg.Counter("wire.connections.rejected"),
		frameEvents:   reg.Histogram("wire.frame.events", obs.DepthBuckets()),
		frameDecodNS:  reg.Histogram("wire.frame.decode_ns", obs.LatencyBuckets()),
		ingressNS:     reg.Histogram("wire.e2e.ingress_ns", obs.LatencyBuckets()),
		eventsWin:     reg.WindowedCounter("window.wire.events.decoded", 0, 0),
		nacksWin:      reg.WindowedCounter("window.wire.nacks", 0, 0),
		spans:         reg.Spans("wire.spans", 0),
	}
}

// connState is the watchdog's view of one live connection: when it
// last delivered a frame (Clock nanoseconds) and whether the watchdog
// tore it down (so the serving goroutine can exit quietly instead of
// misreporting the forced close as a peer error).
type connState struct {
	lastActive atomic.Int64
	timedOut   atomic.Bool
}

// Server accepts wire-protocol connections and feeds their events into
// a serve.Engine. Create with Serve; stop with Close.
type Server struct {
	ln   net.Listener
	eng  *serve.Engine
	m    metrics
	opts Options

	clock   obs.Clock
	startNS int64

	mu     sync.Mutex
	conns  map[net.Conn]*connState
	closed bool

	stop chan struct{} // closed at Close to stop the background sweeper

	wg sync.WaitGroup
}

// Serve starts a server accepting on ln (which the server now owns)
// and submitting into e. It returns immediately; Close stops it.
func Serve(ln net.Listener, e *serve.Engine, opts Options) *Server {
	s := &Server{
		ln:      ln,
		eng:     e,
		m:       newMetrics(opts.Obs),
		opts:    opts,
		conns:   make(map[net.Conn]*connState),
		stop:    make(chan struct{}),
		startNS: time.Now().UnixNano(),
	}
	s.clock = opts.Clock
	if s.clock == nil {
		s.clock = obs.WallClock{}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	if opts.IdleTimeout > 0 && opts.SweepInterval >= 0 {
		interval := opts.SweepInterval
		if interval == 0 {
			interval = opts.IdleTimeout / 4
		}
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		s.wg.Add(1)
		go s.sweepLoop(interval)
	}
	return s
}

// Addr returns the listener's address — the port to dial when the
// listener was bound to ":0".
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, closes every live connection, and waits for
// the per-connection goroutines to finish submitting their in-flight
// frame. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	close(s.stop)
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// track registers a live connection; it reports nil when the server is
// already closing (drop the connection) or at its MaxConns cap (reject
// it with a typed fatal).
func (s *Server) track(c net.Conn) (*connState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	if s.opts.MaxConns > 0 && len(s.conns) >= s.opts.MaxConns {
		return nil, true
	}
	cs := &connState{}
	cs.lastActive.Store(s.clock.Now().UnixNano())
	s.conns[c] = cs
	return cs, true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		cs, open := s.track(c)
		if !open {
			c.Close()
			continue
		}
		if cs == nil {
			// At the MaxConns cap: refuse with a typed fatal so the
			// client backs off instead of seeing a silent hangup. The
			// write is deadline-bounded, so a non-draining client
			// cannot stall this goroutine.
			s.m.connsRejected.Inc()
			s.wg.Add(1)
			go s.rejectConn(c)
			continue
		}
		s.m.connsOpened.Inc()
		s.wg.Add(1)
		go s.serveConn(c, cs)
	}
}

// rejectConn answers one over-cap connection with FatalOverloaded and
// closes it.
func (s *Server) rejectConn(c net.Conn) {
	defer s.wg.Done()
	defer c.Close()
	deadline := s.opts.WriteTimeout
	if deadline <= 0 {
		deadline = time.Second
	}
	c.SetWriteDeadline(time.Now().Add(deadline))
	c.Write(wire.AppendFatal(nil, wire.FatalOverloaded))
}

// sweepLoop is the background idle watchdog: every interval it tears
// down connections that have been frameless for at least IdleTimeout.
func (s *Server) sweepLoop(interval time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.SweepIdle()
		}
	}
}

// SweepIdle tears down every connection that has not delivered a frame
// for at least Options.IdleTimeout (by Options.Clock): the watchdog
// best-effort writes a FatalTimeout response, closes the connection
// (unblocking its reader), and counts wire.connections.idle_closed.
// Returns how many connections it closed. With a virtual clock and
// SweepInterval < 0 this is the deterministic way to drive idle
// teardown: advance the clock, call SweepIdle. A no-op when
// IdleTimeout is 0.
func (s *Server) SweepIdle() int {
	if s.opts.IdleTimeout <= 0 {
		return 0
	}
	now := s.clock.Now().UnixNano()
	var idle []net.Conn
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0
	}
	for c, cs := range s.conns {
		if cs.timedOut.Load() {
			continue
		}
		if now-cs.lastActive.Load() >= int64(s.opts.IdleTimeout) {
			cs.timedOut.Store(true)
			idle = append(idle, c)
		}
	}
	s.mu.Unlock()
	for _, c := range idle {
		// Best effort: an idle connection has no response in flight,
		// so writing directly is safe; a client racing the deadline
		// with a fresh frame sees a torn connection either way.
		deadline := s.opts.WriteTimeout
		if deadline <= 0 {
			deadline = time.Second
		}
		c.SetWriteDeadline(time.Now().Add(deadline))
		c.Write(wire.AppendFatal(nil, wire.FatalTimeout))
		c.Close()
		s.m.idleClosed.Inc()
	}
	return len(idle)
}

// conn is one connection's decode/submit state, reused across frames so
// the steady-state path performs no per-event allocation.
type conn struct {
	dec    *wire.Decoder
	wire   []wire.Event
	events []serve.Event
	nacks  []wire.Nack
	resp   []byte
	frame  obs.Span // owned storage for each frame's "wire_frame" span
}

// serveConn runs one connection to completion: frames in, responses
// out, teardown on the first fatal condition or clean EOF. Every frame
// touches cs.lastActive so the idle watchdog sees the connection as
// live; when the watchdog tore the connection down (cs.timedOut), the
// resulting read error exits quietly — the forced close is already
// accounted as wire.connections.idle_closed, not a peer frame error.
func (s *Server) serveConn(c net.Conn, cs *connState) {
	defer s.wg.Done()
	defer s.untrack(c)
	defer s.m.connsClosed.Inc()
	defer c.Close()

	br := bufio.NewReaderSize(c, 32<<10)
	bw := bufio.NewWriterSize(c, 4<<10)
	fr := wire.NewFrameReader(br)
	st := &conn{
		dec:    wire.NewDecoder(),
		wire:   make([]wire.Event, 0, wire.MaxBatch),
		events: make([]serve.Event, 0, wire.MaxBatch),
		nacks:  make([]wire.Nack, 0, 16),
	}
	for {
		payload, err := fr.Next()
		if err != nil {
			if err != io.EOF && !cs.timedOut.Load() {
				s.m.framesBad.Inc()
				s.respondFatal(c, bw, fatalFor(err))
			}
			return
		}
		cs.lastActive.Store(s.clock.Now().UnixNano())
		closing, err := s.serveFrame(c, bw, st, payload, fr.SentNS())
		if err != nil || closing {
			return
		}
	}
}

// fatalFor maps a wire decode error to its fatal response code.
func fatalFor(err error) wire.FatalCode {
	switch {
	case errors.Is(err, wire.ErrOversized):
		return wire.FatalOversized
	case errors.Is(err, wire.ErrTruncated):
		return wire.FatalTruncated
	case errors.Is(err, wire.ErrVersion):
		return wire.FatalVersion
	}
	return wire.FatalCorrupt
}

// respondFatal best-effort writes a fatal response; the connection is
// closing either way.
func (s *Server) respondFatal(c net.Conn, bw *bufio.Writer, code wire.FatalCode) {
	s.armWriteDeadline(c)
	bw.Write(wire.AppendFatal(nil, code))
	bw.Flush()
}

// armWriteDeadline applies Options.WriteTimeout ahead of a response
// write, so a client that stops draining its socket cannot pin the
// serving goroutine in a flush. A no-op when WriteTimeout is 0.
func (s *Server) armWriteDeadline(c net.Conn) {
	if s.opts.WriteTimeout > 0 {
		c.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
	}
}

// serveFrame decodes one frame payload, submits its events, and writes
// the frame's response. sent is the frame header's client-send stamp
// (unix nanoseconds; 0 when unstamped) — receive−send feeds the
// wire.e2e.ingress_ns histogram with the frame's span as its exemplar,
// and the stamp rides every decoded event so the engine can observe the
// full send-to-decision latency. closing reports that the connection
// must tear down after the response (the engine or server is shutting
// down).
func (s *Server) serveFrame(c net.Conn, bw *bufio.Writer, st *conn, payload []byte, sent int64) (closing bool, err error) {
	sp := s.m.spans.StartIn(&st.frame, "wire_frame", time.Time{})
	if s.m.ingressNS != nil {
		if d, ok := wire.SentLatency(time.Now().UnixNano(), sent, s.startNS); ok {
			s.m.ingressNS.ObserveExemplar(float64(d), sp.ID(), 0)
		}
	}
	decStart := obs.Start(s.m.frameDecodNS)
	st.events = st.events[:0]
	events, decErr := s.decode(st, payload, sent)
	obs.ObserveSince(s.m.frameDecodNS, decStart)
	if decErr != nil {
		s.m.framesBad.Inc()
		sp.SetAttr("error", decErr.Error())
		sp.End()
		s.respondFatal(c, bw, fatalFor(decErr))
		return true, decErr
	}
	s.m.framesOK.Inc()
	s.m.events.Add(int64(len(events)))
	s.m.eventsWin.Add(int64(len(events)))
	s.m.frameEvents.Observe(float64(len(events)))
	st.nacks, closing = s.submitBatch(events, st.nacks[:0])
	sp.SetAttrInt("events", int64(len(events)))
	sp.SetAttrInt("nacks", int64(len(st.nacks)))
	sp.End()
	st.resp = wire.AppendAck(st.resp[:0], st.nacks, s.retryAfterMS(st.nacks))
	s.armWriteDeadline(c)
	if _, err := bw.Write(st.resp); err != nil {
		return true, err
	}
	if err := bw.Flush(); err != nil {
		return true, err
	}
	return closing, nil
}

// retryAfterMS picks the ACK's retry-after hint: the admission
// controller's current pacing when any event in the batch was shed for
// overload, 0 otherwise.
//
//glint:coldpath scans only when the batch produced NACKs
func (s *Server) retryAfterMS(nacks []wire.Nack) int64 {
	for i := range nacks {
		if nacks[i].Code == wire.NackOverload {
			return s.eng.Admission().RetryAfterMS()
		}
	}
	return 0
}

// decode turns one frame payload into serve events, converting the wire
// domain (integer-microsecond timestamps, wire.Kind) into the engine's
// (float seconds, multipath.EventKind) in place. The frame's client-send
// stamp rides every event for end-to-end latency attribution.
func (s *Server) decode(st *conn, payload []byte, sent int64) ([]serve.Event, error) {
	st.wire = st.wire[:0]
	w, err := st.dec.Decode(payload, st.wire)
	st.wire = w
	if err != nil {
		return nil, err
	}
	events := st.events[:0]
	for i := range w {
		events = append(events[:len(events)], serve.Event{
			Session: w[i].Session,
			Finger:  multipath.FingerID(w[i].Finger),
			Kind:    multipath.EventKind(w[i].Kind),
			X:       w[i].X,
			Y:       w[i].Y,
			T:       w[i].Seconds(),
			SentNS:  sent,
		})
	}
	st.events = events
	return events, nil
}

// submitBatch submits one decoded batch with SubmitWait, appending a
// NACK per refused event. closing reports the engine
// refused with ErrClosed — the remaining events NACK closed without
// being submitted, and the caller tears the connection down after
// responding.
//
// This is the per-event half of the ingest hot path: in steady state
// (accepted events, observability off) it must not allocate per event —
// the NACK buffer is reused across frames and grows only while refusals
// are occurring.
//
//glint:hotpath
func (s *Server) submitBatch(events []serve.Event, nacks []wire.Nack) ([]wire.Nack, bool) {
	closing := false
	for i := range events {
		if closing {
			nacks = append(nacks[:len(nacks)], wire.Nack{Index: uint32(i), Code: wire.NackClosed})
			s.countNack(wire.NackClosed)
			continue
		}
		err := s.eng.SubmitWait(events[i])
		if err == nil {
			continue
		}
		code := nackFor(err)
		if code == wire.NackClosed {
			closing = true
		}
		nacks = append(nacks[:len(nacks)], wire.Nack{Index: uint32(i), Code: code})
		s.countNack(code)
	}
	return nacks, closing
}

// nackFor maps a SubmitWait error to its NACK code.
//
//glint:coldpath runs once per refused event, not per accepted event
func nackFor(err error) wire.NackCode {
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		return wire.NackOverload
	case errors.Is(err, serve.ErrClosed):
		return wire.NackClosed
	}
	return wire.NackBadEvent
}

// countNack feeds the per-code wire.nacks.* counters.
//
//glint:coldpath runs once per refused event, not per accepted event
func (s *Server) countNack(code wire.NackCode) {
	s.m.nacksWin.Inc()
	switch code {
	case wire.NackBadEvent:
		s.m.nackBad.Inc()
	case wire.NackClosed:
		s.m.nackClosed.Inc()
	case wire.NackOverload:
		s.m.nackOverload.Inc()
	}
}

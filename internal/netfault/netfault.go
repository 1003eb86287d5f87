// Package netfault is the connection-level counterpart of
// internal/fault: a deterministic, seeded fault injector that wraps
// net.Conn / net.Listener and corrupts the byte stream itself — split
// writes, short reads, truncation mid-frame, bit corruption, stalls,
// latency jitter, and connection resets — so the wire ingest path
// (internal/wire + internal/ingest) can be chaos-tested over real
// sockets under -race against exact invariants.
//
// Determinism mirrors internal/fault, whose seeded-fate core (Fates)
// this package shares: the fate of the i-th I/O operation in a given
// direction on the connection labelled c is a pure FNV-1a function of
// (seed, direction, c, i) — never of timing or goroutine scheduling —
// so two runs with the same seed inject exactly the same faults. The
// operation index stands for a byte range: writes are frame-aligned in
// this stack, so the i-th write is the i-th frame.
//
// One driver type, as in internal/fault: a Schedule from NewSchedule
// draws fates from seeded per-kind rates (independent read- and
// write-side rate tables), and one from NewScript follows exact
// (label, direction, op index, kind) rules, for isolation tests and the
// obsdemo's deterministic segment. Every applied injection counts into
// one per-kind counter set, readable via Counts without a registry (so
// a load generator can report injections) and moved into the
// netfault.injected.* counters when Instrument attaches one (see
// OBSERVABILITY.md). All entry points are nil-safe: a nil *Schedule
// wraps nothing and decides KindNone.
//
// Detectability note: a bit flip anywhere in a wire frame is surfaced
// by the decoder as a typed error (ErrCorrupt / ErrOversized /
// ErrTruncated / ErrVersion) — except inside the 8-byte client-send
// stamp, the one header region the CRC deliberately excludes. Write-
// side corruption therefore avoids the stamp window (writes are
// frame-aligned, so the window's offset is known); read-side corruption
// flips arbitrary buffered bytes and may land in a stamp, which decodes
// as a skew-clamped bogus latency rather than a typed error. A harness
// that asserts "every corrupted frame dies with a fatal response" must
// inject corruption on the writer side.
package netfault

import (
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Kind enumerates the injectable connection faults.
type Kind int

// Connection fault kinds. Split applies only to writes, ShortRead only
// to reads; the rest apply to either direction.
const (
	// KindNone is the no-fault decision.
	KindNone Kind = iota
	// KindSplit delivers one write as two back-to-back underlying
	// writes, exercising reassembly across arbitrary TCP segmentation.
	KindSplit
	// KindShortRead truncates one read to a single byte, forcing the
	// reader to reassemble frames from fragmented deliveries.
	KindShortRead
	// KindCorrupt flips one bit of the operation's bytes. On a frame
	// write the flip avoids the CRC-exempt stamp window, so the peer's
	// decoder must fail with a typed error, never mis-decode.
	KindCorrupt
	// KindTruncate ends the stream mid-operation: a write delivers a
	// prefix then closes the connection; a read closes and reports EOF.
	KindTruncate
	// KindStall sleeps for the plan's StallFor before performing the
	// operation, simulating a hung peer or a congested path.
	KindStall
	// KindJitter sleeps a deterministic duration in [0, MaxDelay)
	// before the operation, simulating network latency variance.
	KindJitter
	// KindReset closes the connection and fails the operation,
	// simulating a peer reset (RST) mid-conversation.
	KindReset
)

// readKinds are the kinds a read operation can draw, in rate-table order.
var readKinds = []Kind{KindShortRead, KindCorrupt, KindTruncate, KindStall, KindJitter, KindReset}

// writeKinds are the kinds a write operation can draw, in rate-table order.
var writeKinds = []Kind{KindSplit, KindCorrupt, KindTruncate, KindStall, KindJitter, KindReset}

// String names the kind as it appears in the netfault.injected.*
// metric suffix ("split", "short_read", "corrupt", "truncate", "stall",
// "jitter", "reset"; KindNone is "none").
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindSplit:
		return "split"
	case KindShortRead:
		return "short_read"
	case KindCorrupt:
		return "corrupt"
	case KindTruncate:
		return "truncate"
	case KindStall:
		return "stall"
	case KindJitter:
		return "jitter"
	case KindReset:
		return "reset"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Dir selects the I/O direction of a fault decision.
type Dir byte

// Fault directions: the byte doubles as the hash domain separating the
// read and write decision streams.
const (
	// DirRead is the inbound direction (Conn.Read).
	DirRead Dir = 'r'
	// DirWrite is the outbound direction (Conn.Write).
	DirWrite Dir = 'w'
)

// ErrInjected tags every error a wrapped connection fabricates
// (truncation, reset), so a harness can tell injected failures from
// real ones with errors.Is.
var ErrInjected = fmt.Errorf("netfault: injected failure")

// Plan declares a seeded connection-fault mix: per-operation
// probabilities for each kind, split by direction.
type Plan struct {
	// Seed selects the deterministic decision stream. Two Schedules
	// built from equal Plans make identical decisions.
	Seed int64
	// ReadRates maps read-side kinds (ShortRead, Corrupt, Truncate,
	// Stall, Jitter, Reset) to per-read probabilities in [0, 1],
	// summing to at most 1.
	ReadRates map[Kind]float64
	// WriteRates maps write-side kinds (Split, Corrupt, Truncate,
	// Stall, Jitter, Reset) to per-write probabilities in [0, 1],
	// summing to at most 1.
	WriteRates map[Kind]float64
	// StallFor is the KindStall sleep; 0 defaults to 20ms.
	StallFor time.Duration
	// MaxDelay caps the KindJitter sleep; 0 defaults to 2ms.
	MaxDelay time.Duration
}

// Schedule is the connection-fault driver: the fate of operation i in
// direction d on the connection labelled c comes either from seeded
// rates (NewSchedule), as a pure function of (seed, d, c, i), or from
// exact rules (NewScript). Configure before wrapping connections; it is
// then safe for concurrent use. Nil-safe: a nil *Schedule never wraps
// and never injects.
type Schedule struct {
	f       fault.Fates[Kind]
	stall   time.Duration // the KindStall sleep
	delay   time.Duration // the KindJitter sleep cap
	sleep   func(time.Duration)
	accepts atomic.Int64
}

func newSchedule(seed int64, stall, delay time.Duration) *Schedule {
	if stall == 0 {
		stall = 20 * time.Millisecond
	}
	if delay == 0 {
		delay = 2 * time.Millisecond
	}
	return &Schedule{
		f: fault.NewFates(seed,
			fault.Domain[Kind]{ID: byte(DirRead), Kinds: readKinds},
			fault.Domain[Kind]{ID: byte(DirWrite), Kinds: writeKinds}),
		stall: stall,
		delay: delay,
		sleep: time.Sleep,
	}
}

// NewSchedule validates a Plan and builds its Schedule. Rates outside
// [0, 1], kinds outside their direction's table, negative durations,
// or a direction summing past 1 are errors.
func NewSchedule(p Plan) (*Schedule, error) {
	if p.StallFor < 0 || p.MaxDelay < 0 {
		return nil, fmt.Errorf("netfault: negative duration (stall %v, delay %v)", p.StallFor, p.MaxDelay)
	}
	s := newSchedule(p.Seed, p.StallFor, p.MaxDelay)
	if err := s.f.Rate("netfault read", p.ReadRates, byte(DirRead)); err != nil {
		return nil, err
	}
	if err := s.f.Rate("netfault write", p.WriteRates, byte(DirWrite)); err != nil {
		return nil, err
	}
	return s, nil
}

// NewScript returns a Schedule whose fates come from exact rules
// instead of rates, for workloads that need exactly one fault in
// exactly one place (the obsdemo segment, the isolation tests). It
// injects nothing until Set.
func NewScript() *Schedule { return newSchedule(0, 0, 0) }

// Set schedules kind at the label's 0-based operation index in
// direction d and returns the schedule for chaining. Kinds inapplicable
// to the direction (Split on a read, ShortRead on a write) are applied
// as no-fault. The first rule makes the schedule scripted: its rates no
// longer apply. Not safe concurrently with I/O — finish scripting
// first.
func (s *Schedule) Set(label string, d Dir, index int, k Kind) *Schedule {
	s.f.Set(byte(d), label, index, k)
	return s
}

// Instrument attaches the netfault.injected.* counters (one per kind
// plus a total; see OBSERVABILITY.md) to the registry. Call before
// wrapping connections; a nil registry (or receiver) is a no-op.
func (s *Schedule) Instrument(reg *obs.Registry) {
	if s == nil {
		return
	}
	s.f.Instrument(reg, "netfault.injected.")
}

// SetSleep replaces the real time.Sleep behind KindStall and KindJitter
// (virtual time in tests). Call before wrapping connections; not safe
// concurrently with I/O. Nil-safe; a nil fn restores time.Sleep.
func (s *Schedule) SetSleep(fn func(time.Duration)) {
	if s == nil {
		return
	}
	if fn == nil {
		fn = time.Sleep
	}
	s.sleep = fn
}

// Counts snapshots the injection counters: metric suffix → applied
// count, nonzero kinds only, with or without a registry attached (once
// Instrument attached one, schedules sharing it share the counters).
// Nil-safe (returns an empty map).
func (s *Schedule) Counts() map[string]uint64 {
	if s == nil {
		return map[string]uint64{}
	}
	return s.f.Counts()
}

// Decide returns the fault for the index-th operation in direction d on
// the connection labelled label, counting every non-None decision as
// injected (wrapped Conns are guaranteed to apply it). Exposed so a
// harness can predict a run's fault set without performing I/O.
// Nil-safe: returns KindNone.
func (s *Schedule) Decide(d Dir, label string, index int) Kind {
	if s == nil {
		return KindNone
	}
	return s.f.Fate(byte(d), label, index)
}

// Conn wraps c so its reads and writes draw faults from the schedule
// under the given label. Nil-safe: a nil *Schedule returns c unwrapped.
func (s *Schedule) Conn(c net.Conn, label string) net.Conn {
	if s == nil {
		return c
	}
	return &Conn{Conn: c, s: s, label: label}
}

// Listener wraps ln so every accepted connection is fault-wrapped with
// an accept-indexed label ("a0", "a1", ...). Nil-safe: a nil *Schedule
// returns ln unwrapped.
func (s *Schedule) Listener(ln net.Listener) net.Listener {
	if s == nil {
		return ln
	}
	return &listener{Listener: ln, s: s}
}

// listener is the accept-side wrapper behind Schedule.Listener.
type listener struct {
	net.Listener
	s *Schedule
}

// Accept wraps the next connection with a deterministic accept-indexed
// label.
func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	n := l.s.accepts.Add(1) - 1
	return l.s.Conn(c, fmt.Sprintf("a%d", n)), nil
}

// Conn is a fault-wrapped net.Conn: each Read and Write consults the
// schedule for the operation's fate and applies it. Deadlines,
// addresses, and Close pass through to the wrapped connection. Read and
// Write are each single-sequence (op indices are atomic, so one
// concurrent reader plus one concurrent writer — the net.Conn contract
// — is safe).
type Conn struct {
	net.Conn
	s      *Schedule
	label  string
	rd, wr atomic.Int64
}

// mixU is the seed-independent deterministic draw behind fault
// parameters (split point, corruption offset, jitter fraction) — a
// separate stream from the fate decision so parameters don't perturb
// fates.
func mixU(label string, index int) uint64 {
	return uint64(fault.NewFNV.Str(label).Uint64(uint64(index)))
}

// frameStampLo/frameStampHi delimit the CRC-exempt client-send stamp
// window in a v2 frame header (bytes [3, 11)); write-side corruption
// skips it so every injected flip is decoder-detectable.
const (
	frameStampLo = 3
	frameStampHi = 11
)

// corruptPos picks the deterministic byte to flip in an n-byte write,
// avoiding the stamp window when the buffer is long enough to carry a
// v2 header.
func corruptPos(n int, u uint64) int {
	if n > frameStampHi {
		i := int(u % uint64(n-(frameStampHi-frameStampLo)))
		if i >= frameStampLo {
			i += frameStampHi - frameStampLo
		}
		return i
	}
	return int(u % uint64(n))
}

// jitterFor converts the parameter draw into a sleep in [0, max).
func jitterFor(u uint64, max time.Duration) time.Duration {
	return time.Duration(fault.Unit(u) * float64(max))
}

// Read reads from the wrapped connection, applying the read-side fault
// drawn for this operation: short reads shrink the buffer to one byte,
// corruption flips one bit of the returned bytes, truncation closes the
// connection and reports io.EOF, resets close it and fail with
// ErrInjected, stalls and jitter sleep first.
func (c *Conn) Read(b []byte) (int, error) {
	idx := int(c.rd.Add(1) - 1)
	switch c.s.Decide(DirRead, c.label, idx) {
	case KindShortRead:
		if len(b) > 1 {
			b = b[:1]
		}
	case KindCorrupt:
		n, err := c.Conn.Read(b)
		if n > 0 {
			u := mixU(c.label, idx)
			b[int(u%uint64(n))] ^= 1 << ((u >> 33) % 8)
		}
		return n, err
	case KindTruncate:
		c.Conn.Close()
		return 0, io.EOF
	case KindReset:
		c.Conn.Close()
		return 0, fmt.Errorf("%w: read reset on %s op %d", ErrInjected, c.label, idx)
	case KindStall:
		c.s.sleep(c.s.stall)
	case KindJitter:
		c.s.sleep(jitterFor(mixU(c.label, idx), c.s.delay))
	}
	return c.Conn.Read(b)
}

// Write writes to the wrapped connection, applying the write-side fault
// drawn for this operation: splits deliver the buffer as two underlying
// writes, corruption flips one bit (avoiding the frame stamp window),
// truncation delivers a deterministic prefix then closes, resets close
// and fail with ErrInjected, stalls and jitter sleep first.
func (c *Conn) Write(b []byte) (int, error) {
	idx := int(c.wr.Add(1) - 1)
	switch c.s.Decide(DirWrite, c.label, idx) {
	case KindSplit:
		if len(b) >= 2 {
			cut := 1 + int(mixU(c.label, idx)%uint64(len(b)-1))
			n, err := c.Conn.Write(b[:cut])
			if err != nil {
				return n, err
			}
			m, err := c.Conn.Write(b[cut:])
			return n + m, err
		}
	case KindCorrupt:
		if len(b) > 0 {
			u := mixU(c.label, idx)
			cp := make([]byte, len(b))
			copy(cp, b)
			cp[corruptPos(len(cp), u)] ^= 1 << ((u >> 33) % 8)
			n, err := c.Conn.Write(cp)
			return n, err
		}
	case KindTruncate:
		cut := 0
		if len(b) > 0 {
			cut = int(mixU(c.label, idx) % uint64(len(b)))
		}
		n, _ := c.Conn.Write(b[:cut])
		c.Conn.Close()
		return n, fmt.Errorf("%w: write truncated after %d/%d bytes on %s op %d", ErrInjected, n, len(b), c.label, idx)
	case KindReset:
		c.Conn.Close()
		return 0, fmt.Errorf("%w: write reset on %s op %d", ErrInjected, c.label, idx)
	case KindStall:
		c.s.sleep(c.s.stall)
	case KindJitter:
		c.s.sleep(jitterFor(mixU(c.label, idx), c.s.delay))
	}
	return c.Conn.Write(b)
}

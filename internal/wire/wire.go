// Package wire is the batched binary wire format for the serving
// engine's networked ingestion path. Per-event HTTP/JSON framing would
// dwarf the ~100 ns decide path (DESIGN.md §6), so events travel as
// length-prefixed frames of batched events with per-connection session
// interning and delta-encoded timestamps. The codec is stdlib-only and
// transport-agnostic: internal/ingest serves it over net.Listener
// connections and cmd/gload replays synthetic workloads through it.
//
// # Frame layout
//
// A request frame is:
//
//	offset 0   'G' 'W'          magic
//	offset 2   0x02             format version (Version)
//	offset 3   8 bytes LE       client-send time, unix nanoseconds
//	...        uvarint          payload length (1..MaxFrameBytes)
//	...        4 bytes LE       CRC-32 (IEEE) of the payload
//	...        payload
//
// The client-send stamp is the sender's wall clock at frame encode time
// (AppendFrame stamps it; AppendFrameAt sets it explicitly), letting the
// receiver attribute end-to-end latency: ingest observes receive−send as
// wire.e2e.ingress_ns and the serving engine observes decide−send as
// wire.e2e_ns. Zero means "unstamped". The stamp is header, not payload:
// it is excluded from the CRC, and two frames with identical payloads
// but different stamps decode to identical events.
//
// Version 1 frames (no stamp) are no longer accepted: the decoder
// rejects any version byte other than Version with ErrVersion, and the
// ingest server answers with the connection-fatal FatalVersion code.
//
// and the payload is:
//
//	uvarint count               events in the frame (0..MaxBatch)
//	count × event:
//	  uvarint sid               session reference (see below)
//	  [uvarint n, n bytes]      session definition, only when sid == next
//	  1 byte                    finger
//	  1 byte                    kind (0 down, 1 move, 2 up)
//	  8 bytes LE                x coordinate, raw IEEE-754 bits
//	  8 bytes LE                y coordinate, raw IEEE-754 bits
//	  uvarint                   timestamp delta, zigzag µs vs. the
//	                            previous event on the connection
//
// Session IDs are interned per connection: the first event of a session
// carries sid == len(table) followed by the ID bytes, which appends to
// the table; every later event references the table index. Timestamps
// are signed microsecond deltas against the previous event on the same
// connection (the first event's delta is absolute, against 0), so a
// dense point stream costs 1–2 bytes per timestamp instead of 8.
//
// The encoding is canonical: minimal-length varints, definitions exactly
// at first use, no duplicate definitions, no trailing bytes. Decode
// rejects every non-canonical form, so for any frame that decodes, a
// fresh Encoder re-encodes the decoded events to the identical bytes —
// the property the fuzz test pins (FuzzDecodeFrame).
//
// # Errors
//
// Decode errors are typed: ErrTruncated (the bytes end mid-frame),
// ErrOversized (a declared length beyond MaxFrameBytes or MaxBatch),
// ErrVersion (a well-formed header carrying a version this codec does
// not speak), and ErrCorrupt (bad magic/CRC, non-minimal varint, bad
// session reference, trailing bytes, out-of-range kind). Match with
// errors.Is. After any decode error the Decoder is poisoned — the
// stream's interning state can no longer be trusted and the connection
// must be torn down; the fatal response codes (Fatal*) tell the client
// why.
//
// # Responses
//
// The server answers every request frame, in order, with one response:
//
//	0x06 ('ACK') uvarint nackCount, nackCount × (uvarint index, 1 byte code)
//
// An all-accepted frame is the 2-byte sequence {0x06, 0x00}. Each NACK
// carries the 0-based index of a refused event within the frame and a
// NackCode mapping the serving engine's typed Submit errors
// (serve.ErrBadEvent, ErrClosed, ErrOverloaded). A connection-
// fatal condition is answered with
//
//	0x15 ('NAK') 1 byte FatalCode
//
// after which the server closes the connection.
package wire

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"
)

// Version is the wire format version carried in every frame header.
// Version 2 added the 8-byte client-send stamp; version 1 frames are
// rejected with ErrVersion.
const Version = 2

// Limits enforced by both Encoder and Decoder. They bound the memory an
// ingest server commits to a single frame before validating it.
const (
	// MaxBatch is the maximum number of events in one frame.
	MaxBatch = 1024
	// MaxSessionLen is the maximum session-ID length in bytes; IDs must
	// be non-empty (the serving engine rejects empty session IDs anyway).
	MaxSessionLen = 256
	// MaxFrameBytes is the maximum payload length the decoder will
	// accept or the frame reader will buffer.
	MaxFrameBytes = 1 << 20
)

// Typed decode errors; match with errors.Is. The wrapping error carries
// the offending detail.
var (
	// ErrTruncated reports a frame that ends before its declared length.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrOversized reports a declared payload length above MaxFrameBytes
	// or a batch count above MaxBatch.
	ErrOversized = errors.New("wire: oversized frame")
	// ErrCorrupt reports a frame that violates the format: bad magic,
	// CRC mismatch, non-minimal varint, bad session reference or
	// duplicate definition, out-of-range kind, or trailing bytes.
	ErrCorrupt = errors.New("wire: corrupt frame")
	// ErrVersion reports a frame whose header carries a format version
	// this codec does not speak (a v1 peer, or a future version). The
	// ingest server answers it with the connection-fatal FatalVersion.
	ErrVersion = errors.New("wire: unsupported frame version")
	// errPoisoned reports use of an Encoder or Decoder after an error.
	errPoisoned = errors.New("wire: codec poisoned by a previous error")
)

// Kind is the wire encoding of a multipath event kind.
type Kind uint8

// Wire event kinds; the numeric values match multipath.EventKind.
const (
	// KindDown is a finger-down (stroke start) event.
	KindDown Kind = 0
	// KindMove is a finger-move (stroke point) event.
	KindMove Kind = 1
	// KindUp is a finger-up (stroke end) event.
	KindUp Kind = 2
)

// Event is one wire-level event. Timestamps are integer microseconds so
// the delta encoding round-trips exactly; Seconds and Micros convert to
// and from the serving engine's float-seconds domain at the boundary.
type Event struct {
	// Session is the interaction's session ID (1..MaxSessionLen bytes).
	Session string
	// Finger is the finger identifier within the session.
	Finger uint8
	// Kind is the event kind (KindDown, KindMove, KindUp).
	Kind Kind
	// X, Y are the sample coordinates; any IEEE-754 bit pattern travels
	// unchanged (the serving engine rejects non-finite values).
	X, Y float64
	// TMicros is the sample timestamp in integer microseconds.
	TMicros int64
}

// Seconds returns the event timestamp in the float seconds domain
// serve.Event.T uses.
func (ev Event) Seconds() float64 { return float64(ev.TMicros) / 1e6 }

// Micros converts a float-seconds timestamp to the integer microseconds
// the wire carries, rounding to nearest. Non-finite inputs saturate
// (the serving engine would reject the event either way, and the wire
// must carry something defined).
func Micros(t float64) int64 {
	us := math.Round(t * 1e6)
	switch {
	case math.IsNaN(us):
		return 0
	case us >= math.MaxInt64:
		return math.MaxInt64
	case us <= math.MinInt64:
		return math.MinInt64
	}
	return int64(us)
}

// Frame header constants.
const (
	magic0, magic1 = 'G', 'W'
	headerFixed    = 11 // magic + version + send stamp, before the length varint
	crcLen         = 4
)

// zigzag encodes a signed delta as an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendUvarint appends the minimal varint encoding of v.
func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst[:len(dst)], byte(v)|0x80)
		v >>= 7
	}
	return append(dst[:len(dst)], byte(v))
}

// uvarintLen returns the encoded length of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// readUvarint decodes a minimal varint from b starting at off, returning
// the value and the offset past it. A non-minimal ("overlong") encoding
// is ErrCorrupt — canonical frames have exactly one byte form per value —
// and running out of bytes is ErrTruncated.
func readUvarint(b []byte, off int) (uint64, int, error) {
	var v uint64
	var shift uint
	for i := off; i < len(b); i++ {
		c := b[i]
		if shift == 63 && c > 1 {
			return 0, 0, fmt.Errorf("%w: varint overflows uint64", ErrCorrupt)
		}
		if c < 0x80 {
			if c == 0 && i > off {
				return 0, 0, fmt.Errorf("%w: non-minimal varint", ErrCorrupt)
			}
			return v | uint64(c)<<shift, i + 1, nil
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
		if shift > 63 {
			return 0, 0, fmt.Errorf("%w: varint longer than 10 bytes", ErrCorrupt)
		}
	}
	return 0, 0, fmt.Errorf("%w: varint runs off the end", ErrTruncated)
}

// Encoder encodes frames for one connection, owning the connection's
// session intern table and timestamp delta state. Not safe for
// concurrent use. After a non-nil error the Encoder is poisoned (its
// interning state may disagree with what was emitted) and every further
// call fails; errors here are programming errors — an in-range workload
// never trips them.
type Encoder struct {
	ids      map[string]uint64
	prev     int64
	payload  []byte // reused per-frame payload build buffer
	poisoned bool
}

// NewEncoder returns an Encoder with an empty intern table.
func NewEncoder() *Encoder {
	return &Encoder{ids: make(map[string]uint64)}
}

// AppendFrame appends one encoded frame carrying events to dst and
// returns the extended slice, stamping the header with the current wall
// clock as the client-send time. The events' order is the wire order
// (the timestamp delta chain threads through it). Errors (too many
// events, an out-of-range session ID or kind) poison the Encoder.
func (e *Encoder) AppendFrame(dst []byte, events []Event) ([]byte, error) {
	return e.AppendFrameAt(dst, events, time.Now().UnixNano())
}

// AppendFrameAt is AppendFrame with an explicit client-send stamp (unix
// nanoseconds; 0 means unstamped) — the canonical-re-encode entry point:
// re-encoding decoded events with the decoded frame's SentNS reproduces
// the original bytes bit for bit, and tests use fixed stamps for
// deterministic frames.
func (e *Encoder) AppendFrameAt(dst []byte, events []Event, sentNS int64) ([]byte, error) {
	if e.poisoned {
		return dst, errPoisoned
	}
	if len(events) > MaxBatch {
		e.poisoned = true
		return dst, fmt.Errorf("%w: %d events exceeds MaxBatch %d", ErrOversized, len(events), MaxBatch)
	}
	p := appendUvarint(e.payload[:0], uint64(len(events)))
	for i := range events {
		ev := &events[i]
		if len(ev.Session) == 0 || len(ev.Session) > MaxSessionLen {
			e.poisoned = true
			return dst, fmt.Errorf("%w: session ID length %d outside 1..%d", ErrCorrupt, len(ev.Session), MaxSessionLen)
		}
		if ev.Kind > KindUp {
			e.poisoned = true
			return dst, fmt.Errorf("%w: kind %d out of range", ErrCorrupt, ev.Kind)
		}
		sid, ok := e.ids[ev.Session]
		if !ok {
			sid = uint64(len(e.ids))
			e.ids[ev.Session] = sid
			p = appendUvarint(p, sid)
			p = appendUvarint(p, uint64(len(ev.Session)))
			p = append(p[:len(p)], ev.Session...)
		} else {
			p = appendUvarint(p, sid)
		}
		p = append(p[:len(p)], ev.Finger, byte(ev.Kind))
		p = appendU64(p, math.Float64bits(ev.X))
		p = appendU64(p, math.Float64bits(ev.Y))
		p = appendUvarint(p, zigzag(ev.TMicros-e.prev))
		e.prev = ev.TMicros
	}
	e.payload = p
	dst = append(dst[:len(dst)], magic0, magic1, Version)
	dst = appendU64(dst, uint64(sentNS))
	dst = appendUvarint(dst, uint64(len(p)))
	dst = appendU32(dst, crc32.ChecksumIEEE(p))
	return append(dst[:len(dst)], p...), nil
}

// appendU64 appends v little-endian.
func appendU64(dst []byte, v uint64) []byte {
	return append(dst[:len(dst)],
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// appendU32 appends v little-endian.
func appendU32(dst []byte, v uint32) []byte {
	return append(dst[:len(dst)], byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// Decoder decodes frames from one connection, owning the connection's
// session intern table and timestamp delta state (the mirror of the
// peer's Encoder). Not safe for concurrent use. After any error the
// Decoder is poisoned and every further Decode fails — the caller must
// tear the connection down (see the package comment on fatal responses).
type Decoder struct {
	table    []string
	prev     int64
	sent     int64
	poisoned bool
}

// NewDecoder returns a Decoder with an empty intern table.
func NewDecoder() *Decoder { return &Decoder{} }

// Sessions returns how many session IDs the decoder has interned.
func (d *Decoder) Sessions() int { return len(d.table) }

// SentNS returns the client-send stamp (unix nanoseconds) of the last
// frame DecodeFrame accepted; 0 before the first frame or when the
// sender left it unstamped. Payload-only Decode calls do not update it —
// on streaming connections the FrameReader carries the stamp instead.
func (d *Decoder) SentNS() int64 { return d.sent }

// Decode decodes one frame payload (the bytes a FrameReader returns, or
// the payload section of DecodeFrame's input), appending the events to
// dst and returning the extended slice. dst's backing array is reused —
// steady-state decoding of warm sessions performs no per-event
// allocation (gated by TestDecodeZeroAlloc). The payload must be exactly
// one canonical batch: trailing bytes, non-minimal varints, bad session
// references, and out-of-range kinds are ErrCorrupt.
//
//glint:hotpath
func (d *Decoder) Decode(payload []byte, dst []Event) ([]Event, error) {
	if d.poisoned {
		return dst, errPoisoned
	}
	count, off, err := readUvarint(payload, 0)
	if err != nil {
		d.poisoned = true
		return dst, err
	}
	if count > MaxBatch {
		d.poisoned = true
		return dst, fmt.Errorf("%w: batch count %d exceeds MaxBatch %d", ErrOversized, count, MaxBatch)
	}
	for i := uint64(0); i < count; i++ {
		var ev Event
		ev, off, err = d.event(payload, off)
		if err != nil {
			d.poisoned = true
			return dst, err
		}
		dst = append(dst[:len(dst)], ev)
	}
	if off != len(payload) {
		d.poisoned = true
		return dst, fmt.Errorf("%w: %d trailing bytes after batch", ErrCorrupt, len(payload)-off)
	}
	return dst, nil
}

// event decodes one event starting at off and returns it with the new
// offset. Interning state advances as definitions are seen.
//
//glint:hotpath
func (d *Decoder) event(payload []byte, off int) (Event, int, error) {
	var ev Event
	sid, off, err := readUvarint(payload, off)
	if err != nil {
		return ev, 0, err
	}
	switch {
	case sid < uint64(len(d.table)):
		ev.Session = d.table[sid]
	case sid == uint64(len(d.table)):
		ev.Session, off, err = d.define(payload, off)
		if err != nil {
			return ev, 0, err
		}
	default:
		return ev, 0, fmt.Errorf("%w: session reference %d skips table size %d", ErrCorrupt, sid, len(d.table))
	}
	if len(payload)-off < 2+8+8 {
		return ev, 0, fmt.Errorf("%w: event body runs off the end", ErrTruncated)
	}
	ev.Finger = payload[off]
	ev.Kind = Kind(payload[off+1])
	if ev.Kind > KindUp {
		return ev, 0, fmt.Errorf("%w: kind %d out of range", ErrCorrupt, ev.Kind)
	}
	ev.X = math.Float64frombits(readU64(payload, off+2))
	ev.Y = math.Float64frombits(readU64(payload, off+10))
	off += 18
	dt, off, err := readUvarint(payload, off)
	if err != nil {
		return ev, 0, err
	}
	ev.TMicros = d.prev + unzigzag(dt)
	d.prev = ev.TMicros
	return ev, off, nil
}

// define decodes a session definition (length-prefixed ID bytes),
// interns it, and returns the string. Runs once per session per
// connection; the steady-state event path only takes table references.
//
//glint:coldpath interning runs once per session per connection, not per event
func (d *Decoder) define(payload []byte, off int) (string, int, error) {
	n, off, err := readUvarint(payload, off)
	if err != nil {
		return "", 0, err
	}
	if n == 0 || n > MaxSessionLen {
		return "", 0, fmt.Errorf("%w: session ID length %d outside 1..%d", ErrCorrupt, n, MaxSessionLen)
	}
	if uint64(len(payload)-off) < n {
		return "", 0, fmt.Errorf("%w: session ID runs off the end", ErrTruncated)
	}
	s := string(payload[off : off+int(n)])
	for _, prev := range d.table {
		if prev == s {
			return "", 0, fmt.Errorf("%w: duplicate session definition %q", ErrCorrupt, s)
		}
	}
	d.table = append(d.table, s)
	return s, off + int(n), nil
}

// readU64 reads 8 little-endian bytes at off; the caller has bounds-
// checked.
func readU64(b []byte, off int) uint64 {
	_ = b[off+7]
	return uint64(b[off]) | uint64(b[off+1])<<8 | uint64(b[off+2])<<16 | uint64(b[off+3])<<24 |
		uint64(b[off+4])<<32 | uint64(b[off+5])<<40 | uint64(b[off+6])<<48 | uint64(b[off+7])<<56
}

// DecodeFrame decodes one complete frame (header, CRC, payload) from the
// front of b, appending the events to dst. It returns the extended
// slice and the number of bytes consumed. Used by in-memory consumers
// (the fuzz harness, tests); streaming connections use FrameReader +
// Decode.
func (d *Decoder) DecodeFrame(b []byte, dst []Event) ([]Event, int, error) {
	if d.poisoned {
		return dst, 0, errPoisoned
	}
	payload, sent, n, err := splitFrame(b)
	if err != nil {
		d.poisoned = true
		return dst, 0, err
	}
	d.sent = sent
	dst, err = d.Decode(payload, dst)
	return dst, n, err
}

// splitFrame validates the header/CRC at the front of b and returns the
// payload, the client-send stamp, and the total frame length.
func splitFrame(b []byte) (payload []byte, sent int64, n int, err error) {
	if len(b) < 3 {
		return nil, 0, 0, fmt.Errorf("%w: %d-byte header", ErrTruncated, len(b))
	}
	if b[0] != magic0 || b[1] != magic1 {
		return nil, 0, 0, fmt.Errorf("%w: bad magic %#02x%02x", ErrCorrupt, b[0], b[1])
	}
	if b[2] != Version {
		return nil, 0, 0, fmt.Errorf("%w: frame version %d, this codec speaks %d", ErrVersion, b[2], Version)
	}
	if len(b) < headerFixed {
		return nil, 0, 0, fmt.Errorf("%w: header ends before the send stamp", ErrTruncated)
	}
	sent = int64(readU64(b, 3))
	plen, off, err := readUvarint(b, headerFixed)
	if err != nil {
		return nil, 0, 0, err
	}
	if plen == 0 {
		return nil, 0, 0, fmt.Errorf("%w: zero-length payload", ErrCorrupt)
	}
	if plen > MaxFrameBytes {
		return nil, 0, 0, fmt.Errorf("%w: payload length %d exceeds %d", ErrOversized, plen, MaxFrameBytes)
	}
	if uint64(len(b)-off) < crcLen+plen {
		return nil, 0, 0, fmt.Errorf("%w: declared %d payload bytes, have %d", ErrTruncated, plen, len(b)-off-crcLen)
	}
	want := uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
	off += crcLen
	payload = b[off : off+int(plen)]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, 0, 0, fmt.Errorf("%w: CRC mismatch (declared %#08x, computed %#08x)", ErrCorrupt, want, got)
	}
	return payload, sent, off + int(plen), nil
}

// EncodedFrameLen returns the total frame length for a payload of plen
// bytes — the inverse bookkeeping DecodeFrame's consumed-byte count
// reports.
func EncodedFrameLen(plen int) int {
	return headerFixed + uvarintLen(uint64(plen)) + crcLen + plen
}

// ByteSource is the reader a FrameReader consumes: buffered byte-at-a-
// time access for varints plus bulk reads for payloads. *bufio.Reader
// implements it.
type ByteSource interface {
	io.Reader
	io.ByteReader
}

// FrameReader reads length-prefixed frames off a connection, reusing one
// payload buffer across frames. Not safe for concurrent use.
type FrameReader struct {
	r    ByteSource
	buf  []byte
	sent int64
}

// NewFrameReader returns a FrameReader over r (typically a
// *bufio.Reader wrapping the connection).
func NewFrameReader(r ByteSource) *FrameReader {
	return &FrameReader{r: r, buf: make([]byte, 0, 4096)}
}

// SentNS returns the client-send stamp (unix nanoseconds) from the
// header of the last frame Next returned; 0 before the first frame or
// when the sender left it unstamped. The ingest server reads it to
// attribute end-to-end latency per frame.
func (fr *FrameReader) SentNS() int64 { return fr.sent }

// Next reads one frame and returns its CRC-verified payload, valid only
// until the next call. io.EOF at a frame boundary is a clean end of
// stream; bytes ending mid-frame are ErrTruncated. Oversized declared
// lengths are rejected (ErrOversized) before any payload is buffered.
func (fr *FrameReader) Next() ([]byte, error) {
	var hdr [headerFixed]byte
	if _, err := io.ReadFull(fr.r, hdr[:3]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return nil, fmt.Errorf("%w: bad magic %#02x%02x", ErrCorrupt, hdr[0], hdr[1])
	}
	if hdr[2] != Version {
		return nil, fmt.Errorf("%w: frame version %d, this codec speaks %d", ErrVersion, hdr[2], Version)
	}
	if _, err := io.ReadFull(fr.r, hdr[3:]); err != nil {
		return nil, fmt.Errorf("%w: send stamp: %v", ErrTruncated, err)
	}
	fr.sent = int64(readU64(hdr[:], 3))
	plen, err := readStreamUvarint(fr.r)
	if err != nil {
		return nil, err
	}
	if plen == 0 {
		return nil, fmt.Errorf("%w: zero-length payload", ErrCorrupt)
	}
	if plen > MaxFrameBytes {
		return nil, fmt.Errorf("%w: payload length %d exceeds %d", ErrOversized, plen, MaxFrameBytes)
	}
	var crc [crcLen]byte
	if _, err := io.ReadFull(fr.r, crc[:]); err != nil {
		return nil, fmt.Errorf("%w: CRC: %v", ErrTruncated, err)
	}
	want := uint32(crc[0]) | uint32(crc[1])<<8 | uint32(crc[2])<<16 | uint32(crc[3])<<24
	if uint64(cap(fr.buf)) < plen {
		fr.buf = make([]byte, plen)
	}
	payload := fr.buf[:plen]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrTruncated, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (declared %#08x, computed %#08x)", ErrCorrupt, want, got)
	}
	return payload, nil
}

// readStreamUvarint reads a minimal varint byte-at-a-time.
func readStreamUvarint(r io.ByteReader) (uint64, error) {
	var v uint64
	var shift uint
	for i := 0; ; i++ {
		c, err := r.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("%w: length varint: %v", ErrTruncated, err)
		}
		if shift == 63 && c > 1 {
			return 0, fmt.Errorf("%w: varint overflows uint64", ErrCorrupt)
		}
		if c < 0x80 {
			if c == 0 && i > 0 {
				return 0, fmt.Errorf("%w: non-minimal varint", ErrCorrupt)
			}
			return v | uint64(c)<<shift, nil
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
		if shift > 63 {
			return 0, fmt.Errorf("%w: varint longer than 10 bytes", ErrCorrupt)
		}
	}
}

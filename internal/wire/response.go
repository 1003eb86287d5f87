package wire

import (
	"fmt"
	"io"
)

// Response type bytes: ASCII ACK for a per-frame acknowledgement, ASCII
// NAK for a connection-fatal error.
const (
	respAck   = 0x06
	respFatal = 0x15
)

// NackCode is the wire form of one refused event's reason. Codes map
// the serving engine's typed Submit errors one-to-one; see
// OBSERVABILITY.md ("Wire ingestion") for the counter each feeds. Codes
// 2 and 3 stay in the protocol, so clients decode them, but they are
// not sent by this server: it waits out a full queue instead.
type NackCode uint8

// NACK codes. Zero is reserved (an absent code).
const (
	// NackBadEvent maps serve.ErrBadEvent: the event failed Submit-time
	// validation and retrying cannot help.
	NackBadEvent NackCode = 1
	// NackQueueFull means the shard queue was full and the server chose
	// not to wait. Not sent by this server.
	NackQueueFull NackCode = 2
	// NackShed means the server retried a full queue and gave up. Not
	// sent by this server.
	NackShed NackCode = 3
	// NackClosed maps serve.ErrClosed: the engine is shutting down; the
	// server closes the connection after the response.
	NackClosed NackCode = 4
	// NackOverload maps serve.ErrOverloaded: the admission controller is
	// shedding early under sustained queue delay. The ACK carries a
	// retry-after hint; the client should pause that long before
	// resubmitting.
	NackOverload NackCode = 5
)

// String names the code ("bad_event", "queue_full", "shed", "closed",
// "overload"); unknown values render as "nack(N)".
func (c NackCode) String() string {
	switch c {
	case NackBadEvent:
		return "bad_event"
	case NackQueueFull:
		return "queue_full"
	case NackShed:
		return "shed"
	case NackClosed:
		return "closed"
	case NackOverload:
		return "overload"
	}
	return fmt.Sprintf("nack(%d)", uint8(c))
}

// FatalCode is the wire form of a connection-fatal condition: the server
// sends it in a NAK response and closes the connection.
type FatalCode uint8

// Fatal codes. Zero is reserved.
const (
	// FatalCorrupt reports an undecodable frame (ErrCorrupt); the
	// connection's interning state is unrecoverable.
	FatalCorrupt FatalCode = 1
	// FatalOversized reports a frame beyond the size limits
	// (ErrOversized).
	FatalOversized FatalCode = 2
	// FatalTruncated reports a stream that ended mid-frame
	// (ErrTruncated).
	FatalTruncated FatalCode = 3
	// FatalClosed reports an ingest server that is shutting down.
	FatalClosed FatalCode = 4
	// FatalVersion reports a frame carrying a wire format version the
	// server does not speak (ErrVersion) — the client must upgrade (or
	// downgrade) before reconnecting.
	FatalVersion FatalCode = 5
	// FatalOverloaded reports an accept-gate rejection: the server is at
	// its connection limit and refused this connection before reading a
	// single frame. Reconnect after a backoff.
	FatalOverloaded FatalCode = 6
	// FatalTimeout reports an idle teardown: the connection sent nothing
	// for longer than the server's idle timeout (slow-loris protection).
	// Reconnect and resend anything unacknowledged.
	FatalTimeout FatalCode = 7
)

// String names the code ("corrupt", "oversized", "truncated", "closed",
// "version", "overloaded", "timeout"); unknown values render as
// "fatal(N)".
func (c FatalCode) String() string {
	switch c {
	case FatalCorrupt:
		return "corrupt"
	case FatalOversized:
		return "oversized"
	case FatalTruncated:
		return "truncated"
	case FatalClosed:
		return "closed"
	case FatalVersion:
		return "version"
	case FatalOverloaded:
		return "overloaded"
	case FatalTimeout:
		return "timeout"
	}
	return fmt.Sprintf("fatal(%d)", uint8(c))
}

// Nack is one refused event within a frame: the 0-based event index and
// the typed reason.
type Nack struct {
	// Index is the event's position within its frame.
	Index uint32
	// Code is the refusal reason.
	Code NackCode
}

// MaxRetryAfterMS caps the retry-after hint an ACK may carry; a larger
// value is rejected as corruption when decoding a response.
const MaxRetryAfterMS = 60_000

// AppendAck appends one ACK response (possibly carrying NACKs and a
// retry-after hint) to dst. The layout is the ACK byte, a uvarint
// retry-after hint in milliseconds (0 = none; only meaningful alongside
// overload NACKs), a uvarint NACK count, then per refused event its
// frame index (uvarint) and code byte. An empty nacks slice with no
// hint is the 3-byte all-accepted response. retryAfterMS values outside
// [0, MaxRetryAfterMS] are clamped so a response is always decodable.
func AppendAck(dst []byte, nacks []Nack, retryAfterMS int64) []byte {
	if retryAfterMS < 0 {
		retryAfterMS = 0
	}
	if retryAfterMS > MaxRetryAfterMS {
		retryAfterMS = MaxRetryAfterMS
	}
	dst = append(dst[:len(dst)], respAck)
	dst = appendUvarint(dst, uint64(retryAfterMS))
	dst = appendUvarint(dst, uint64(len(nacks)))
	for _, n := range nacks {
		dst = appendUvarint(dst, uint64(n.Index))
		dst = append(dst[:len(dst)], byte(n.Code))
	}
	return dst
}

// AppendFatal appends one NAK (connection-fatal) response to dst.
func AppendFatal(dst []byte, code FatalCode) []byte {
	return append(dst[:len(dst)], respFatal, byte(code))
}

// Response is one decoded server response: either a per-frame ACK with
// its NACK list, or a connection-fatal NAK.
type Response struct {
	// Fatal reports a NAK response; Code then says why and the
	// connection is dead.
	Fatal bool
	// Code is the fatal reason (only when Fatal).
	Code FatalCode
	// Nacks are the frame's refused events (only when !Fatal), in index
	// order as the server emitted them.
	Nacks []Nack
	// RetryAfterMS is the server's pacing hint in milliseconds (only
	// when !Fatal). Zero means none; nonzero accompanies overload NACKs
	// and asks the client to pause that long before the next frame.
	RetryAfterMS int64
}

// ReadResponse reads one response off r, reusing nackBuf for the NACK
// list. io.EOF at a response boundary passes through; mid-response ends
// are ErrTruncated.
func ReadResponse(r io.ByteReader, nackBuf []Nack) (Response, error) {
	t, err := r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return Response{}, io.EOF
		}
		return Response{}, fmt.Errorf("%w: response type: %v", ErrTruncated, err)
	}
	switch t {
	case respFatal:
		c, err := r.ReadByte()
		if err != nil {
			return Response{}, fmt.Errorf("%w: fatal code: %v", ErrTruncated, err)
		}
		return Response{Fatal: true, Code: FatalCode(c)}, nil
	case respAck:
		retry, err := readStreamUvarint(r)
		if err != nil {
			return Response{}, err
		}
		if retry > MaxRetryAfterMS {
			return Response{}, fmt.Errorf("%w: retry-after %dms exceeds %dms", ErrCorrupt, retry, MaxRetryAfterMS)
		}
		n, err := readStreamUvarint(r)
		if err != nil {
			return Response{}, err
		}
		if n > MaxBatch {
			return Response{}, fmt.Errorf("%w: %d NACKs exceeds MaxBatch %d", ErrOversized, n, MaxBatch)
		}
		nacks := nackBuf[:0]
		for i := uint64(0); i < n; i++ {
			idx, err := readStreamUvarint(r)
			if err != nil {
				return Response{}, err
			}
			if idx > MaxBatch {
				return Response{}, fmt.Errorf("%w: NACK index %d exceeds MaxBatch %d", ErrCorrupt, idx, MaxBatch)
			}
			c, err := r.ReadByte()
			if err != nil {
				return Response{}, fmt.Errorf("%w: NACK code: %v", ErrTruncated, err)
			}
			nacks = append(nacks, Nack{Index: uint32(idx), Code: NackCode(c)})
		}
		return Response{Nacks: nacks, RetryAfterMS: int64(retry)}, nil
	}
	return Response{}, fmt.Errorf("%w: unknown response type %#02x", ErrCorrupt, t)
}

package wire

import (
	"bufio"
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"
)

// payloadOf extracts the validated payload from a complete frame.
func payloadOf(t *testing.T, frame []byte) []byte {
	t.Helper()
	payload, _, n, err := splitFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frame) {
		t.Fatalf("splitFrame consumed %d of %d bytes", n, len(frame))
	}
	return payload
}

// sampleEvents builds a deterministic mixed-session batch: two sessions
// interleaved, down/move/up kinds, negative-able deltas, and non-finite
// coordinates (which the wire must carry verbatim).
func sampleEvents() []Event {
	return []Event{
		{Session: "alpha", Finger: 0, Kind: KindDown, X: 10, Y: 20, TMicros: 1_000_000},
		{Session: "beta", Finger: 1, Kind: KindDown, X: -3.5, Y: 0.25, TMicros: 999_900},
		{Session: "alpha", Finger: 0, Kind: KindMove, X: 11.5, Y: 21.25, TMicros: 1_020_000},
		{Session: "beta", Finger: 1, Kind: KindMove, X: math.NaN(), Y: math.Inf(1), TMicros: 1_000_100},
		{Session: "alpha", Finger: 0, Kind: KindUp, X: 12, Y: 22, TMicros: 1_040_000},
		{Session: "beta", Finger: 1, Kind: KindUp, X: -4, Y: 1, TMicros: 1_000_200},
	}
}

// eventsEqual compares events bit-for-bit (NaN-safe).
func eventsEqual(a, b Event) bool {
	return a.Session == b.Session && a.Finger == b.Finger && a.Kind == b.Kind &&
		math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		a.TMicros == b.TMicros
}

// TestRoundTripSingleFrame: Decode(Encode(events)) returns the events
// bit-for-bit, including NaN/Inf coordinates.
func TestRoundTripSingleFrame(t *testing.T) {
	events := sampleEvents()
	frame, err := NewEncoder().AppendFrame(nil, events)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := NewDecoder().DecodeFrame(frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frame) {
		t.Fatalf("consumed %d of %d frame bytes", n, len(frame))
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if !eventsEqual(got[i], events[i]) {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

// TestRoundTripAcrossFrames: interning and the timestamp delta chain
// carry across frames on one connection — later frames reference the
// table built by earlier ones and stay small.
func TestRoundTripAcrossFrames(t *testing.T) {
	events := sampleEvents()
	enc, dec := NewEncoder(), NewDecoder()
	f1, err := enc.AppendFrame(nil, events[:3])
	if err != nil {
		t.Fatal(err)
	}
	f2, err := enc.AppendFrame(nil, events[3:])
	if err != nil {
		t.Fatal(err)
	}
	if len(f2) >= len(f1) {
		t.Errorf("second frame (%dB, interned sessions) should be smaller than the first (%dB)", len(f2), len(f1))
	}
	var got []Event
	for _, f := range [][]byte{f1, f2} {
		var n int
		got, n, err = dec.DecodeFrame(f, got)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(f) {
			t.Fatalf("consumed %d of %d", n, len(f))
		}
	}
	if dec.Sessions() != 2 {
		t.Errorf("decoder interned %d sessions, want 2", dec.Sessions())
	}
	for i := range events {
		if !eventsEqual(got[i], events[i]) {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

// TestFrameReaderStream: frames written back-to-back decode through a
// FrameReader, and a clean end of stream is io.EOF.
func TestFrameReaderStream(t *testing.T) {
	events := sampleEvents()
	enc := NewEncoder()
	var stream []byte
	var err error
	for i := range events {
		stream, err = enc.AppendFrame(stream, events[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bufio.NewReader(bytes.NewReader(stream)))
	dec := NewDecoder()
	var got []Event
	for {
		payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err = dec.Decode(payload, got)
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(events) {
		t.Fatalf("streamed %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if !eventsEqual(got[i], events[i]) {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

// TestDecodeTypedErrors: each corruption class yields its typed error,
// and a decoder that returned an error refuses further frames.
func TestDecodeTypedErrors(t *testing.T) {
	good, err := NewEncoder().AppendFrame(nil, sampleEvents())
	if err != nil {
		t.Fatal(err)
	}
	goodPayload := payloadOf(t, good)
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"header only", func(b []byte) []byte { return b[:2] }, ErrTruncated},
		{"stampless header", func(b []byte) []byte { return b[:7] }, ErrTruncated},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrCorrupt},
		{"future version", func(b []byte) []byte { b[2] = 9; return b }, ErrVersion},
		{"v1 frame", func(b []byte) []byte { b[2] = 1; return b }, ErrVersion},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-3] }, ErrTruncated},
		{"flipped payload bit", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, ErrCorrupt},
		{"flipped crc bit", func(b []byte) []byte {
			b[len(b)-len(goodPayload)-1] ^= 1 // last CRC byte, just before the payload
			return b
		}, ErrCorrupt},
		{"trailing junk in payload", func(b []byte) []byte {
			// Re-frame the original payload plus one junk byte with a valid
			// CRC, so only the batch-level trailing check can object.
			return reframe(append(append([]byte{}, goodPayload...), 0xEE))
		}, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mut(append([]byte{}, good...))
			dec := NewDecoder()
			if _, _, err := dec.DecodeFrame(b, nil); !errors.Is(err, tc.want) {
				t.Fatalf("DecodeFrame = %v, want %v", err, tc.want)
			}
			// The decoder is poisoned: even a pristine frame is now refused.
			if _, _, err := dec.DecodeFrame(good, nil); err == nil {
				t.Fatal("poisoned decoder accepted a frame")
			}
		})
	}
}

// reframe wraps an arbitrary payload in a valid header+CRC (unstamped).
func reframe(payload []byte) []byte {
	b := []byte{magic0, magic1, Version}
	b = appendU64(b, 0) // send stamp
	b = appendUvarint(b, uint64(len(payload)))
	b = appendU32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// TestDecodeRejectsNonCanonical: overlong varints, skipped session
// references, duplicate definitions, zero-length payloads and
// out-of-range kinds are ErrCorrupt; oversized declared lengths and
// batch counts are ErrOversized.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	ev := Event{Session: "s", Kind: KindDown, X: 1, Y: 2, TMicros: 3}
	canon, err := NewEncoder().AppendFrame(nil, []Event{ev})
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte{}, payloadOf(t, canon)...)

	mutate := func(name string, mut func([]byte) []byte, want error) {
		t.Run(name, func(t *testing.T) {
			b := reframe(mut(append([]byte{}, payload...)))
			if _, _, err := NewDecoder().DecodeFrame(b, nil); !errors.Is(err, want) {
				t.Fatalf("DecodeFrame = %v, want %v", err, want)
			}
		})
	}
	mutate("overlong count varint", func(p []byte) []byte {
		// count 1 → 0x81 0x00 (overlong two-byte form of 1).
		return append([]byte{0x81, 0x00}, p[1:]...)
	}, ErrCorrupt)
	mutate("skipped session reference", func(p []byte) []byte {
		p[1] = 5 // sid 5 with an empty table
		return p
	}, ErrCorrupt)
	mutate("zero-length session", func(p []byte) []byte {
		p[2] = 0 // definition length 0
		return p
	}, ErrCorrupt)
	mutate("kind out of range", func(p []byte) []byte {
		p[5] = 7 // count, sid, len, 's', finger, kind
		return p
	}, ErrCorrupt)
	mutate("batch count over MaxBatch", func(p []byte) []byte {
		return appendUvarint(p[:0], MaxBatch+1)
	}, ErrOversized)

	t.Run("duplicate session definition", func(t *testing.T) {
		// Two events, each defining session "s" — the second must define a
		// *new* table slot with an already-interned string.
		p := appendUvarint(nil, 2)
		for i := 0; i < 2; i++ {
			p = appendUvarint(p, uint64(i)) // sid == next table slot
			p = appendUvarint(p, 1)
			p = append(p, 's')
			p = append(p, 0, 0)                    // finger, kind
			p = appendU64(p, 0)                    // x
			p = appendU64(p, 0)                    // y
			p = appendUvarint(p, zigzag(int64(i))) // t
		}
		if _, _, err := NewDecoder().DecodeFrame(reframe(p), nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeFrame = %v, want ErrCorrupt", err)
		}
	})
	t.Run("declared length over MaxFrameBytes", func(t *testing.T) {
		b := []byte{magic0, magic1, Version}
		b = appendU64(b, 0) // send stamp
		b = appendUvarint(b, MaxFrameBytes+1)
		b = append(b, 0, 0, 0, 0)
		if _, _, err := NewDecoder().DecodeFrame(b, nil); !errors.Is(err, ErrOversized) {
			t.Fatalf("DecodeFrame = %v, want ErrOversized", err)
		}
		// The stream reader enforces the same limit before buffering.
		fr := NewFrameReader(bufio.NewReader(bytes.NewReader(b)))
		if _, err := fr.Next(); !errors.Is(err, ErrOversized) {
			t.Fatalf("FrameReader.Next = %v, want ErrOversized", err)
		}
	})
}

// TestEncoderValidation: encoder-side limits poison the encoder.
func TestEncoderValidation(t *testing.T) {
	enc := NewEncoder()
	if _, err := enc.AppendFrame(nil, []Event{{Session: "", Kind: KindDown}}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty session = %v, want ErrCorrupt", err)
	}
	if _, err := enc.AppendFrame(nil, []Event{{Session: "ok", Kind: KindDown}}); err == nil {
		t.Fatal("poisoned encoder accepted a frame")
	}
	if _, err := NewEncoder().AppendFrame(nil, make([]Event, MaxBatch+1)); !errors.Is(err, ErrOversized) {
		t.Fatalf("oversized batch = %v, want ErrOversized", err)
	}
	if _, err := NewEncoder().AppendFrame(nil, []Event{{Session: "s", Kind: 9}}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad kind = %v, want ErrCorrupt", err)
	}
}

// TestResponseRoundTrip: ACK (with and without NACKs) and fatal
// responses survive the codec.
func TestResponseRoundTrip(t *testing.T) {
	nacks := []Nack{{Index: 0, Code: NackBadEvent}, {Index: 7, Code: NackOverload}}
	b := AppendAck(nil, nacks, 250)
	b = AppendAck(b, nil, 0)
	b = AppendFatal(b, FatalCorrupt)
	r := bufio.NewReader(bytes.NewReader(b))

	resp, err := ReadResponse(r, nil)
	if err != nil || resp.Fatal || len(resp.Nacks) != 2 {
		t.Fatalf("first response = %+v, %v", resp, err)
	}
	if resp.Nacks[0] != nacks[0] || resp.Nacks[1] != nacks[1] {
		t.Fatalf("nacks = %+v, want %+v", resp.Nacks, nacks)
	}
	if resp.RetryAfterMS != 250 {
		t.Fatalf("retry-after = %d, want 250", resp.RetryAfterMS)
	}
	resp, err = ReadResponse(r, resp.Nacks)
	if err != nil || resp.Fatal || len(resp.Nacks) != 0 || resp.RetryAfterMS != 0 {
		t.Fatalf("second response = %+v, %v", resp, err)
	}
	resp, err = ReadResponse(r, nil)
	if err != nil || !resp.Fatal || resp.Code != FatalCorrupt {
		t.Fatalf("third response = %+v, %v", resp, err)
	}
	if _, err := ReadResponse(r, nil); err != io.EOF {
		t.Fatalf("end of stream = %v, want io.EOF", err)
	}
}

// TestResponseRetryAfterBounds: the encoder clamps out-of-range hints
// and the decoder rejects hints beyond the cap as corruption.
func TestResponseRetryAfterBounds(t *testing.T) {
	b := AppendAck(nil, nil, -5)
	b = AppendAck(b, nil, MaxRetryAfterMS+1)
	r := bufio.NewReader(bytes.NewReader(b))
	resp, err := ReadResponse(r, nil)
	if err != nil || resp.RetryAfterMS != 0 {
		t.Fatalf("negative hint clamped = %+v, %v; want 0", resp, err)
	}
	resp, err = ReadResponse(r, nil)
	if err != nil || resp.RetryAfterMS != MaxRetryAfterMS {
		t.Fatalf("oversize hint clamped = %+v, %v; want %d", resp, err, int64(MaxRetryAfterMS))
	}

	// A hand-built ACK with a hint beyond the cap must decode as corrupt.
	bad := append([]byte{0x06}, appendUvarint(nil, MaxRetryAfterMS+1)...)
	bad = appendUvarint(bad, 0)
	if _, err := ReadResponse(bufio.NewReader(bytes.NewReader(bad)), nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversize wire hint = %v, want ErrCorrupt", err)
	}
}

// TestMicrosConversion: the float-seconds boundary conversion is sane
// and saturating, and Seconds inverts Micros for mouse-rate timestamps.
func TestMicrosConversion(t *testing.T) {
	for _, tc := range []struct {
		t    float64
		want int64
	}{
		{0, 0}, {0.5, 500_000}, {1.000001, 1_000_001}, {-1, -1_000_000},
		{math.NaN(), 0}, {math.Inf(1), math.MaxInt64}, {math.Inf(-1), math.MinInt64},
	} {
		if got := Micros(tc.t); got != tc.want {
			t.Errorf("Micros(%v) = %d, want %d", tc.t, got, tc.want)
		}
	}
	for _, sec := range []float64{0, 0.02, 1.26, 100.333333, 86400} {
		us := Micros(sec)
		if got := (Event{TMicros: us}).Seconds(); math.Abs(got-sec) > 1e-6 {
			t.Errorf("Seconds(Micros(%v)) = %v, drift over 1µs", sec, got)
		}
	}
}

// TestSendStamp: the client-send stamp round-trips through both decode
// paths, AppendFrameAt with the decoded stamp reproduces the frame bit
// for bit (the canonical re-encode property the fuzz test pins), and
// AppendFrame stamps the wall clock.
func TestSendStamp(t *testing.T) {
	const stamp = int64(1_700_000_123_456_789)
	events := sampleEvents()
	frame, err := NewEncoder().AppendFrameAt(nil, events, stamp)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	if dec.SentNS() != 0 {
		t.Errorf("fresh decoder SentNS = %d, want 0", dec.SentNS())
	}
	got, _, err := dec.DecodeFrame(frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec.SentNS() != stamp {
		t.Errorf("decoded SentNS = %d, want %d", dec.SentNS(), stamp)
	}
	re, err := NewEncoder().AppendFrameAt(nil, got, dec.SentNS())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, frame) {
		t.Error("re-encode with the decoded stamp is not bit-identical")
	}

	// Streaming path: FrameReader surfaces the stamp per frame.
	fr := NewFrameReader(bufio.NewReader(bytes.NewReader(frame)))
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if fr.SentNS() != stamp {
		t.Errorf("FrameReader SentNS = %d, want %d", fr.SentNS(), stamp)
	}

	// AppendFrame stamps the sender's wall clock — never zero.
	wall, err := NewEncoder().AppendFrame(nil, events)
	if err != nil {
		t.Fatal(err)
	}
	dec2 := NewDecoder()
	if _, _, err := dec2.DecodeFrame(wall, nil); err != nil {
		t.Fatal(err)
	}
	if dec2.SentNS() == 0 {
		t.Error("AppendFrame left the send stamp unset")
	}
}

// TestDecodeZeroAlloc is the ingest half of the hot-path allocation
// gate (DESIGN.md §6): decoding a frame of warm-session events must not
// allocate per event — the intern table, delta state, and the caller's
// event buffer absorb everything after the first frame.
func TestDecodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the contract is asserted by the non-race pass")
	}
	enc, dec := NewEncoder(), NewDecoder()
	// The first frame carries the session definition; the steady-state
	// frame under measurement holds only interned references.
	def, err := enc.AppendFrame(nil, []Event{{Session: "warm", Kind: KindDown}})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Event, 0, 64)
	for i := 0; i < 64; i++ {
		batch = append(batch, Event{
			Session: "warm", Finger: 0, Kind: KindMove,
			X: float64(i), Y: float64(2 * i), TMicros: int64(1000 * i),
		})
	}
	frame, err := enc.AppendFrame(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	payload := payloadOf(t, frame)
	// Warm: intern the session and size the event buffer.
	events, err := dec.Decode(payloadOf(t, def), make([]Event, 0, 64))
	if err != nil {
		t.Fatal(err)
	}
	events = events[:0]
	allocs := testing.AllocsPerRun(400, func() {
		events = events[:0]
		var err error
		events, err = dec.Decode(payload, events)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Decode allocated %.2f times per frame; the //glint:hotpath contract requires 0", allocs)
	}
	// But the delta chain advanced — verify decode still yields 64 events.
	if len(events) != 64 {
		t.Fatalf("decoded %d events, want 64", len(events))
	}
}

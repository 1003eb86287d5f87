package netfault

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// memConn is a scriptable in-memory net.Conn half: reads consume a
// buffer, writes append to a log, and every underlying call is counted.
type memConn struct {
	mu     sync.Mutex
	in     bytes.Buffer
	out    bytes.Buffer
	reads  int
	writes int
	closed bool
}

func (m *memConn) Read(b []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reads++
	if m.closed {
		return 0, io.EOF
	}
	return m.in.Read(b)
}

func (m *memConn) Write(b []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writes++
	if m.closed {
		return 0, errors.New("memconn: closed")
	}
	return m.out.Write(b)
}

func (m *memConn) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

func (m *memConn) LocalAddr() net.Addr                { return nil }
func (m *memConn) RemoteAddr() net.Addr               { return nil }
func (m *memConn) SetDeadline(t time.Time) error      { return nil }
func (m *memConn) SetReadDeadline(t time.Time) error  { return nil }
func (m *memConn) SetWriteDeadline(t time.Time) error { return nil }

// TestScheduleDeterminism: two schedules from the same plan make
// identical decisions over a grid of (direction, label, index), and a
// different seed changes the stream.
func TestScheduleDeterminism(t *testing.T) {
	plan := Plan{
		Seed:       42,
		ReadRates:  map[Kind]float64{KindShortRead: 0.2, KindCorrupt: 0.1, KindStall: 0.1, KindReset: 0.05},
		WriteRates: map[Kind]float64{KindSplit: 0.2, KindCorrupt: 0.1, KindTruncate: 0.05, KindJitter: 0.1},
	}
	a, err := NewSchedule(plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSchedule(plan)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewSchedule(Plan{Seed: 43, ReadRates: plan.ReadRates, WriteRates: plan.WriteRates})
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for _, d := range []Dir{DirRead, DirWrite} {
		for _, label := range []string{"a0", "a1", "conn-7"} {
			for i := 0; i < 200; i++ {
				ka, kb := a.Decide(d, label, i), b.Decide(d, label, i)
				if ka != kb {
					t.Fatalf("divergent decision at (%c, %s, %d): %v vs %v", d, label, i, ka, kb)
				}
				if ka != other.Decide(d, label, i) {
					diff++
				}
			}
		}
	}
	if diff == 0 {
		t.Fatal("different seeds made identical decision streams")
	}
	// Rates materialized: each enabled kind fired at least once in 1200
	// draws at >=5% rates.
	counts := a.Counts()
	for _, k := range []Kind{KindShortRead, KindCorrupt, KindStall, KindReset, KindSplit, KindTruncate, KindJitter} {
		if counts[k.String()] == 0 {
			t.Errorf("kind %v never drawn", k)
		}
	}
}

// TestPlanValidation: inapplicable kinds, out-of-range rates, excess
// sums, and negative durations are rejected.
func TestPlanValidation(t *testing.T) {
	for name, p := range map[string]Plan{
		"split on read":        {ReadRates: map[Kind]float64{KindSplit: 0.1}},
		"short read on write":  {WriteRates: map[Kind]float64{KindShortRead: 0.1}},
		"negative rate":        {ReadRates: map[Kind]float64{KindCorrupt: -0.1}},
		"rate above one":       {WriteRates: map[Kind]float64{KindCorrupt: 1.5}},
		"read sum above one":   {ReadRates: map[Kind]float64{KindCorrupt: 0.6, KindReset: 0.6}},
		"write sum above one":  {WriteRates: map[Kind]float64{KindSplit: 0.7, KindJitter: 0.7}},
		"negative stall":       {StallFor: -time.Second},
		"unknown kind on read": {ReadRates: map[Kind]float64{Kind(99): 0.1}},
	} {
		if _, err := NewSchedule(p); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := NewSchedule(Plan{}); err != nil {
		t.Errorf("empty plan rejected: %v", err)
	}
}

// TestNilSafety: nil drivers decide nothing, wrap nothing, and count
// nothing.
func TestNilSafety(t *testing.T) {
	var s *Schedule
	var sc *Schedule // the type NewScript returns
	if k := s.Decide(DirRead, "x", 0); k != KindNone {
		t.Fatalf("nil schedule decided %v", k)
	}
	mc := &memConn{}
	if c := s.Conn(mc, "x"); c != net.Conn(mc) {
		t.Fatal("nil schedule wrapped a conn")
	}
	if c := sc.Conn(mc, "x"); c != net.Conn(mc) {
		t.Fatal("nil script wrapped a conn")
	}
	s.Instrument(nil)
	sc.Instrument(nil)
	s.SetSleep(nil)
	sc.SetSleep(nil)
	if n := len(s.Counts()) + len(sc.Counts()); n != 0 {
		t.Fatalf("nil counts = %d entries", n)
	}
}

// TestScriptWriteFaults: scripted split, corrupt, truncate, and reset
// apply to exactly the scripted write and are visible in counters.
func TestScriptWriteFaults(t *testing.T) {
	reg := obs.New()
	payload := []byte("0123456789abcdefghij") // 20 bytes: longer than a v2 header

	t.Run("split", func(t *testing.T) {
		mc := &memConn{}
		sc := NewScript().Set("c", DirWrite, 0, KindSplit)
		c := sc.Conn(mc, "c")
		n, err := c.Write(payload)
		if n != len(payload) || err != nil {
			t.Fatalf("split write = (%d, %v)", n, err)
		}
		if mc.writes != 2 {
			t.Fatalf("underlying writes = %d, want 2", mc.writes)
		}
		if !bytes.Equal(mc.out.Bytes(), payload) {
			t.Fatal("split write changed bytes")
		}
		if _, err := c.Write(payload); err != nil || mc.writes != 3 {
			t.Fatalf("second write faulted: %v (writes %d)", err, mc.writes)
		}
	})

	t.Run("corrupt avoids stamp window", func(t *testing.T) {
		mc := &memConn{}
		sc := NewScript().Set("c", DirWrite, 0, KindCorrupt)
		sc.Instrument(reg)
		c := sc.Conn(mc, "c")
		if n, err := c.Write(payload); n != len(payload) || err != nil {
			t.Fatalf("corrupt write = (%d, %v)", n, err)
		}
		got := mc.out.Bytes()
		diffs := 0
		pos := -1
		for i := range payload {
			if got[i] != payload[i] {
				diffs++
				pos = i
			}
		}
		if diffs != 1 {
			t.Fatalf("corrupt flipped %d bytes, want 1", diffs)
		}
		if pos >= frameStampLo && pos < frameStampHi {
			t.Fatalf("corruption landed in the stamp window at %d", pos)
		}
		if got := sc.Counts(); got["corrupt"] != 1 {
			t.Fatalf("counts = %v, want corrupt:1", got)
		}
		if v := snapCounter(t, reg, "netfault.injected.corrupt"); v != 1 {
			t.Fatalf("netfault.injected.corrupt = %d, want 1", v)
		}
		if v := snapCounter(t, reg, "netfault.injected.total"); v != 1 {
			t.Fatalf("netfault.injected.total = %d, want 1", v)
		}
	})

	t.Run("truncate", func(t *testing.T) {
		mc := &memConn{}
		sc := NewScript().Set("c", DirWrite, 0, KindTruncate)
		c := sc.Conn(mc, "c")
		n, err := c.Write(payload)
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("truncate err = %v, want ErrInjected", err)
		}
		if n >= len(payload) || n != mc.out.Len() {
			t.Fatalf("truncate delivered %d bytes (logged %d)", n, mc.out.Len())
		}
		if !mc.closed {
			t.Fatal("truncate did not close the conn")
		}
	})

	t.Run("reset", func(t *testing.T) {
		mc := &memConn{}
		sc := NewScript().Set("c", DirWrite, 0, KindReset)
		c := sc.Conn(mc, "c")
		if _, err := c.Write(payload); !errors.Is(err, ErrInjected) {
			t.Fatalf("reset err = %v, want ErrInjected", err)
		}
		if !mc.closed {
			t.Fatal("reset did not close the conn")
		}
	})
}

// TestScriptReadFaults: scripted short reads, read corruption, read
// truncation, and stalls behave as documented.
func TestScriptReadFaults(t *testing.T) {
	payload := []byte("hello-netfault-world")

	t.Run("short read", func(t *testing.T) {
		mc := &memConn{}
		mc.in.Write(payload)
		sc := NewScript().Set("c", DirRead, 0, KindShortRead)
		c := sc.Conn(mc, "c")
		buf := make([]byte, 64)
		n, err := c.Read(buf)
		if n != 1 || err != nil || buf[0] != payload[0] {
			t.Fatalf("short read = (%d, %v, %q)", n, err, buf[:n])
		}
		if n, _ := c.Read(buf); n != len(payload)-1 {
			t.Fatalf("follow-up read = %d, want %d", n, len(payload)-1)
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		mc := &memConn{}
		mc.in.Write(payload)
		sc := NewScript().Set("c", DirRead, 0, KindCorrupt)
		c := sc.Conn(mc, "c")
		buf := make([]byte, 64)
		n, err := c.Read(buf)
		if n != len(payload) || err != nil {
			t.Fatalf("corrupt read = (%d, %v)", n, err)
		}
		diffs := 0
		for i := 0; i < n; i++ {
			if buf[i] != payload[i] {
				diffs++
			}
		}
		if diffs != 1 {
			t.Fatalf("corrupt read flipped %d bytes, want 1", diffs)
		}
	})

	t.Run("truncate is EOF", func(t *testing.T) {
		mc := &memConn{}
		mc.in.Write(payload)
		sc := NewScript().Set("c", DirRead, 0, KindTruncate)
		c := sc.Conn(mc, "c")
		if n, err := c.Read(make([]byte, 8)); n != 0 || err != io.EOF {
			t.Fatalf("truncate read = (%d, %v), want (0, EOF)", n, err)
		}
		if !mc.closed {
			t.Fatal("truncate did not close the conn")
		}
	})

	t.Run("stall and jitter sleep deterministically", func(t *testing.T) {
		mc := &memConn{}
		mc.in.Write(payload)
		sc := NewScript().
			Set("c", DirRead, 0, KindStall).
			Set("c", DirRead, 1, KindJitter)
		var slept []time.Duration
		sc.SetSleep(func(d time.Duration) { slept = append(slept, d) })
		c := sc.Conn(mc, "c")
		buf := make([]byte, 4)
		if _, err := c.Read(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(buf); err != nil {
			t.Fatal(err)
		}
		if len(slept) != 2 {
			t.Fatalf("slept %d times, want 2", len(slept))
		}
		if slept[0] != 20*time.Millisecond {
			t.Fatalf("stall slept %v, want default 20ms", slept[0])
		}
		if slept[1] < 0 || slept[1] >= 2*time.Millisecond {
			t.Fatalf("jitter slept %v, want [0, 2ms)", slept[1])
		}
	})
}

// TestListenerLabels: a wrapped listener labels connections by accept
// order, so decisions are reproducible per accepted connection.
func TestListenerLabels(t *testing.T) {
	s, err := NewSchedule(Plan{Seed: 7, ReadRates: map[Kind]float64{KindShortRead: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := s.Listener(ln)
	defer wrapped.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		c.Write([]byte("abcdef"))
		c.Close()
	}()
	c, err := wrapped.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fc, ok := c.(*Conn)
	if !ok {
		t.Fatalf("accepted conn is %T, want *netfault.Conn", c)
	}
	if fc.label != "a0" {
		t.Fatalf("label = %q, want a0", fc.label)
	}
	// Every read draws KindShortRead at rate 1: reads come back one
	// byte at a time.
	buf := make([]byte, 16)
	n, err := c.Read(buf)
	if err != nil || n != 1 {
		t.Fatalf("short read through listener = (%d, %v)", n, err)
	}
	<-done
}

// TestInstrumentMovesCounts: injections counted before Instrument move
// into the registry with the counters, and Counts reads the registry's
// counters afterwards, so there is one count per kind, not two.
func TestInstrumentMovesCounts(t *testing.T) {
	sc := NewScript().Set("c", DirWrite, 0, KindSplit).Set("c", DirWrite, 1, KindSplit)
	if k := sc.Decide(DirWrite, "c", 0); k != KindSplit {
		t.Fatalf("op 0 decided %v, want split", k)
	}
	reg := obs.New()
	sc.Instrument(reg)
	sc.Instrument(reg) // a second attach to the same registry moves nothing
	if v := snapCounter(t, reg, "netfault.injected.split"); v != 1 {
		t.Fatalf("netfault.injected.split = %d after Instrument, want the 1 counted before", v)
	}
	sc.Decide(DirWrite, "c", 1)
	reg.Counter("netfault.injected.split").Inc()
	if got := sc.Counts()["split"]; got != 3 {
		t.Fatalf("Counts()[split] = %d, want the registry's 3", got)
	}
	if v := snapCounter(t, reg, "netfault.injected.total"); v != 2 {
		t.Fatalf("netfault.injected.total = %d, want 2", v)
	}
}

// snapCounter extracts one counter value from a registry snapshot.
func snapCounter(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %s not in snapshot", name)
	return 0
}

package main

import (
	"container/heap"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"repro/internal/geom"
	"repro/internal/synth"
	"repro/internal/wire"
)

// upDelay is how long after a gesture's last point its mouse-up is due.
const upDelay = 0.01

// cycleEvents is the closed loop's cycle: the events one connection
// generates before its gestures repeat.
const cycleEvents = 1 << 16

// connInput is one connection's traffic, encoded before the run: a pure
// function of (workload, seed, connection), never of timing. Each frame
// carries a zero send stamp; the sender patches the stamp in place, which
// the wire format keeps outside the CRC.
//
// The open loop sends its frames once, in order. The closed loop sends
// one cycle of gestures over and over: the cycle is encoded twice with
// one encoder, first defining each session on the wire and then only
// referring to it, and every repeat after the first sends the second
// encoding. The gestures of a cycle all end before the cycle does, so a
// repeated session starts again only after the engine has retired it.
type connInput struct {
	buf     []byte        // frames back to back
	off     []int         // frame f is buf[off[f]:off[f+1]]
	cycle   int           // frames in one cycle
	evStart []int         // events before frame k of a cycle; the last entry is the cycle's total
	evGest  []int32       // the local gesture of each event of a cycle
	due     []int64       // open loop: when frame k is due, ns after the pass starts
	gest    []gestureInfo // this connection's gestures by local index
}

// gestureInfo is the bookkeeping for one gesture of a connection.
type gestureInfo struct {
	arrive    int64 // due time of its first event, ns (nominal in the closed loop)
	points    int32 // points drawn; its events are these and the mouse-up
	downEv    int32 // its first event, as an index into the cycle's events
	upEv      int32 // its mouse-up
	downFrame int32 // frame of the cycle carrying the first event
	upFrame   int32 // frame of the cycle carrying the mouse-up
}

// frames is the number of encoded frames: one cycle, or two encodings of it.
func (c *connInput) frames() int { return len(c.off) - 1 }

// frame returns the bytes sent as the seq-th frame on the connection.
func (c *connInput) frame(seq int) []byte {
	f := seq
	if seq >= c.cycle {
		f = c.cycle + (seq-c.cycle)%c.cycle
	}
	return c.buf[c.off[f]:c.off[f+1]]
}

// events returns the range of the cycle's events the seq-th frame carries.
func (c *connInput) events(seq int) (from, to int) {
	k := seq % c.cycle
	return c.evStart[k], c.evStart[k+1]
}

// cycleEventCount is the number of events in one cycle.
func (c *connInput) cycleEventCount() int { return c.evStart[c.cycle] }

// gestureID is the run-wide index of local gesture j on connection c.
func gestureID(c, j int) int { return j*conns + c }

// sessionID is the wire session of a gesture: every gesture is its own
// interaction.
func sessionID(id int) string { return "s" + strconv.Itoa(id) }

// parseSession inverts sessionID without allocating.
func parseSession(s string) (int, bool) {
	if len(s) < 2 || s[0] != 's' {
		return 0, false
	}
	id := 0
	for i := 1; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		id = id*10 + int(d)
	}
	return id, true
}

// connSeed derives connection c's generator seed from the run seed.
func connSeed(w workload, seed int64, c int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", w.name, seed, c)
	return int64(h.Sum64() >> 1)
}

// buildInputs builds every connection's frames for a run whose measured
// window lasts seconds after the warmup.
func buildInputs(w workload, seed int64, seconds float64) ([]*connInput, error) {
	in := make([]*connInput, conns)
	for c := range in {
		var err error
		if in[c], err = buildConn(w, seed, c, seconds); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// cursor walks one gesture's events in due order.
type cursor struct {
	id    int32     // local gesture index
	pts   geom.Path // the drawn points; the mouse-up repeats the last one
	start int64     // arrival, µs
	next  int       // next event; len(pts) is the mouse-up
}

func (c *cursor) dueMicros() int64 {
	if c.next < len(c.pts) {
		return c.start + wire.Micros(c.pts[c.next].T)
	}
	return c.start + wire.Micros(c.pts[len(c.pts)-1].T+upDelay)
}

func (c *cursor) event(session string) wire.Event {
	ev := wire.Event{Session: session, Kind: wire.KindMove, TMicros: c.dueMicros()}
	switch {
	case c.next == 0:
		ev.Kind = wire.KindDown
	case c.next == len(c.pts):
		ev.Kind = wire.KindUp
	}
	p := c.pts[min(c.next, len(c.pts)-1)]
	ev.X, ev.Y = p.X, p.Y
	return ev
}

// cursorHeap orders live gestures by their next event's due time.
type cursorHeap []*cursor

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	di, dj := h[i].dueMicros(), h[j].dueMicros()
	return di < dj || di == dj && h[i].id < h[j].id
}
func (h cursorHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x any)   { *h = append(*h, x.(*cursor)) }
func (h *cursorHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}

// buildConn generates connection c's gestures and encodes them. Gestures
// arrive as a Poisson process; each event is timestamped when it is due
// (arrival plus the synthesized 50 Hz offset), so the wire's timestamp
// deltas stay small. The open loop cuts a frame per tick and stops
// arrivals at the end of the window; the closed loop cuts 1024-event
// frames and stops arrivals once the cycle holds cycleEvents events.
// Gestures in progress always run to their mouse-up.
func buildConn(w workload, seed int64, c int, seconds float64) (*connInput, error) {
	rng := rand.New(rand.NewSource(connSeed(w, seed, c)))
	gen := synth.NewGenerator(synth.DefaultParams(rng.Int63()))
	classes := synth.GDPClasses()
	horizon := warmup.Seconds() + seconds
	rate := float64(sessionsPerSec)
	if w.open {
		rate = w.gesturesPerSec / conns
	}
	tickNS := int64(tick)

	in := &connInput{off: []int{0}, evStart: []int{0}}
	enc := wire.NewEncoder()
	var (
		frame    []wire.Event // the frame being cut
		cycle    []wire.Event // closed loop: the whole cycle, for its second encoding
		curTick  int64        = -1
		h        cursorHeap
		sessions []string
	)
	encode := func(events []wire.Event) error {
		var err error
		in.buf, err = enc.AppendFrameAt(in.buf, events, 0)
		in.off = append(in.off, len(in.buf))
		return err
	}
	cut := func() error {
		if len(frame) == 0 {
			return nil
		}
		if err := encode(frame); err != nil {
			return err
		}
		in.evStart = append(in.evStart, in.evStart[len(in.evStart)-1]+len(frame))
		if w.open {
			in.due = append(in.due, (curTick+1)*tickNS)
		} else {
			cycle = append(cycle, frame...)
		}
		frame = frame[:0]
		return nil
	}

	arrive := rng.ExpFloat64() / rate
	scheduled := 0
	arriving := func() bool {
		if w.open {
			return arrive < horizon
		}
		return scheduled < cycleEvents
	}
	for {
		for arriving() && (h.Len() == 0 || wire.Micros(arrive) <= h[0].dueMicros()) {
			pts := gen.Sample(classes[rng.Intn(len(classes))]).G.Points
			id := int32(len(in.gest))
			start := wire.Micros(arrive)
			in.gest = append(in.gest, gestureInfo{arrive: start * 1000, points: int32(len(pts))})
			sessions = append(sessions, sessionID(gestureID(c, int(id))))
			heap.Push(&h, &cursor{id: id, pts: pts, start: start})
			scheduled += len(pts) + 1
			arrive += rng.ExpFloat64() / rate
		}
		if h.Len() == 0 {
			break
		}
		cur := h[0]
		ev := cur.event(sessions[cur.id])
		if w.open {
			if tick := ev.TMicros * 1000 / tickNS; tick != curTick || len(frame) == wire.MaxBatch {
				if err := cut(); err != nil {
					return nil, err
				}
				curTick = tick
			}
		} else if len(frame) == wire.MaxBatch {
			if err := cut(); err != nil {
				return nil, err
			}
		}
		g := &in.gest[cur.id]
		k, e := int32(len(in.evStart)-1), int32(len(in.evGest))
		switch ev.Kind {
		case wire.KindDown:
			g.downEv, g.downFrame = e, k
		case wire.KindUp:
			g.upEv, g.upFrame = e, k
		}
		frame = append(frame, ev)
		in.evGest = append(in.evGest, cur.id)
		if cur.next++; cur.next > len(cur.pts) {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	if err := cut(); err != nil {
		return nil, err
	}
	in.cycle = in.frames()
	for k := 0; k < in.cycle && !w.open; k++ {
		if err := encode(cycle[in.evStart[k]:in.evStart[k+1]]); err != nil {
			return nil, err
		}
	}
	return in, nil
}

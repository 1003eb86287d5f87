package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/multipath"
	"repro/internal/recognizer"
	"repro/internal/serve"
	"repro/internal/wire"
)

// Replay sample sizes for the traced run's layer timings.
const (
	sampleGestures = 3000  // gestures replayed through the backend kernels
	replayEvents   = 50000 // events replayed through Engine.Submit
)

// verdict is why a measured gesture instance failed, or verdictOK.
type verdict uint8

const (
	verdictOK      verdict = iota
	verdictNacked          // an event was refused or its frame went unanswered
	verdictMissing         // no Result arrived
	verdictOutcome         // the Result's outcome was not completed
	verdictClass           // the class differs from the reference
)

// refStream replays one gesture directly through a backend stream the way
// multipath.Session drives it for a single finger: Add until the stream
// fires, End at mouse-up if it never did, and the degraded fallback on an
// error.
type refStream struct {
	s        recognizer.Stream
	decided  bool
	class    string
	degraded bool
	fired    bool
}

func (r *refStream) fail() {
	r.decided = true
	r.class, r.degraded = "", false
	if class, err := r.s.Degrade(); err == nil {
		r.class, r.degraded = class, true
	}
}

func (r *refStream) add(p geom.TimedPoint) {
	if r.decided {
		return
	}
	fired, class, err := r.s.Add(p)
	switch {
	case err != nil:
		r.fail()
	case fired:
		r.decided, r.class, r.fired = true, class, true
	}
}

func (r *refStream) end() {
	if r.decided {
		return
	}
	class, err := r.s.End()
	if err != nil {
		r.fail()
		return
	}
	r.decided, r.class = true, class
}

// reference is a gesture's class as the backend decides it directly.
type reference struct {
	class    string
	degraded bool // the stream failed and the class came from Degrade
}

// instCheck is the accounting for one gesture instance.
type instCheck struct {
	measured bool
	refused  uint16 // events refused or lost
	ends     bool   // the first event or the mouse-up was among them
	verdict  verdict
}

// connCheck is what checking one connection found.
type connCheck struct {
	inst     []instCheck // by cycle*len(gest) + local gesture
	refFired int
	refDone  int
	// miscounted is the gestures whose number of Results differs from
	// their instances begun; early is the Results recorded before their
	// instance's mouse-up was written.
	miscounted int
	early      int
	sample     []geom.Path   // traced: points of the cycle's first gestures
	submit     []serve.Event // traced: the cycle's first events, as ingest submits them
}

// measuredInstance reports whether local gesture j of connection c falls
// in the measured window in the given cycle: it arrived inside the window
// (open loop), or its first and last frames were written inside it
// (closed loop).
func (p *pass) measuredInstance(c, cycle, j int) bool {
	in, r := p.in[c], p.conn[c]
	g := in.gest[j]
	if p.w.open {
		from := p.winA.ns - p.startNS
		return g.arrive >= from && g.arrive < from+int64(p.seconds*float64(time.Second))
	}
	down, up := cycle*in.cycle+int(g.downFrame), cycle*in.cycle+int(g.upFrame)
	return up < r.nSent && r.sent[down] >= p.winA.ns && r.sent[up] < p.winB.ns
}

// check grades every measured gesture instance: refused events from the
// responses, and for instances served in full, the Result against a
// direct replay of the gesture through backend. Connections are checked
// concurrently; the backend is immutable and shared.
func (p *pass) check(backend recognizer.Backend) ([]*connCheck, error) {
	out := make([]*connCheck, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := range out {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c], errs[c] = p.checkConn(c, backend)
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("check connection %d: %w", c, err)
		}
	}
	return out, nil
}

func (p *pass) checkConn(c int, backend recognizer.Backend) (*connCheck, error) {
	in, r := p.in[c], p.conn[c]
	n := len(in.gest)
	cycles := (r.nSent + in.cycle - 1) / in.cycle
	cc := &connCheck{inst: make([]instCheck, cycles*n)}
	refuse := func(seq, idx int) {
		from, _ := in.events(seq)
		e := from + idx
		j := int(in.evGest[e])
		x := &cc.inst[seq/in.cycle*n+j]
		x.refused++
		if g := in.gest[j]; e == int(g.downEv) || e == int(g.upEv) {
			x.ends = true
		}
	}
	for _, nk := range r.nacks {
		refuse(int(nk.seq), int(nk.idx))
	}
	for seq := r.nAck; seq < r.nSent; seq++ {
		from, to := in.events(seq)
		for i := 0; i < to-from; i++ {
			refuse(seq, i)
		}
	}
	// Once the stack has closed, every instance whose first event was
	// written has ended in exactly one Result, and none before its
	// mouse-up was written. A repeated Result files the ones after it
	// under the next instance, so it shows as both.
	for j, g := range in.gest {
		id, begun := gestureID(c, j), 0
		for ; begun*in.cycle+int(g.downFrame) < r.nSent; begun++ {
			k, up := p.instance(begun, id), begun*in.cycle+int(g.upFrame)
			if up < r.nSent && p.resNS[k] != 0 && p.resNS[k] < r.sent[up] {
				cc.early++
			}
		}
		if int(p.round[id]) != begun {
			cc.miscounted++
		}
	}
	need := make([]bool, n)
	for i := range cc.inst {
		cycle, j := i/n, i%n
		x := &cc.inst[i]
		x.measured = p.measuredInstance(c, cycle, j)
		if x.measured && x.refused == 0 && p.resNS[p.instance(cycle, gestureID(c, j))] != 0 {
			need[j] = true
		}
	}
	refs, err := p.replayConn(c, backend, need, cc)
	if err != nil {
		return nil, err
	}
	for i := range cc.inst {
		x := &cc.inst[i]
		if !x.measured {
			continue
		}
		cycle, j := i/n, i%n
		id := gestureID(c, j)
		k := p.instance(cycle, id)
		ref := refs[j]
		switch {
		case x.refused > 0:
			x.verdict = verdictNacked
		case p.resNS[k] == 0 || ref == nil:
			x.verdict = verdictMissing
		case p.resBad[k] == badOutcome:
			x.verdict = verdictOutcome
		case p.resBad[k] == badRepeat || ref.degraded || p.class[id] != ref.class:
			x.verdict = verdictClass
		}
	}
	return cc, nil
}

// replayConn decodes one cycle of the frames connection c wrote and
// replays the gestures marked in need through fresh backend streams. It returns each replayed gesture's
// reference, by local index.
func (p *pass) replayConn(c int, backend recognizer.Backend, need []bool, cc *connCheck) ([]*reference, error) {
	in := p.in[c]
	refs := make([]*reference, len(need))
	live := map[int32]*refStream{}
	var pool []*refStream
	sampleOf := map[int32]int{}
	dec := wire.NewDecoder()
	evs := make([]wire.Event, 0, wire.MaxBatch)
	for f := 0; f < min(in.cycle, p.conn[c].nSent); f++ {
		var err error
		if evs, _, err = dec.DecodeFrame(in.frame(f), evs[:0]); err != nil {
			return nil, fmt.Errorf("frame %d: %w", f, err)
		}
		from, _ := in.events(f)
		for i, ev := range evs {
			j := in.evGest[from+i]
			if id, ok := parseSession(ev.Session); !ok || id != gestureID(c, int(j)) {
				return nil, fmt.Errorf("frame %d event %d: session %q, want gesture %d", f, i, ev.Session, j)
			}
			pt := geom.TimedPoint{X: ev.X, Y: ev.Y, T: ev.Seconds()}
			if p.traced && c == 0 {
				p.collect(cc, sampleOf, j, ev, pt)
			}
			if !need[j] {
				continue
			}
			rs := live[j]
			switch ev.Kind {
			case wire.KindDown:
				if k := len(pool); k > 0 {
					rs, pool = pool[k-1], pool[:k-1]
					rs.s.Reset()
					*rs = refStream{s: rs.s}
				} else {
					s, err := backend.NewStream()
					if err != nil {
						return nil, err
					}
					rs = &refStream{s: s}
				}
				live[j] = rs
				rs.add(pt)
			case wire.KindMove:
				rs.add(pt)
			case wire.KindUp:
				rs.end()
				refs[j] = &reference{class: rs.class, degraded: rs.degraded}
				cc.refDone++
				if rs.fired {
					cc.refFired++
				}
				delete(live, j)
				pool = append(pool, rs)
			}
		}
	}
	return refs, nil
}

// collect keeps the traced run's replay inputs: the points of the first
// sampleGestures gestures and the first replayEvents events, in wire
// order.
func (p *pass) collect(cc *connCheck, sampleOf map[int32]int, j int32, ev wire.Event, pt geom.TimedPoint) {
	if ev.Kind == wire.KindDown && len(cc.sample) < sampleGestures {
		sampleOf[j] = len(cc.sample)
		cc.sample = append(cc.sample, nil)
	}
	if s, ok := sampleOf[j]; ok && ev.Kind != wire.KindUp {
		cc.sample[s] = append(cc.sample[s], pt)
	}
	if len(cc.submit) < replayEvents {
		cc.submit = append(cc.submit, serve.Event{
			Session: ev.Session, Finger: multipath.FingerID(ev.Finger),
			Kind: multipath.EventKind(ev.Kind), X: ev.X, Y: ev.Y, T: pt.T,
		})
	}
}

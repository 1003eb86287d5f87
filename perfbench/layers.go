package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/eager"
	"repro/internal/features"
	"repro/internal/flight"
	"repro/internal/geom"
	"repro/internal/linalg"
	"repro/internal/multipath"
	"repro/internal/obs"
	"repro/internal/recognizer"
	"repro/internal/serve"
	"repro/internal/wire"
)

// overheadOf lists the metrics whose traced-minus-untraced difference the
// traced run reports as trace.overhead.<metric>, without the e2e. prefix.
// The two passes run one after the other in one process, so max_rss_mb, a
// high-water mark of the whole process, has no per-pass difference.
var overheadOf = []string{
	"e2e.gesture_p50_us", "e2e.ack_p50_us", "e2e.events_per_s",
	"cpu_us_per_event", "alloc_b_per_event",
}

// layerMetrics computes the per-layer metrics of the traced pass p; base
// is the untraced pass of the same run. The live-path numbers come from the
// harness's own records; the rest from replaying the run's inputs through
// each layer's public functions afterwards.
func layerMetrics(p *pass, base *evaluation) (map[string]float64, error) {
	e, cc, st := p.eval, p.cc, p.st
	m := map[string]float64{}
	for _, name := range []string{"e2e.gesture_p50_us", "e2e.gesture_p99_us", "e2e.ack_p50_us", "e2e.ack_p99_us", "e2e.events_per_s"} {
		m[name] = base.m[name] // measured with tracing off
	}
	for _, name := range []string{"loadgen.nack_ratio", "loadgen.gesture_fail_ratio"} {
		m[name] = e.m[name]
	}

	m["loadgen.late_p50_us"] = us(quantile(e.late, 0.50))
	m["loadgen.late_p99_us"] = us(quantile(e.late, 0.99))
	m["loadgen.frames"] = float64(e.frames)
	m["loadgen.events"] = float64(e.events)
	m["loadgen.gestures"] = float64(e.gestures)

	if err := replayWire(p.in[0], m); err != nil {
		return nil, fmt.Errorf("wire replay: %w", err)
	}

	m["ingest.rtt_p50_us"] = us(quantile(e.rtt, 0.50))
	m["ingest.rtt_p99_us"] = us(quantile(e.rtt, 0.99))
	for code := wire.NackBadEvent; code <= wire.NackOverload; code++ {
		m["ingest.nacks."+code.String()] = float64(e.nacks[code])
	}
	m["ingest.fatal"] = float64(e.fatal)

	submit, err := replaySubmit(p.w, cc[0].submit)
	if err != nil {
		return nil, fmt.Errorf("submit replay: %w", err)
	}
	m["serve.submit_ns_p50"] = quantile(submit, 0.50)
	m["serve.submit_ns_p99"] = quantile(submit, 0.99)
	m["serve.result_lag_p50_us"] = us(quantile(e.lag, 0.50))
	m["serve.result_lag_p99_us"] = us(quantile(e.lag, 0.99))
	m["serve.queue_wait_p50_us"], m["serve.queue_wait_p99_us"] = 0, 0
	if st.reg != nil {
		h := st.reg.Histogram("serve.queue.wait_ns", obs.LatencyBuckets())
		m["serve.queue_wait_p50_us"] = us(h.Quantile(0.50))
		m["serve.queue_wait_p99_us"] = us(h.Quantile(0.99))
	}
	a, b := p.winA.stats, p.winB.stats
	m["serve.completed"] = float64(b.Completed - a.Completed)
	m["serve.rejected"] = float64(b.Rejected - a.Rejected)
	m["serve.bad"] = float64(b.Bad - a.Bad)
	m["serve.degraded"] = float64(b.Degraded - a.Degraded)

	if err := replayAdmission(p.w, cc[0].submit, m); err != nil {
		return nil, fmt.Errorf("admission replay: %w", err)
	}

	for _, name := range []string{"eager", "template"} {
		var b recognizer.Backend
		trainNS := timed(func() { b, err = trainBackend(name, nil, trainSeed) })
		if err != nil {
			return nil, err
		}
		m[name+".train_s"] = float64(trainNS) / 1e9
		if err := replayBackend(name, b, cc[0].sample, m); err != nil {
			return nil, err
		}
		if rec, ok := b.(*eager.Recognizer); ok {
			if err := replayFeatures(rec, cc[0].sample, m); err != nil {
				return nil, err
			}
		}
	}

	var offered, captured uint64
	if st.rec != nil {
		offered, captured = st.rec.Stats()
	}
	m["flight.offered"] = float64(offered)
	m["flight.captured"] = float64(captured)

	for _, name := range overheadOf {
		m["trace.overhead."+strings.TrimPrefix(name, "e2e.")] = e.m[name] - base.m[name]
	}
	m["trace.unexplained_gesture_p50_us"] = e.m["e2e.gesture_p50_us"] -
		(m["loadgen.late_p50_us"] + m["ingest.rtt_p50_us"] + m["serve.result_lag_p50_us"])
	return m, nil
}

// timed runs f and returns how long it took, in ns.
func timed(f func()) int64 {
	t := time.Now()
	f()
	return int64(time.Since(t))
}

// replayWire decodes every encoded frame of in with a fresh decoder, then
// decodes them again and re-encodes the events with a fresh encoder,
// timing the decoder in the first pass and the encoder in the second.
func replayWire(in *connInput, m map[string]float64) error {
	runtime.GC() // so the pass's garbage is not collected on the replay's time
	evs := make([]wire.Event, 0, wire.MaxBatch)
	dec := wire.NewDecoder()
	var decNS, events int64
	for f := 0; f < in.frames(); f++ {
		var err error
		decNS += timed(func() { evs, _, err = dec.DecodeFrame(in.frame(f), evs[:0]) })
		if err != nil {
			return err
		}
		events += int64(len(evs))
	}
	dec, enc := wire.NewDecoder(), wire.NewEncoder()
	var buf []byte
	var encNS int64
	for f := 0; f < in.frames(); f++ {
		var err error
		if evs, _, err = dec.DecodeFrame(in.frame(f), evs[:0]); err != nil {
			return err
		}
		encNS += timed(func() { buf, err = enc.AppendFrameAt(buf[:0], evs, 0) })
		if err != nil {
			return err
		}
	}
	m["wire.decode_ns_per_event"] = ratio(float64(decNS), float64(events))
	m["wire.encode_ns_per_event"] = ratio(float64(encNS), float64(events))
	m["wire.bytes_per_event"] = ratio(float64(len(in.buf)), float64(events))
	return nil
}

// replayBackend replays the sample through streams of the uninstrumented
// backend b as the engine drives them: Add until the stream fires, End at
// mouse-up if it never did.
func replayBackend(name string, b recognizer.Backend, sample []geom.Path, m map[string]float64) error {
	s, err := b.NewStream()
	if err != nil {
		return err
	}
	var add, end []int64
	fired, examined, total := 0, 0, 0
	for _, g := range sample {
		s.Reset()
		seen, hit := 0, false
		for _, pt := range g {
			var f bool
			add = append(add, timed(func() { f, _, _ = s.Add(pt) }))
			seen++
			if f {
				hit = true
				break
			}
		}
		if hit {
			fired++
		} else {
			end = append(end, timed(func() { _, _ = s.End() }))
		}
		examined += seen
		total += len(g)
	}
	m[name+".add_ns_p50"] = quantile(add, 0.50)
	m[name+".add_ns_p99"] = quantile(add, 0.99)
	m[name+".end_ns_p50"] = quantile(end, 0.50)
	m[name+".fired_share"] = ratio(float64(fired), float64(len(sample)))
	m[name+".commit_frac"] = ratio(float64(examined), float64(total))
	return nil
}

// replayFeatures replays the sample through the eager recognizer's
// feature extractor and its ambiguous/unambiguous classifier, point by
// point.
func replayFeatures(rec *eager.Recognizer, sample []geom.Path, m map[string]float64) error {
	ext, err := features.NewExtractor(rec.Full.Opts)
	if err != nil {
		return err
	}
	vec := make(linalg.Vec, rec.Full.Opts.Dim())
	scores := make([]float64, rec.AUC.NumClasses())
	var add, vector, score []int64
	for _, g := range sample {
		ext.Reset()
		for _, pt := range g {
			add = append(add, timed(func() { ext.Add(pt) }))
			var f linalg.Vec
			vector = append(vector, timed(func() { f, err = ext.VectorInto(vec) }))
			if err == nil {
				score = append(score, timed(func() { _, _ = rec.AUC.ScoreInto(f, scores) }))
			}
		}
	}
	m["features.add_ns_p50"] = quantile(add, 0.50)
	m["features.vector_ns_p50"] = quantile(vector, 0.50)
	m["classifier.score_ns_p50"] = quantile(score, 0.50)
	return nil
}

// replaySubmit submits events straight into a fresh engine configured as
// the workload's, timing each Engine.Submit that the engine accepts. A
// full queue is waited out with Flush and the event submitted again.
func replaySubmit(w workload, events []serve.Event) ([]int64, error) {
	opts := serve.Options{}
	var reg *obs.Registry
	if w.obs {
		reg = obs.New()
		opts.Obs = reg
		opts.Flight = flight.NewRecorder(flight.Options{Trigger: flight.TriggerAlways})
	}
	var err error
	if opts.Backend, err = trainBackend(w.backend, reg, trainSeed); err != nil {
		return nil, err
	}
	eng, err := serve.New(nil, opts)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	times := make([]int64, 0, len(events))
	for _, ev := range events {
		for {
			d := timed(func() { err = eng.Submit(ev) })
			if errors.Is(err, serve.ErrQueueFull) {
				if err := eng.Flush(); err != nil {
					return nil, err
				}
				continue
			}
			if err == nil {
				times = append(times, d)
			}
			break
		}
	}
	return times, nil
}

// admitTarget is the admission replay's queue-wait target, as gserve
// -admit-target 2ms arms the controller.
const admitTarget = 2 * time.Millisecond

// replayAdmission floods events into a fresh engine serving the
// workload's backend with the admission controller armed, and reads the
// controller's getters every 10 ms. Submitting until a shard queue is
// full and then waiting for the queues to drain makes queue wait grow
// with the backend's decide time, so the controller sheds when the
// backend is slow to drain a full queue. It also reports the share of
// accepted events that belong to gestures whose every event was
// accepted, over the gestures that end within the replay.
func replayAdmission(w workload, events []serve.Event, m map[string]float64) error {
	b, err := trainBackend(w.backend, nil, trainSeed)
	if err != nil {
		return err
	}
	adm, err := serve.NewAdmission(serve.AdmitOptions{Target: admitTarget})
	if err != nil {
		return err
	}
	eng, err := serve.New(nil, serve.Options{Backend: b, Admission: adm})
	if err != nil {
		return err
	}
	defer eng.Close()

	var shed, wait, brown, samples float64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				shed += float64(adm.ShedPerMille())
				wait += float64(adm.WaitP99())
				if adm.State() == serve.AdmitBrownout {
					brown++
				}
				samples++
			}
		}
	}()
	type tally struct{ events, accepted int }
	gestures := map[string]*tally{}
	useful, accepted := 0, 0
	for _, ev := range events {
		g := gestures[ev.Session]
		if g == nil {
			g = &tally{}
			gestures[ev.Session] = g
		}
		g.events++
		for {
			err = eng.Submit(ev)
			if !errors.Is(err, serve.ErrQueueFull) {
				break
			}
			if err := eng.Flush(); err != nil {
				close(stop)
				return err
			}
		}
		if err == nil {
			g.accepted++
		}
		if ev.Kind == multipath.FingerUp {
			accepted += g.accepted
			if g.accepted == g.events {
				useful += g.accepted
			}
		}
	}
	err = eng.Flush()
	close(stop)
	<-done
	if err != nil {
		return err
	}
	m["serve.admit.shed_permille_mean"] = ratio(shed, samples)
	m["serve.admit.wait_p99_us"] = us(ratio(wait, samples))
	m["serve.admit.brownout_share"] = ratio(brown, samples)
	m["serve.useful_event_ratio"] = ratio(float64(useful), float64(accepted))
	return nil
}

// spanGestures caps the gesture instances per connection whose spans
// writeSpans writes, so a closed-loop trace stays a few tens of MB.
const spanGestures = 10000

// writeSpans writes the traced pass's harness spans as JSON lines: per
// measured frame a "frame" span (due to response read) with its
// "send_wait" (due to write) and "round_trip" (write to response read)
// children; per correctly served gesture instance, up to spanGestures per
// connection, a "gesture" span (due time of the frame carrying its
// mouse-up to the Result) linked to that frame, with its "result_lag"
// (that frame's response to the Result) and "on_result" (time inside the
// callback) children. Times are ns after the pass epoch.
func (p *pass) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	span := func(trace, name, parent string, start, end int64) {
		fmt.Fprintf(bw, `{"trace":%q,"span":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n", trace, name, parent, start, end)
	}
	for c, in := range p.in {
		r := p.conn[c]
		due := func(seq int) int64 {
			if p.w.open {
				return p.startNS + in.due[seq]
			}
			return r.sent[seq]
		}
		for seq := 0; seq < r.nAck; seq++ {
			if d := due(seq); d >= p.winA.ns && d < p.winB.ns {
				id := fmt.Sprintf("c%d.f%d", c, seq)
				span(id, "frame", "", d, r.ack[seq])
				span(id, "send_wait", "frame", d, r.sent[seq])
				span(id, "round_trip", "frame", r.sent[seq], r.ack[seq])
			}
		}
		n, written := len(in.gest), 0
		for i, x := range p.cc[c].inst {
			if !x.measured || x.verdict != verdictOK || written == spanGestures {
				continue
			}
			written++
			cycle, j := i/n, i%n
			inst := p.instance(cycle, gestureID(c, j))
			up := cycle*in.cycle + int(in.gest[j].upFrame)
			at := p.resNS[inst]
			trace := fmt.Sprintf("%s.%d", sessionID(gestureID(c, j)), cycle)
			span(trace, "gesture", fmt.Sprintf("c%d.f%d", c, up), due(up), at)
			span(trace, "result_lag", "gesture", r.ack[up], at)
			span(trace, "on_result", "gesture", at, at+int64(p.cbNS[inst]))
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorting xs), or 0
// for no samples.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(xs, func(i, j int) bool { return xs[i] < xs[j] }) {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return float64(xs[max(i, 0)])
}

func us(ns float64) float64 { return ns / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// verdictNames label the failure tallies in the run metadata.
var verdictNames = [...]string{"ok", "nacked", "missing", "outcome", "class"}

// evaluation is what one pass measured and checked.
type evaluation struct {
	m map[string]float64 // metrics by name

	gestures  int            // measured gestures
	verdicts  [5]int         // measured gestures by verdict
	failed    int            // gestures that count as failures for this workload
	problems  []string       // why the pass is not correct
	frames    int            // measured frames
	events    int            // events in measured frames
	points    int            // points of measured gestures
	nacks     [6]int         // measured events by wire.NackCode (index 0 unused)
	lost      int            // measured events whose frame went unanswered
	fatal     int            // fatal responses on any connection
	samples   map[string]int // sample count behind each latency distribution
	refFired  int
	refDone   int
	misfiled  int // gestures miscounted plus Results before their mouse-up
	windowSec float64
	// stealShare is the share of the host's CPU time over the window that
	// the hypervisor gave to others while this machine's CPUs wanted to
	// run (steal in /proc/stat), or 0 where that is not readable.
	stealShare float64

	// Live-path distributions, ns.
	ack, gesture, late, rtt, lag []int64
}

// evaluate computes the end-to-end metrics of a driven and checked pass,
// plus the live-path distributions the traced layer metrics read.
func (p *pass) evaluate(cc []*connCheck) *evaluation {
	e := &evaluation{m: map[string]float64{}, samples: map[string]int{}}
	winLen := int64(p.seconds * float64(time.Second))
	if !p.w.open {
		winLen = p.winB.ns - p.winA.ns
	}
	e.windowSec = float64(winLen) / 1e9
	accepted := 0
	for c, in := range p.in {
		r := p.conn[c]
		e.fatal += r.fatal
		due := func(seq int) int64 {
			if p.w.open {
				return p.startNS + in.due[seq]
			}
			return r.sent[seq]
		}
		inWindow := func(seq int) bool {
			d := due(seq)
			return seq < r.nSent && d >= p.winA.ns && d < p.winA.ns+winLen
		}
		for seq := 0; seq < r.nSent; seq++ {
			if !inWindow(seq) {
				continue
			}
			from, to := in.events(seq)
			e.frames++
			e.events += to - from
			if seq >= r.nAck {
				e.lost += to - from
				continue
			}
			accepted += to - from
			e.ack = append(e.ack, r.ack[seq]-due(seq))
			e.rtt = append(e.rtt, r.ack[seq]-r.sent[seq])
			e.late = append(e.late, r.sent[seq]-due(seq))
		}
		for _, nk := range r.nacks {
			if inWindow(int(nk.seq)) {
				accepted--
				if int(nk.code) < len(e.nacks) {
					e.nacks[nk.code]++
				}
			}
		}
		n := len(in.gest)
		for i, x := range cc[c].inst {
			if !x.measured {
				continue
			}
			cycle, j := i/n, i%n
			g := in.gest[j]
			e.gestures++
			e.verdicts[x.verdict]++
			e.points += int(g.points)
			i := p.instance(cycle, gestureID(c, j))
			up := cycle*in.cycle + int(g.upFrame)
			if x.ends || p.resNS[i] == 0 || p.resBad[i] == badOutcome || up >= r.nAck {
				continue
			}
			e.gesture = append(e.gesture, p.resNS[i]-due(up))
			e.lag = append(e.lag, p.resNS[i]-r.ack[up])
		}
		e.misfiled += cc[c].miscounted + cc[c].early
		e.refFired += cc[c].refFired
		e.refDone += cc[c].refDone
	}

	e.failed = e.gestures - e.verdicts[verdictOK]
	nacked := e.events - accepted
	e.check(p, nacked)

	e.samples["ack"] = len(e.ack)
	e.samples["gesture"] = len(e.gesture)
	e.m["e2e.gesture_p50_us"] = us(quantile(e.gesture, 0.50))
	e.m["e2e.ack_p50_us"] = us(quantile(e.ack, 0.50))
	e.m["e2e.gesture_p99_us"] = us(quantile(e.gesture, 0.99))
	e.m["e2e.ack_p99_us"] = us(quantile(e.ack, 0.99))
	e.m["e2e.events_per_s"] = float64(accepted) / e.windowSec
	// Cost is charged to the events the server accepted: shedding an event
	// is nearly free, so per attempted event the cost would fall as the
	// shed share rises.
	e.m["cpu_us_per_event"] = ratio(us(float64(p.winB.cpuNS-p.winA.cpuNS)), float64(accepted))
	e.m["alloc_b_per_event"] = ratio(float64(p.winB.alloc-p.winA.alloc), float64(accepted))
	e.m["max_rss_mb"] = p.maxRSSMB
	e.stealShare = ratio(float64(p.winB.stealJ-p.winA.stealJ), float64(p.winB.totalJ-p.winA.totalJ))
	e.m["loadgen.nack_ratio"] = ratio(float64(nacked), float64(e.events))
	e.m["loadgen.gesture_fail_ratio"] = 1 - ratio(float64(e.verdicts[verdictOK]), float64(e.gestures))
	return e
}

// check records every reason the pass is not correct.
func (e *evaluation) check(p *pass, nacked int) {
	fail := func(s string) { e.problems = append(e.problems, s) }
	if e.gestures == 0 || e.events == 0 {
		fail("nothing measured")
	}
	if e.failed > 0 {
		fail("gestures failed")
	}
	if e.fatal > 0 || e.lost > 0 {
		fail("connection-fatal responses or unanswered frames")
	}
	if p.dupes.Load() > 0 || p.stray.Load() > 0 || e.misfiled > 0 {
		fail("missing, duplicate or unknown session results")
	}
	if nacked > 0 {
		fail("events refused")
	}
}

// metricUnits is every metric the program measures, with its unit.
var metricUnits = map[string]string{
	"cpu_us_per_event":  "us/event",
	"alloc_b_per_event": "B/event",
	"max_rss_mb":        "MB",
	"setup_s":           "s",

	"e2e.gesture_p50_us": "us",
	"e2e.gesture_p99_us": "us",
	"e2e.ack_p50_us":     "us",
	"e2e.ack_p99_us":     "us",
	"e2e.events_per_s":   "1/s",

	"loadgen.late_p50_us":        "us",
	"loadgen.late_p99_us":        "us",
	"loadgen.frames":             "count",
	"loadgen.events":             "count",
	"loadgen.gestures":           "count",
	"loadgen.nack_ratio":         "ratio",
	"loadgen.gesture_fail_ratio": "ratio",

	"wire.encode_ns_per_event": "ns/event",
	"wire.decode_ns_per_event": "ns/event",
	"wire.bytes_per_event":     "B/event",

	"ingest.rtt_p50_us":       "us",
	"ingest.rtt_p99_us":       "us",
	"ingest.nacks.bad_event":  "count",
	"ingest.nacks.queue_full": "count",
	"ingest.nacks.shed":       "count",
	"ingest.nacks.closed":     "count",
	"ingest.nacks.overload":   "count",
	"ingest.fatal":            "count",

	"serve.submit_ns_p50":     "ns",
	"serve.submit_ns_p99":     "ns",
	"serve.result_lag_p50_us": "us",
	"serve.result_lag_p99_us": "us",
	"serve.queue_wait_p50_us": "us",
	"serve.queue_wait_p99_us": "us",
	"serve.completed":         "count",
	"serve.rejected":          "count",
	"serve.bad":               "count",
	"serve.degraded":          "count",

	"serve.admit.shed_permille_mean": "permille",
	"serve.admit.wait_p99_us":        "us",
	"serve.admit.brownout_share":     "ratio",
	"serve.useful_event_ratio":       "ratio",

	"eager.add_ns_p50":        "ns",
	"eager.add_ns_p99":        "ns",
	"eager.end_ns_p50":        "ns",
	"eager.fired_share":       "ratio",
	"eager.commit_frac":       "ratio",
	"eager.train_s":           "s",
	"features.add_ns_p50":     "ns",
	"features.vector_ns_p50":  "ns",
	"classifier.score_ns_p50": "ns",

	"template.add_ns_p50":  "ns",
	"template.add_ns_p99":  "ns",
	"template.end_ns_p50":  "ns",
	"template.fired_share": "ratio",
	"template.commit_frac": "ratio",
	"template.train_s":     "s",

	"flight.offered":  "count",
	"flight.captured": "count",

	"trace.overhead.gesture_p50_us":    "us",
	"trace.overhead.ack_p50_us":        "us",
	"trace.overhead.events_per_s":      "1/s",
	"trace.overhead.cpu_us_per_event":  "us/event",
	"trace.overhead.alloc_b_per_event": "B/event",
	"trace.unexplained_gesture_p50_us": "us",
}

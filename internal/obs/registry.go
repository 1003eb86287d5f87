package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"
)

// SnapshotSchema is the version of the Snapshot structure (and therefore
// of the JSON documents cmd/gserve and cmd/gbench emit under their
// "metrics" keys). Bump it whenever a field is renamed, removed, or
// changes meaning; adding metrics does not bump it.
const SnapshotSchema = 1

// Registry names and owns a process's instruments. Accessors register on
// first use and return the same instrument for the same name thereafter,
// so independent packages can share metrics by name. A nil *Registry is
// fully usable: every accessor returns nil, which every instrument
// treats as "disabled" — instrumented code never branches on whether
// observability is attached.
//
// Concurrency: all methods are safe for concurrent use. Registration
// takes a mutex; the metric instruments are lock-free (see Counter,
// Histogram, Ring), and a SpanBuffer locks only the one slot it writes.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	windows  map[string]windowed
	rings    map[string]*Ring
	spans    map[string]*SpanBuffer
	// clk is the clock windowed instruments rotate on: the wall clock
	// until SetClock installs another (serve.New forwards its virtual
	// clock here). Atomic so SetClock is safe against concurrent
	// observations.
	clk clockSource
}

// windowed is the registry's common handle on the two windowed
// instrument kinds — exactly one of the fields is non-nil.
type windowed struct {
	c *WindowedCounter
	h *WindowedHistogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		windows:  make(map[string]windowed),
		rings:    make(map[string]*Ring),
		spans:    make(map[string]*SpanBuffer),
	}
}

// SetClock installs the clock windowed instruments rotate on — the hook
// that lets the serving engine's virtual clock (a ManualClock) drive
// window rotation deterministically in tests. A nil c restores
// the wall clock. Safe for concurrent use; a no-op on a nil registry.
func (r *Registry) SetClock(c Clock) {
	if r == nil {
		return
	}
	if c == nil {
		r.clk.set(nil)
		return
	}
	r.clk.set(c)
}

// Counter returns the named counter, registering it on first use.
// Returns nil (the disabled instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, registering it with the given
// bucket boundaries on first use. Later calls return the existing
// histogram regardless of the bounds argument — boundaries are fixed at
// registration, which is what keeps snapshots structurally
// deterministic. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Gauge returns the named gauge, registering it on first use. Returns
// nil (the disabled instrument) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// WindowedCounter returns the named windowed counter, registering it on
// first use with the given slot duration and slot count (non-positive
// values select DefaultWindowSlot / DefaultWindowSlots). Later calls
// return the existing instrument regardless of the sizing arguments —
// ring geometry is fixed at registration, like histogram bounds.
// Returns nil on a nil registry. Registering the same name as both a
// windowed counter and a windowed histogram is a programming error; the
// first registration wins and the mismatched accessor returns nil.
func (r *Registry) WindowedCounter(name string, slot time.Duration, slots int) *WindowedCounter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.windows[name]
	if !ok {
		w = windowed{c: newWindowedCounter(slot, slots, &r.clk)}
		r.windows[name] = w
	}
	return w.c
}

// WindowedHistogram returns the named windowed histogram, registering
// it on first use with the given bucket boundaries and ring geometry
// (non-positive sizing selects the defaults). Later calls return the
// existing instrument regardless of the arguments. Returns nil on a nil
// registry, and nil when the name is already a windowed counter.
func (r *Registry) WindowedHistogram(name string, bounds []float64, slot time.Duration, slots int) *WindowedHistogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.windows[name]
	if !ok {
		w = windowed{h: newWindowedHistogram(bounds, slot, slots, &r.clk)}
		r.windows[name] = w
	}
	return w.h
}

// Ring returns the named trace ring, registering it with the given
// capacity on first use (non-positive capacity selects the 1024-entry
// default). Later calls return the existing ring regardless of the
// capacity argument. Returns nil on a nil registry.
func (r *Registry) Ring(name string, capacity int) *Ring {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rg, ok := r.rings[name]
	if !ok {
		rg = newRing(capacity)
		r.rings[name] = rg
	}
	return rg
}

// Spans returns the named span buffer, registering it with the given
// capacity on first use (non-positive capacity selects the 8192-record
// default). Later calls return the existing buffer regardless of the
// capacity argument. Returns nil on a nil registry.
func (r *Registry) Spans(name string, capacity int) *SpanBuffer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.spans[name]
	if !ok {
		b = newSpanBuffer(capacity)
		r.spans[name] = b
	}
	return b
}

// CounterSnap is the point-in-time value of one counter inside a
// Snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a structured, JSON-serializable view of every registered
// instrument, sorted by name within each section. Its structure — the
// set of names, histogram bucket boundaries, and field layout — is
// deterministic for a given instrumented workload; only the observed
// values vary run to run. OBSERVABILITY.md documents every name the repo
// emits, and TestSnapshotMatchesObservabilityContract holds the two in
// sync.
type Snapshot struct {
	Schema     int             `json:"schema"`
	Counters   []CounterSnap   `json:"counters"`
	Gauges     []GaugeSnap     `json:"gauges"`
	Histograms []HistogramSnap `json:"histograms"`
	Windows    []WindowSnap    `json:"windows"`
	Traces     []TraceSnap     `json:"traces"`
	Spans      []SpanSnap      `json:"spans"`
}

// Window returns the named windowed instrument's snapshot section, or a
// zero WindowSnap (Slots == 0) when absent — the lookup the SLO
// evaluator and gtop run per objective.
func (s Snapshot) Window(name string) WindowSnap {
	for _, w := range s.Windows {
		if w.Name == name {
			return w
		}
	}
	return WindowSnap{}
}

// Snapshot captures the current state of every instrument. Counters and
// histogram buckets are read atomically per value; a snapshot taken
// while events are in flight is internally consistent per instrument but
// not across instruments (a submit may be counted whose latency is not
// yet observed). On a nil registry it returns an empty snapshot with the
// current schema.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Schema:     SnapshotSchema,
		Counters:   []CounterSnap{},
		Gauges:     []GaugeSnap{},
		Histograms: []HistogramSnap{},
		Windows:    []WindowSnap{},
		Traces:     []TraceSnap{},
		Spans:      []SpanSnap{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	windows := make(map[string]windowed, len(r.windows))
	for k, v := range r.windows {
		windows[k] = v
	}
	rings := make(map[string]*Ring, len(r.rings))
	for k, v := range r.rings {
		rings[k] = v
	}
	spans := make(map[string]*SpanBuffer, len(r.spans))
	for k, v := range r.spans {
		spans[k] = v
	}
	r.mu.Unlock()

	for name, c := range counters {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: c.Value()})
	}
	for name, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: g.Value()})
	}
	for name, h := range hists {
		s.Histograms = append(s.Histograms, h.snapshot(name))
	}
	for name, w := range windows {
		if w.c != nil {
			s.Windows = append(s.Windows, w.c.snapshot(name))
		} else if w.h != nil {
			s.Windows = append(s.Windows, w.h.snapshot(name))
		}
	}
	for name, rg := range rings {
		s.Traces = append(s.Traces, rg.snapshot(name))
	}
	for name, b := range spans {
		s.Spans = append(s.Spans, b.snapshot(name))
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	sort.Slice(s.Windows, func(i, j int) bool { return s.Windows[i].Name < s.Windows[j].Name })
	sort.Slice(s.Traces, func(i, j int) bool { return s.Traces[i].Name < s.Traces[j].Name })
	sort.Slice(s.Spans, func(i, j int) bool { return s.Spans[i].Name < s.Spans[j].Name })
	return s
}

// WriteText renders the snapshot as a human-readable report: counters as
// a name/value table, histograms with count, mean, min/max, and
// estimated p50/p95/p99 (the distribution view the paper's evaluation is
// built on — averages hide the commit-point and latency tails), a
// one-line summary per span buffer, and the tail of each trace ring.
func (s Snapshot) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "# obs snapshot (schema %d)\n", s.Schema)
	if len(s.Counters) > 0 {
		fmt.Fprintf(tw, "\ncounter\tvalue\n")
		for _, c := range s.Counters {
			fmt.Fprintf(tw, "%s\t%d\n", c.Name, c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintf(tw, "\ngauge\tvalue\n")
		for _, g := range s.Gauges {
			fmt.Fprintf(tw, "%s\t%.4g\n", g.Name, g.Value)
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintf(tw, "\nhistogram\tcount\tmean\tmin\tmax\tp50\tp95\tp99\n")
		for _, h := range s.Histograms {
			fmt.Fprintf(tw, "%s\t%d\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\n",
				h.Name, h.Count, h.Mean(), h.Min, h.Max,
				h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
		}
	}
	if len(s.Windows) > 0 {
		fmt.Fprintf(tw, "\nwindow\tslot\tlive\tcount(1m)\trate(1m)/s\n")
		for _, win := range s.Windows {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.4g\n",
				win.Name, time.Duration(win.SlotNS), len(win.Live),
				win.Total(time.Minute), win.Rate(time.Minute))
		}
	}
	for _, sp := range s.Spans {
		fmt.Fprintf(tw, "\nspans %s\t(%d recorded, cap %d; export with WriteChromeTrace / /debug/trace)\n",
			sp.Name, sp.Recorded, sp.Cap)
	}
	for _, t := range s.Traces {
		fmt.Fprintf(tw, "\ntrace %s\t(%d emitted, cap %d)\n", t.Name, t.Emitted, t.Cap)
		events := t.Events
		const tail = 16
		if len(events) > tail {
			fmt.Fprintf(tw, "...\t%d older events elided\n", len(events)-tail)
			events = events[len(events)-tail:]
		}
		for _, e := range events {
			fmt.Fprintf(tw, "%d\t%s\t%s\t%s\n",
				e.Seq, time.Unix(0, e.At).UTC().Format("15:04:05.000"), e.Name, e.Detail)
		}
	}
	return tw.Flush()
}

// Report renders the registry's current snapshot as the human-readable
// WriteText report and returns it as a string — the quick way to dump
// state from tests or a debugger. Works on a nil registry (reports the
// empty snapshot).
func (r *Registry) Report() string {
	var b strings.Builder
	// WriteText cannot fail on a strings.Builder (its Write never errors).
	_ = r.Snapshot().WriteText(&b)
	return b.String()
}

// Handler returns an http.Handler serving the registry's Snapshot as an
// indented JSON document — the expvar-style dump cmd/gserve mounts at
// /metrics. Safe to call with a nil registry (serves the empty
// snapshot).
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		// Encoding errors here mean the client went away; nothing to do.
		_ = enc.Encode(r.Snapshot())
	})
}

// TextHandler returns an http.Handler serving the human-readable report
// of WriteText — cmd/gserve mounts it at /metrics.txt. Safe with a nil
// registry.
func TextHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = r.Snapshot().WriteText(w)
	})
}

// Package slo evaluates declarative service-level objectives against the
// windowed telemetry in internal/obs. An Objective states a target in
// operator terms — "eager decide p99 < 500µs", "wire NACK ratio < 0.1%"
// — and the Engine turns the registry's windowed snapshots into
// multi-window burn rates with typed ok/warn/page states, following the
// Google SRE multi-window multi-burn-rate alerting shape: page when the
// budget is burning ≥ PageBurn over both fast windows (5m and 1h), warn
// when it burns ≥ WarnBurn over both slow windows (30m and 6h). Requiring
// both windows makes the page condition spike-resistant (the short window
// must *still* be burning) and the warn condition drift-sensitive.
//
// Rubine's integration argument is exactly an SLO statement: eager
// recognition is only "integrated with direct manipulation" while the
// mid-stroke decide latency stays imperceptible, so the default
// objectives encode that bound as an error budget over live windows
// rather than a since-process-start average.
//
// Evaluate publishes each objective's state as slo.* gauges in the same
// registry (so /metrics and /metrics.prom carry them) and returns the
// full Evaluation for the /slo JSON endpoint and gtop.
package slo

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/obs"
)

// Burn-rate thresholds and window pairs of the multi-window alerting
// policy. A burn rate of 1.0 consumes exactly the error budget over the
// objective's period; 14.4 is the classic "2% of a 30-day budget in one
// hour" paging threshold.
const (
	// PageBurn is the burn rate at or above which — on both fast
	// windows — an objective pages.
	PageBurn = 14.4
	// WarnBurn is the burn rate at or above which — on both slow
	// windows — an objective warns.
	WarnBurn = 6.0

	// FastShort and FastLong are the paired paging windows.
	FastShort = 5 * time.Minute
	FastLong  = time.Hour
	// SlowShort and SlowLong are the paired warning windows.
	SlowShort = 30 * time.Minute
	SlowLong  = 6 * time.Hour
)

// Kind selects how an Objective derives its bad/total ratio from the
// windowed snapshots.
type Kind int

const (
	// KindLatency reads one windowed histogram: bad observations are
	// those above ThresholdNS, total is the window's count.
	KindLatency Kind = iota
	// KindRatio reads two windowed counters: Bad over Total.
	KindRatio
)

// String names the kind for reports and JSON.
func (k Kind) String() string {
	switch k {
	case KindLatency:
		return "latency"
	case KindRatio:
		return "ratio"
	default:
		return "unknown"
	}
}

// MarshalJSON encodes the kind by name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a kind from its name (the inverse of
// MarshalJSON, so Evaluation documents round-trip — gtop decodes /slo).
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "ratio":
		*k = KindRatio
	default:
		*k = KindLatency
	}
	return nil
}

// State is an objective's evaluated health, ordered by severity.
type State int

const (
	// StateOK means the budget is not burning beyond either alerting
	// policy.
	StateOK State = iota
	// StateWarn means both slow windows burn at ≥ WarnBurn: the budget
	// is eroding and will exhaust if the trend holds.
	StateWarn
	// StatePage means both fast windows burn at ≥ PageBurn: the budget
	// is burning fast enough to demand immediate attention.
	StatePage
)

// String names the state for reports, gauges, and gtop.
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateWarn:
		return "warn"
	case StatePage:
		return "page"
	default:
		return "unknown"
	}
}

// MarshalJSON encodes the state by name.
func (s State) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes a state from its name.
func (s *State) UnmarshalJSON(data []byte) error {
	var v string
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	switch v {
	case "warn":
		*s = StateWarn
	case "page":
		*s = StatePage
	default:
		*s = StateOK
	}
	return nil
}

// Objective is one declarative service-level objective. Latency
// objectives name a windowed histogram (Window) and bound the fraction
// of observations above ThresholdNS by Budget ("p99 < 500µs" is
// ThresholdNS 5e5 with Budget 0.01). Ratio objectives name two windowed
// counters and bound Bad/Total by Budget. Budget is the allowed bad
// fraction; the burn rate is the observed bad fraction divided by it.
type Objective struct {
	// Name identifies the objective; gauges publish under
	// slo.<Name>.{burn_fast,burn_slow,state}.
	Name string `json:"name"`
	// Description is the operator-facing statement of the target.
	Description string `json:"description,omitempty"`
	// Kind selects the evaluation shape.
	Kind Kind `json:"kind"`
	// Window names the windowed histogram a latency objective reads.
	Window string `json:"window,omitempty"`
	// ThresholdNS is the latency bound in nanoseconds. Align it with a
	// bucket boundary of the window's histogram for an exact count;
	// otherwise the partially-covered bucket counts as bad
	// (conservative toward alerting).
	ThresholdNS float64 `json:"threshold_ns,omitempty"`
	// Bad and Total name the windowed counters a ratio objective reads.
	Bad   string `json:"bad,omitempty"`
	Total string `json:"total,omitempty"`
	// Budget is the allowed bad fraction (0.01 = 1%).
	Budget float64 `json:"budget"`
}

// DefaultObjectives returns the repo's stock objectives: the eager
// decide-latency bound from the paper's imperceptibility argument and a
// wire ingestion health ratio. The slice is fresh on every call.
func DefaultObjectives() []Objective {
	return []Objective{
		{
			Name:        "decide_p99",
			Description: "eager decide p99 < 500µs over the fast window",
			Kind:        KindLatency,
			Window:      "window.eager.decide_ns",
			ThresholdNS: 5e5,
			Budget:      0.01,
		},
		{
			Name:        "wire_nack_ratio",
			Description: "wire NACK ratio < 0.1% of decoded events",
			Kind:        KindRatio,
			Bad:         "window.wire.nacks",
			Total:       "window.wire.events.decoded",
			Budget:      0.001,
		},
	}
}

// WindowBurn is one window's contribution to an objective's evaluation:
// the requested window, the slot-granular span actually covered (shorter
// when the ring is smaller than the request — see obs.WindowSnap.Covered),
// the bad/total counts observed in it, and the resulting burn rate.
type WindowBurn struct {
	WindowNS  int64   `json:"window_ns"`
	CoveredNS int64   `json:"covered_ns"`
	Bad       int64   `json:"bad"`
	Total     int64   `json:"total"`
	Burn      float64 `json:"burn"`
}

// Status is one objective's evaluated result: the four window burns, the
// gating fast/slow burn rates (the minimum of each pair — both windows
// must burn for the pair to fire), and the resulting state.
type Status struct {
	Objective Objective  `json:"objective"`
	FastShort WindowBurn `json:"fast_short"`
	FastLong  WindowBurn `json:"fast_long"`
	SlowShort WindowBurn `json:"slow_short"`
	SlowLong  WindowBurn `json:"slow_long"`
	// BurnFast is min(FastShort.Burn, FastLong.Burn) — the value
	// compared against PageBurn and published as slo.<name>.burn_fast.
	BurnFast float64 `json:"burn_fast"`
	// BurnSlow is min(SlowShort.Burn, SlowLong.Burn) — compared against
	// WarnBurn and published as slo.<name>.burn_slow.
	BurnSlow float64 `json:"burn_slow"`
	State    State   `json:"state"`
}

// EvaluationSchema versions the Evaluation JSON document /slo serves.
const EvaluationSchema = 1

// Evaluation is the full result of one Engine.Evaluate pass — the /slo
// endpoint's JSON body.
type Evaluation struct {
	Schema     int      `json:"schema"`
	AtNS       int64    `json:"at_ns"`
	Objectives []Status `json:"objectives"`
	// Admission is the serving engine's admission-controller state
	// ("healthy" or "brownout") when the engine was built with an
	// admission source — operators correlating a burning objective with
	// /slo see at a glance whether the server is already shedding.
	// Omitted when no source is wired.
	Admission string `json:"admission,omitempty"`
}

// Engine evaluates a fixed set of objectives against one registry and
// publishes their states as gauges into the same registry. Safe for
// concurrent Evaluate calls (each works on its own snapshot; gauge
// stores are atomic).
type Engine struct {
	reg        *obs.Registry
	objectives []Objective
	clk        obs.Clock
	admission  func() string
}

// SetAdmission wires an admission-state source into the engine: each
// Evaluate stamps fn's result into Evaluation.Admission. Pass something
// like `func() string { return eng.AdmitState().String() }`. Call before
// the engine is shared across goroutines (it is not synchronized).
func (e *Engine) SetAdmission(fn func() string) { e.admission = fn }

// New builds an engine over reg. A nil clk uses the wall clock; pass the
// serving engine's virtual clock to make evaluations deterministic in
// tests and obsdemo. A nil reg yields an engine whose evaluations see no
// data (every objective reads empty windows and reports ok).
func New(reg *obs.Registry, objectives []Objective, clk obs.Clock) *Engine {
	return &Engine{reg: reg, objectives: append([]Objective(nil), objectives...), clk: clk}
}

// Objectives returns the engine's objectives (a copy).
func (e *Engine) Objectives() []Objective {
	return append([]Objective(nil), e.objectives...)
}

func (e *Engine) now() time.Time {
	if e.clk != nil {
		return e.clk.Now()
	}
	return time.Now()
}

// Evaluate snapshots the registry, computes every objective's burn
// rates and state, publishes them as slo.<name>.{burn_fast, burn_slow,
// state} gauges, and returns the full evaluation.
func (e *Engine) Evaluate() Evaluation {
	snap := e.reg.Snapshot()
	ev := Evaluation{
		Schema:     EvaluationSchema,
		AtNS:       e.now().UnixNano(),
		Objectives: make([]Status, 0, len(e.objectives)),
	}
	if e.admission != nil {
		ev.Admission = e.admission()
	}
	for _, o := range e.objectives {
		st := evaluate(o, snap)
		ev.Objectives = append(ev.Objectives, st)
		e.reg.Gauge("slo." + o.Name + ".burn_fast").Set(st.BurnFast)
		e.reg.Gauge("slo." + o.Name + ".burn_slow").Set(st.BurnSlow)
		e.reg.Gauge("slo." + o.Name + ".state").Set(float64(st.State))
	}
	return ev
}

// evaluate computes one objective's status from a snapshot.
func evaluate(o Objective, snap obs.Snapshot) Status {
	st := Status{
		Objective: o,
		FastShort: burnOver(o, snap, FastShort),
		FastLong:  burnOver(o, snap, FastLong),
		SlowShort: burnOver(o, snap, SlowShort),
		SlowLong:  burnOver(o, snap, SlowLong),
	}
	st.BurnFast = min2(st.FastShort.Burn, st.FastLong.Burn)
	st.BurnSlow = min2(st.SlowShort.Burn, st.SlowLong.Burn)
	switch {
	case st.BurnFast >= PageBurn:
		st.State = StatePage
	case st.BurnSlow >= WarnBurn:
		st.State = StateWarn
	default:
		st.State = StateOK
	}
	return st
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// burnOver computes one window's bad/total counts and burn rate for o.
func burnOver(o Objective, snap obs.Snapshot, d time.Duration) WindowBurn {
	var bad, total int64
	var covered time.Duration
	switch o.Kind {
	case KindLatency:
		w := snap.Window(o.Window)
		covered = w.Covered(d)
		m := w.Merge(d)
		total = m.Count
		bad = countAbove(m, o.ThresholdNS)
	case KindRatio:
		bw, tw := snap.Window(o.Bad), snap.Window(o.Total)
		covered = tw.Covered(d)
		bad, total = bw.Total(d), tw.Total(d)
	}
	wb := WindowBurn{WindowNS: int64(d), CoveredNS: int64(covered), Bad: bad, Total: total}
	if total > 0 && o.Budget > 0 {
		wb.Burn = (float64(bad) / float64(total)) / o.Budget
	}
	return wb
}

// countAbove counts the observations in m that may exceed threshold: the
// sum of every bucket whose span reaches past it. Exact when threshold
// is a bucket boundary; otherwise the straddling bucket counts as bad
// (conservative toward alerting).
func countAbove(m obs.HistogramSnap, threshold float64) int64 {
	var below int64
	for i, c := range m.Counts {
		if i < len(m.Bounds) && m.Bounds[i] <= threshold {
			below += c
		}
	}
	return m.Count - below
}

// Handler returns an http.Handler that runs one Evaluate per request and
// serves the resulting Evaluation as indented JSON — cmd/gserve mounts
// it at /slo.
func Handler(e *Engine) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		// Encoding errors mean the client went away; nothing to do.
		_ = enc.Encode(e.Evaluate())
	})
}

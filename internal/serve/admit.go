package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// AdmitState is the admission controller's coarse health signal,
// published on serve.admit.state and gserve's /healthz and /slo.
type AdmitState int

// Admission controller states.
const (
	// AdmitHealthy: queue wait is within the target; everything is
	// admitted.
	AdmitHealthy AdmitState = iota
	// AdmitBrownout: queue-wait p99 exceeded the target for the
	// sustain period; a fraction of incoming work is shed early with
	// ErrOverloaded and a retry-after hint instead of queueing doomed
	// events.
	AdmitBrownout
)

// String names the state as /healthz and /slo report it ("healthy",
// "brownout").
func (s AdmitState) String() string {
	switch s {
	case AdmitHealthy:
		return "healthy"
	case AdmitBrownout:
		return "brownout"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// AdmitOptions configures the adaptive admission controller
// (Options.Admit). The zero value of each field picks the documented
// default, so AdmitOptions{} is a working CoDel-style configuration.
type AdmitOptions struct {
	// Target is the queue-wait p99 the controller defends; sustained
	// excess triggers brownout. 0 means 5ms.
	Target time.Duration
	// Interval is the evaluation cadence (and the trailing window the
	// p99 is computed over). 0 means 100ms.
	Interval time.Duration
	// Sustain is how many consecutive over-target intervals are
	// required before shedding starts — the guard against reacting to a
	// single burst. 0 means 3.
	Sustain int
	// ShedMin is the initial (and minimum sustained) shed fraction in
	// (0, 1]; shedding below it returns to healthy. 0 means 0.05.
	ShedMin float64
	// ShedMax caps the shed fraction as it doubles under continued
	// overload. 0 means 0.9.
	ShedMax float64
	// RetryAfter is the pacing hint clients receive with an overload
	// NACK. 0 means 50ms.
	RetryAfter time.Duration
	// Clock is the evaluation time source; nil means the engine's
	// clock (wall time unless Options.Clock injects a virtual one).
	Clock obs.Clock
	// Obs, when set, receives the serve.admit.* metrics (see
	// OBSERVABILITY.md); nil leaves the controller unpublished but
	// fully functional.
	Obs *obs.Registry
}

// admitDefaults fills zero fields with the documented defaults.
func (o AdmitOptions) admitDefaults() AdmitOptions {
	if o.Target == 0 {
		o.Target = 5 * time.Millisecond
	}
	if o.Interval == 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.Sustain == 0 {
		o.Sustain = 3
	}
	if o.ShedMin == 0 {
		o.ShedMin = 0.05
	}
	if o.ShedMax == 0 {
		o.ShedMax = 0.9
	}
	if o.RetryAfter == 0 {
		o.RetryAfter = 50 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = obs.WallClock{}
	}
	return o
}

// Admission is the CoDel-style adaptive admission controller: it
// watches the engine's queue-wait distribution over a trailing window
// and, when the p99 stays over the target for the sustain period,
// sheds a deterministic fraction of incoming submits early (before
// they are queued) with ErrOverloaded plus a retry-after hint. The
// shed fraction doubles each further bad interval up to ShedMax and
// halves on good intervals; once it falls below ShedMin the controller
// returns to AdmitHealthy. All methods are safe for concurrent use and
// nil-safe (a nil *Admission admits everything), and the per-submit
// cost is a few atomic operations — evaluation work happens at most
// once per Interval, off the decision's fast path.
type Admission struct {
	target     time.Duration
	interval   time.Duration
	sustain    int64
	shedMin    int64 // permille
	shedMax    int64 // permille
	retryAfter time.Duration
	clock      obs.Clock

	// wait is the trailing queue-wait distribution, kept in priv — a
	// private registry, so the public metric namespace only carries the
	// serve.admit.* results, not the controller's working state.
	wait *obs.WindowedHistogram
	priv *obs.Registry

	lastEval     atomic.Int64 // unix ns of the last evaluation
	shedPerMille atomic.Int64 // current shed fraction, 0 when healthy
	badStreak    atomic.Int64 // consecutive over-target intervals
	state        atomic.Int64 // AdmitState
	seq          atomic.Uint64
	p99          atomic.Int64 // last evaluated wait p99, ns

	mShed    *obs.Counter         // serve.admit.shed
	mShedWin *obs.WindowedCounter // window.serve.admit.shed
	gState   *obs.Gauge           // serve.admit.state
	gShed    *obs.Gauge           // serve.admit.shed_permille
	gP99     *obs.Gauge           // serve.admit.wait_p99_ns
}

// NewAdmission validates the options and builds a controller. Negative
// durations, a negative Sustain, or shed fractions outside (0, 1] or
// with ShedMin > ShedMax are errors.
func NewAdmission(opts AdmitOptions) (*Admission, error) {
	if opts.Target < 0 || opts.Interval < 0 || opts.RetryAfter < 0 {
		return nil, fmt.Errorf("serve: negative admission duration (target %v, interval %v, retry-after %v)",
			opts.Target, opts.Interval, opts.RetryAfter)
	}
	if opts.Sustain < 0 {
		return nil, fmt.Errorf("serve: Sustain must be >= 0, got %d", opts.Sustain)
	}
	if opts.ShedMin < 0 || opts.ShedMin > 1 || opts.ShedMax < 0 || opts.ShedMax > 1 {
		return nil, fmt.Errorf("serve: shed fractions must be in [0, 1], got min %v max %v", opts.ShedMin, opts.ShedMax)
	}
	opts = opts.admitDefaults()
	if opts.ShedMin > opts.ShedMax {
		return nil, fmt.Errorf("serve: ShedMin %v > ShedMax %v", opts.ShedMin, opts.ShedMax)
	}
	a := &Admission{
		target:     opts.Target,
		interval:   opts.Interval,
		sustain:    int64(opts.Sustain),
		shedMin:    int64(opts.ShedMin * 1000),
		shedMax:    int64(opts.ShedMax * 1000),
		retryAfter: opts.RetryAfter,
		clock:      opts.Clock,
	}
	if a.shedMin < 1 {
		a.shedMin = 1
	}
	if a.shedMax < a.shedMin {
		a.shedMax = a.shedMin
	}
	// Private working registry: one windowed histogram sized so the
	// trailing interval is always fully covered, rotating on the
	// controller's clock.
	a.priv = obs.New()
	a.priv.SetClock(opts.Clock)
	a.wait = a.priv.WindowedHistogram("admit.wait_ns", obs.LatencyBuckets(), opts.Interval, 4)
	if opts.Obs != nil {
		a.mShed = opts.Obs.Counter("serve.admit.shed")
		a.mShedWin = opts.Obs.WindowedCounter("window.serve.admit.shed", 0, 0)
		a.gState = opts.Obs.Gauge("serve.admit.state")
		a.gShed = opts.Obs.Gauge("serve.admit.shed_permille")
		a.gP99 = opts.Obs.Gauge("serve.admit.wait_p99_ns")
	}
	return a, nil
}

// waitP99 computes the queue-wait p99 over the trailing window from
// the private registry. The merge spans two slots — the current
// (partial) interval plus the previous full one — because evaluation
// fires just past an interval boundary, when the current slot is
// nearly empty. Evaluation-path only.
func (a *Admission) waitP99() float64 {
	return a.priv.Snapshot().Window("admit.wait_ns").Merge(2 * a.interval).Quantile(0.99)
}

// Admit decides one submit: true admits it; false sheds it (the caller
// returns ErrOverloaded and the shed is counted into serve.admit.*).
// Deterministic pacing, not sampling: with a shed fraction of p/1000,
// exactly p of every 1000 consecutive decisions shed, so tests and
// replays see stable counts. Nil-safe: a nil controller admits.
//
//glint:hotpath
func (a *Admission) Admit() bool {
	if a == nil {
		return true
	}
	a.maybeEvaluate()
	p := a.shedPerMille.Load()
	if p == 0 {
		return true
	}
	seq := a.seq.Add(1)
	if uint64(p)*seq/1000 == uint64(p)*(seq-1)/1000 {
		return true
	}
	a.mShed.Inc()
	a.mShedWin.Inc()
	return false
}

// Observe feeds one queue-wait measurement (enqueue to dequeue) into
// the controller's trailing window. The engine calls it from the shard
// loop at dequeue. Nil-safe.
//
//glint:hotpath
func (a *Admission) Observe(wait time.Duration) {
	if a == nil {
		return
	}
	a.wait.Observe(float64(wait))
	a.maybeEvaluate()
}

// maybeEvaluate runs the interval state machine at most once per
// Interval: the first caller past the boundary CAS-claims the
// evaluation, everyone else proceeds without blocking.
//
//glint:hotpath
func (a *Admission) maybeEvaluate() {
	now := a.clock.Now().UnixNano()
	last := a.lastEval.Load()
	if now-last < int64(a.interval) {
		return
	}
	if !a.lastEval.CompareAndSwap(last, now) {
		return
	}
	a.evaluate()
}

// evaluate is the once-per-interval state machine step: compute the
// trailing-window wait p99, update the bad-interval streak, and adjust
// the shed fraction (start at ShedMin after Sustain bad intervals,
// double while bad, halve while good, drop to healthy below ShedMin).
//
//glint:coldpath runs at most once per Interval; the window merge allocates
func (a *Admission) evaluate() {
	p99 := a.waitP99()
	a.p99.Store(int64(p99))
	over := p99 > float64(a.target)
	var streak int64
	if over {
		streak = a.badStreak.Add(1)
	} else {
		a.badStreak.Store(0)
	}
	p := a.shedPerMille.Load()
	switch {
	case over && streak >= a.sustain:
		if p == 0 {
			p = a.shedMin
		} else if p < a.shedMax {
			p *= 2
			if p > a.shedMax {
				p = a.shedMax
			}
		}
	case !over && p > 0:
		p /= 2
		if p < a.shedMin {
			p = 0
		}
	}
	a.shedPerMille.Store(p)
	st := AdmitHealthy
	if p > 0 {
		st = AdmitBrownout
	}
	a.state.Store(int64(st))
	a.gState.Set(float64(st))
	a.gShed.Set(float64(p))
	a.gP99.Set(p99)
}

// State returns the controller's current coarse state. Nil-safe
// (healthy).
func (a *Admission) State() AdmitState {
	if a == nil {
		return AdmitHealthy
	}
	a.maybeEvaluate()
	return AdmitState(a.state.Load())
}

// ShedPerMille returns the current shed fraction in permille (0 when
// healthy). Nil-safe.
func (a *Admission) ShedPerMille() int64 {
	if a == nil {
		return 0
	}
	return a.shedPerMille.Load()
}

// WaitP99 returns the queue-wait p99 of the last evaluation. Nil-safe.
func (a *Admission) WaitP99() time.Duration {
	if a == nil {
		return 0
	}
	return time.Duration(a.p99.Load())
}

// RetryAfterMS returns the pacing hint, in milliseconds, a shed client
// should wait before resubmitting: the configured base scaled up with
// the shed fraction (base × (1 + permille/250)), so a deepening
// brownout pushes clients back harder. 0 when not shedding. Nil-safe.
func (a *Admission) RetryAfterMS() int64 {
	if a == nil {
		return 0
	}
	p := a.shedPerMille.Load()
	if p == 0 {
		return 0
	}
	base := int64(a.retryAfter / time.Millisecond)
	if base < 1 {
		base = 1
	}
	return base * (1 + p/250)
}

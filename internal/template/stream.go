package template

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/gesture"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/recognizer"
)

// sessionMetrics is the streaming-recognition instrumentation shared by
// every Session a Recognizer spawns — the template.* half of the
// OBSERVABILITY.md contract, mirroring the eager.* family. All handles
// are nil until Instrument attaches a registry, so uninstrumented
// sessions pay only sub-5ns no-op calls per point.
type sessionMetrics struct {
	decideNS    *obs.Histogram         // template.decide_ns: per-point latency of one Add
	decideWinNS *obs.WindowedHistogram // window.template.decide_ns: rolling-window sibling of decideNS
	commitFrac  *obs.Histogram         // template.commit_frac: commit point as fraction of gesture length (Run replays)
	firedEager  *obs.Counter           // template.fired.eager: strokes committed mid-stroke
	firedEnd    *obs.Counter           // template.fired.end: strokes classified only at End
	resets      *obs.Counter           // template.session.resets
	poisoned    *obs.Counter           // template.session.poisoned: strokes poisoned by a non-finite point
	degraded    *obs.Counter           // template.session.degraded: poisoned strokes recovered via Degrade
}

// Instrument attaches the recognizer's streaming metrics (the
// template.* names — see OBSERVABILITY.md) to the registry. A nil
// registry is a no-op. Like eager.Recognizer.Instrument this mutates
// the recognizer, so call it before the recognizer is shared (before
// serve.New or serve.Engine.Swap); sessions created afterwards record
// into the registry.
func (r *Recognizer) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r.m = sessionMetrics{
		decideNS:    reg.Histogram("template.decide_ns", obs.LatencyBuckets()),
		decideWinNS: reg.WindowedHistogram("window.template.decide_ns", obs.LatencyBuckets(), 0, 0),
		commitFrac:  reg.Histogram("template.commit_frac", obs.FractionBuckets()),
		firedEager:  reg.Counter("template.fired.eager"),
		firedEnd:    reg.Counter("template.fired.end"),
		resets:      reg.Counter("template.session.resets"),
		poisoned:    reg.Counter("template.session.poisoned"),
		degraded:    reg.Counter("template.session.degraded"),
	}
}

// sampleFactor sizes the incremental sample buffer: sampleFactor x
// Opts.Points samples are kept before the spacing doubles and the
// buffer decimates. Larger means finer prefix fidelity per rebuild,
// smaller means less memory; 4 keeps a 64-point matcher's buffer at
// 256 points (4 KiB) with resample error well under a probe interval.
const sampleFactor = 4

// Session consumes one stroke's points as they arrive — the streaming
// $1-style counterpart of eager.Session, and the template backend's
// recognizer.Stream. It maintains an incrementally-resampled sketch of
// the stroke so far (equidistant samples whose spacing doubles when the
// buffer fills, so consuming a point is O(1) amortized with
// constant-bounded memory no matter how long the stroke runs) and, in
// eager mode (Options.CommitMargin > 0), scores the normalized prefix
// against every template per point, committing mid-stroke once the
// best-template margin clears the threshold. Terminal scoring at End is
// the classic batch behavior over the same sketch.
//
// Like eager.Session, a Session is single-goroutine, poisoned by
// non-finite input until Reset, and allocation-free per Add once
// constructed (machine-checked — see DESIGN.md §6).
type Session struct {
	r *Recognizer

	raw      int  // finite points consumed so far
	poisoned bool // a non-finite point arrived; Add/End error until Reset
	decided  bool
	class    string
	// decidedAt is the raw point count when the eager commit fired; 0
	// when the stroke only classified at End.
	decidedAt int
	noted     bool // poisoned-stroke counted (once per stroke, not per Add)

	// The incremental resample sketch. samples holds equidistant
	// on-path samples at the current spacing; spacing 0 is the raw
	// phase, where every consumed point is its own sample (strokes
	// shorter than the buffer — the common case — are kept exactly).
	// last is the last consumed raw point; residual is the arc length
	// from the last emitted sample to last, always < spacing.
	samples  []geom.Point
	scratch  []geom.Point // rebuild target, swapped with samples
	probe    []geom.Point // Opts.Points-sized scoring buffer
	last     geom.Point
	spacing  float64
	residual float64
	// rawBounds is the raw (unnormalized) bounding box of every finite
	// point consumed — the commit gate's raw-size veto input
	// (Options.ScaleTolerance). Tracked exactly even after the sketch
	// decimates.
	rawBounds geom.Rect

	// The commit stability gate (Options.CommitStreak): streakClass is
	// the nearest class on the previous scored point, streak how many
	// consecutive points it has stayed nearest with a non-growing best
	// distance (prevBest).
	streakClass string
	streak      int
	prevBest    float64

	// seedBest and seedOther are the previous scored point's winner and
	// runner-up template indices (-1 when there is none): score's seed
	// bound. The probe moves little between points, so they stay close.
	seedBest, seedOther int

	// Instrumentation (copied from the recognizer at NewSession; all
	// no-ops when the recognizer is uninstrumented) and per-session
	// tracing/capture hooks, mirroring eager.Session.
	m          sessionMetrics
	span       *obs.Span
	tap        recognizer.Tap
	lastMargin float64
	lastBest   string
	// decideSp is the owned storage every Add refills with its "decide"
	// span, so tracing reuses it instead of allocating (see
	// obs.Span.ChildIn).
	decideSp obs.Span
}

// NewSession starts a streaming template-matching session. It fails
// when the recognizer is unusable: no templates loaded (ErrNoTemplates)
// or a corrupt resample count. Every buffer the per-point path needs is
// allocated here, once, so Add stays allocation-free; pool sessions
// (serve.Engine does) and Reset between strokes to amortize this
// constructor away.
//
//glint:coldpath runs once per gesture stream, not per point; session pooling (multipath.Session.Reset) amortizes even that away
func (r *Recognizer) NewSession() (*Session, error) {
	if r.Opts.Points < 2 {
		return nil, fmt.Errorf("template: resample count must be >= 2, got %d", r.Opts.Points)
	}
	if len(r.Templates) == 0 {
		return nil, ErrNoTemplates
	}
	m := sampleFactor * r.Opts.Points
	return &Session{
		r:         r,
		samples:   make([]geom.Point, 0, m),
		scratch:   make([]geom.Point, 0, m),
		probe:     make([]geom.Point, r.Opts.Points),
		rawBounds: geom.EmptyRect(),
		seedBest:  -1,
		seedOther: -1,
		m:         r.m,
	}, nil
}

// NewStream starts a streaming session behind the backend-neutral
// recognizer.Stream interface — the adapter that makes *Recognizer a
// recognizer.Backend.
//
//glint:coldpath runs once per gesture stream, not per point; session pooling amortizes it away
func (r *Recognizer) NewStream() (recognizer.Stream, error) {
	return r.NewSession()
}

// Caps reports the template backend's capability flags: eager exactly
// when the commit margin is armed (Options.CommitMargin > 0), and
// degraded-fallback always — Degrade rescores the finite prefix sketch,
// which a poisoned point never touched. See recognizer.Caps and
// BACKENDS.md.
func (r *Recognizer) Caps() recognizer.Caps {
	return recognizer.Caps{Name: "template", Eager: r.Opts.CommitMargin > 0, DegradedFallback: true}
}

// SetSpan attaches a parent trace span: every subsequent Add records a
// "decide" child span with per-point attributes (point index, best
// class, commit margin, the class on commit, the error text of a
// poisoned step) plus commit/reset/poisoned instants — the same span
// vocabulary the eager backend records, so one trace viewer serves
// both. A nil span (the default) disables tracing at sub-5ns cost per
// call site. Single-goroutine; call before the first Add.
func (s *Session) SetSpan(parent *obs.Span) { s.span = parent }

// SetTap attaches a decision tap — the flight recorder's capture hook
// (flight.Capture implements recognizer.Tap). A nil tap (the default)
// disables capture. Single-goroutine; call before the first Add.
func (s *Session) SetTap(t recognizer.Tap) { s.tap = t }

// Add feeds one stroke point. In eager mode it returns fired=true the
// first time the prefix's best-template margin clears the commit
// threshold, along with the recognized class; after the session has
// decided, further Adds still update the sketch (harmless) but report
// fired=false so callers act on the transition exactly once.
//
// A non-finite point poisons the stroke before it can touch the
// sketch; Add (and a later End) then keep returning an error until
// Reset — Degrade can still classify the finite prefix. When the
// recognizer is instrumented each Add observes its latency into
// template.decide_ns, and the first error of a stroke counts into
// template.session.poisoned.
//
// Add is the template backend's half of the zero-allocation decide
// path: with tracing and capture disabled it performs no allocation
// (machine-checked — see DESIGN.md §6, "Hot-path allocation gate").
//
//glint:hotpath
func (s *Session) Add(p geom.TimedPoint) (fired bool, class string, err error) {
	start := obs.Start(s.m.decideNS)
	sp := s.span.ChildIn(&s.decideSp, "decide", time.Time{})
	s.lastMargin, s.lastBest = 0, ""
	fired, class, err = s.add(p)
	obs.ObserveSinceWindowed(s.m.decideNS, s.m.decideWinNS, start)
	if err != nil {
		if !s.noted {
			s.noted = true
			s.m.poisoned.Inc()
			s.span.Event("poisoned", err.Error())
		}
	} else if fired {
		s.decidedAt = s.raw
		s.m.firedEager.Inc()
		s.span.Event("commit", class)
	}
	sp.SetAttrInt("point", int64(s.raw))
	if s.lastBest != "" {
		sp.SetAttr("best", s.lastBest)
		sp.SetAttrFloat("margin", s.lastMargin)
	}
	if fired {
		sp.SetAttr("class", class)
	}
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	if s.tap != nil {
		s.tap.TapPoint(p)
		s.tap.TapDecision(recognizer.Decision{
			Index:  s.raw,
			Kind:   "add",
			Fired:  fired,
			Class:  class,
			Margin: s.lastMargin,
			Err:    errText(err),
		})
	}
	return fired, class, err
}

// add is the uninstrumented body of Add.
func (s *Session) add(p geom.TimedPoint) (bool, string, error) {
	if s.poisoned {
		return false, "", fmt.Errorf("%w: stroke poisoned at point %d; Reset to recover", ErrDegenerate, s.raw)
	}
	if !mathx.Finite(p.X) || !mathx.Finite(p.Y) || !mathx.Finite(p.T) {
		s.poisoned = true
		return false, "", fmt.Errorf("%w: non-finite point (%v, %v, t=%v)", ErrDegenerate, p.X, p.Y, p.T)
	}
	s.raw++
	s.consume(geom.Pt(p.X, p.Y))
	if s.decided || s.r.Opts.CommitMargin <= 0 || s.raw < s.r.Opts.MinPoints {
		return false, "", nil
	}
	class, best, other, bestTmpl, probeArc := s.scoreProbe()
	if s.span != nil || s.tap != nil {
		// The running commit margin, computed only when someone is
		// listening — replay attaches a tap, so recorded and replayed
		// margins come from the same code path and compare
		// bit-identically.
		s.lastBest = class
		if !math.IsInf(other, 1) {
			s.lastMargin = other - best
		}
	}
	// The stability streak: a commit requires CommitStreak consecutive
	// points on which every gate holds at once — same nearest class,
	// best distance small (CommitMaxDist) and not growing (5% relative
	// plus a small absolute allowance for sampling jitter), margin clear
	// of the runner-up class (CommitMargin), and the prematurity vetoes
	// (commitGatesPass). A wrong early capture — the prefix of almost
	// any stroke passes near some template — fails one of these on most
	// points (its distance grows, or its margin flaps as the true class
	// catches up) and never builds the streak.
	pointOK := bestTmpl >= 0 &&
		best <= s.r.Opts.CommitMaxDist && other-best >= s.r.Opts.CommitMargin &&
		s.commitGatesPass(&s.r.Templates[bestTmpl], best, probeArc)
	switch {
	case pointOK && class == s.streakClass && s.streak > 0 && best <= s.prevBest*1.05+0.005:
		s.streak++
	case pointOK:
		s.streakClass, s.streak = class, 1
	default:
		s.streakClass, s.streak = class, 0
	}
	s.prevBest = best
	if s.streak >= s.r.Opts.CommitStreak {
		s.decided = true
		s.class = class
		return true, class, nil
	}
	return false, "", nil
}

// commitGatesPass applies the eager mode's prematurity vetoes against
// the winning template:
//
//   - arc length: mean point distance can sit low while the prefix has
//     only traced a fraction of the template's path; normalized arc
//     length is scale-invariant and exposes exactly that shortfall.
//   - raw size (Options.ScaleTolerance): the opening edge of a large
//     shape normalizes into the same unit box as a tiny dot-class
//     scribble — raw bounding-box size is the one signal that tells
//     them apart.
//   - incomplete-subgesture ambiguity: if some other class's trained
//     prefix template (Recognizer.Incomplete) explains the probe about
//     as well as the winning complete template, the stroke may simply
//     be that other shape, not yet done — the template-matching analog
//     of the paper's ambiguous-subgesture test. best is the winning
//     template's distance; the probe sits normalized in s.probe.
func (s *Session) commitGatesPass(tmpl *Template, best, probeArc float64) bool {
	if tmpl.ArcLen > 0 && (probeArc < 0.7*tmpl.ArcLen || probeArc > 1.5*tmpl.ArcLen) {
		return false
	}
	if tol := s.r.Opts.ScaleTolerance; tol > 0 && tmpl.RawSide > 0 {
		side := math.Max(s.rawBounds.Width(), s.rawBounds.Height())
		if side > tol*tmpl.RawSide || side < tmpl.RawSide/tol {
			return false
		}
	}
	return !otherClassWithin(s.r.Incomplete, s.probe, tmpl.Class, best+s.r.Opts.CommitMargin)
}

// consume folds one finite point into the resample sketch: exact
// storage while the stroke fits the buffer (the raw phase), equidistant
// sampling with spacing-doubling decimation after — O(1) amortized per
// point, constant-bounded memory.
func (s *Session) consume(p geom.Point) {
	s.rawBounds = s.rawBounds.AddPoint(p)
	if s.raw == 1 {
		s.samples = append(s.samples[:0], p)
		s.last = p
		s.spacing = 0
		s.residual = 0
		return
	}
	if s.spacing == 0 {
		if len(s.samples) == cap(s.samples) {
			s.toEquidistant()
		}
		if s.spacing == 0 {
			// Still in the raw phase (either the buffer has room, or the
			// path so far has zero length and was truncated to one point).
			//lint:ignore hotalloc the append is bounded by the buffer's preallocated capacity: the branch above rebuilds before it can fill
			s.samples = append(s.samples, p)
			s.last = p
			return
		}
	}
	s.advance(p)
}

// advance walks the segment from the last raw point to p, emitting an
// equidistant sample every spacing of arc length.
func (s *Session) advance(p geom.Point) {
	a := s.last
	d := a.Dist(p)
	for s.residual+d >= s.spacing {
		// d > 0 here: the residual invariant (residual < spacing) means a
		// zero-length segment can never enter the loop.
		t := (s.spacing - s.residual) / d
		q := a.Lerp(p, t)
		s.emitSample(q)
		d -= s.spacing - s.residual
		s.residual = 0
		a = q
	}
	s.residual += d
	s.last = p
}

// emitSample appends one equidistant sample, decimating first when the
// buffer is full.
func (s *Session) emitSample(q geom.Point) {
	if len(s.samples) == cap(s.samples) {
		s.decimate()
	}
	//lint:ignore hotalloc the append is bounded by the buffer's preallocated capacity: the branch above decimates before it can fill
	s.samples = append(s.samples, q)
}

// decimate halves the sample buffer by keeping every other sample and
// doubling the spacing — equidistant at spacing s decimated this way is
// exactly equidistant at 2s. Called once per buffer fill; since the
// path must double in arc length between fills, the cost is O(1)
// amortized per consumed point.
func (s *Session) decimate() {
	n := len(s.samples)
	kept := (n + 1) / 2
	for i := 1; i < kept; i++ {
		s.samples[i] = s.samples[2*i]
	}
	if n%2 == 0 {
		// The dropped final odd-indexed sample sat one old spacing past
		// the last kept one; fold that length into the residual.
		s.residual += s.spacing
	}
	s.samples = s.samples[:kept]
	s.spacing *= 2
}

// toEquidistant ends the raw phase: the buffer of raw points is
// resampled in place (via the scratch buffer) to equidistant samples at
// a spacing that half-fills it. A zero-length path (all points
// identical so far) instead truncates to one point and stays raw.
func (s *Session) toEquidistant() {
	total := 0.0
	for i := 1; i < len(s.samples); i++ {
		total += s.samples[i-1].Dist(s.samples[i])
	}
	if total <= 0 {
		s.samples = s.samples[:1]
		return
	}
	s.spacing = total / float64(cap(s.samples)/2)
	out := s.scratch[:0]
	//lint:ignore hotalloc appends below are bounded by the scratch buffer's preallocated capacity: at most cap/2+1 samples fit in total/spacing
	out = append(out, s.samples[0])
	acc := 0.0
	prev := s.samples[0]
	for i := 1; i < len(s.samples); i++ {
		v := s.samples[i]
		d := prev.Dist(v)
		for acc+d >= s.spacing {
			t := (s.spacing - acc) / d
			q := prev.Lerp(v, t)
			//lint:ignore hotalloc bounded by the scratch buffer's preallocated capacity, see above
			out = append(out, q)
			d -= s.spacing - acc
			acc = 0
			prev = q
		}
		acc += d
		prev = v
	}
	s.residual = acc
	s.samples, s.scratch = out, s.samples
}

// vertexCount is the number of polyline vertices the probe resamples
// over: the samples plus, past the raw phase, the live tail point (the
// stroke's true end, which sits residual arc length past the last
// emitted sample).
func (s *Session) vertexCount() int {
	if s.spacing > 0 {
		return len(s.samples) + 1
	}
	return len(s.samples)
}

// vertex returns the i-th probe polyline vertex.
func (s *Session) vertex(i int) geom.Point {
	if i < len(s.samples) {
		return s.samples[i]
	}
	return s.last
}

// buildProbe fills the probe buffer with an equidistant Opts.Points-
// point resampling of the sketch polyline — the classic $1 resample,
// over preallocated storage.
func (s *Session) buildProbe() []geom.Point {
	n := len(s.probe)
	probe := s.probe
	vc := s.vertexCount()
	total := 0.0
	prev := s.vertex(0)
	for i := 1; i < vc; i++ {
		v := s.vertex(i)
		total += prev.Dist(v)
		prev = v
	}
	if total <= 0 {
		for i := range probe {
			probe[i] = s.vertex(0)
		}
		return probe
	}
	interval := total / float64(n-1)
	probe[0] = s.vertex(0)
	idx := 1
	acc := 0.0
	prev = s.vertex(0)
	for i := 1; i < vc && idx < n; i++ {
		v := s.vertex(i)
		d := prev.Dist(v)
		for acc+d >= interval && idx < n {
			t := (interval - acc) / d
			q := prev.Lerp(v, t)
			probe[idx] = q
			idx++
			d -= interval - acc
			acc = 0
			prev = q
		}
		acc += d
		prev = v
	}
	for last := s.vertex(vc - 1); idx < n; idx++ {
		probe[idx] = last
	}
	return probe
}

// scoreProbe resamples, normalizes, and scores the current sketch
// against every template: the winner's class, its distance, the best
// other-class distance (the commit margin's other half), the winning
// template's index (for the commit gate's shape statistics), and the
// probe's normalized arc length.
func (s *Session) scoreProbe() (class string, best, other float64, bestTmpl int, probeArc float64) {
	probe := s.buildProbe()
	normalizeInPlace(probe, s.r.Opts.RotationInvariant)
	class, best, other, bestTmpl, s.seedOther = score(s.r.Templates, probe, s.seedBest, s.seedOther)
	s.seedBest = bestTmpl
	return class, best, other, bestTmpl, arcLen(probe)
}

// errText renders an error for Decision.Err ("" when nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// End finishes the session at mouse-up: if the stroke never committed
// eagerly, it is scored against every template now — counted into
// template.fired.end when instrumented, the complement of the
// mid-stroke template.fired.eager count. Returns the final class; a
// poisoned or empty stroke is an ErrDegenerate error (use Degrade for
// the poisoned stroke's finite prefix).
//
//glint:coldpath runs once at mouse-up, not per point; the full nearest-template scoring is priced per gesture
func (s *Session) End() (string, error) {
	if !s.decided {
		sp := s.span.Child("classify")
		class, err := s.end()
		if err != nil {
			sp.SetAttr("error", err.Error())
			sp.End()
			if s.tap != nil {
				s.tap.TapDecision(recognizer.Decision{Index: s.raw, Kind: "end", Err: err.Error()})
			}
			return "", err
		}
		sp.SetAttr("class", class)
		sp.End()
		s.class = class
		s.decided = true
		s.m.firedEnd.Inc()
		if s.tap != nil {
			s.tap.TapDecision(recognizer.Decision{Index: s.raw, Kind: "end", Class: class})
		}
	}
	return s.class, nil
}

// end is the uninstrumented body of End.
func (s *Session) end() (string, error) {
	if s.poisoned {
		return "", fmt.Errorf("%w: stroke poisoned at point %d; Reset to recover", ErrDegenerate, s.raw)
	}
	if s.raw == 0 {
		return "", fmt.Errorf("%w: no points", ErrDegenerate)
	}
	class, _, _, _, _ := s.scoreProbe()
	return class, nil
}

// Degrade is the poisoned stroke's fallback: the sketch only ever
// absorbed finite points (a non-finite point poisons the session before
// touching it), so Degrade simply rescores the finite prefix — the
// session keeps serving, on less evidence, instead of rejecting
// outright. It errors only when the finite prefix is empty. Counted
// into template.session.degraded when instrumented; reported to an
// attached Tap with Kind "degrade" and the prefix length as Index,
// mirroring the eager backend so flight bundles stay backend-agnostic.
// Calling Degrade on an already-decided session just returns its class.
//
//glint:coldpath poisoned-stroke fallback: runs at most once per gesture, only after a non-finite point already wrecked the stream
func (s *Session) Degrade() (string, error) {
	if s.decided {
		return s.class, nil
	}
	sp := s.span.Child("degrade")
	sp.SetAttrInt("prefix", int64(s.raw))
	if s.raw == 0 {
		err := fmt.Errorf("template: degrade: no finite prefix to classify")
		sp.SetAttr("error", err.Error())
		sp.End()
		if s.tap != nil {
			s.tap.TapDecision(recognizer.Decision{Index: 0, Kind: "degrade", Err: err.Error()})
		}
		return "", err
	}
	class, _, _, _, _ := s.scoreProbe()
	sp.SetAttr("class", class)
	sp.End()
	s.class = class
	s.decided = true
	s.m.degraded.Inc()
	if s.tap != nil {
		s.tap.TapDecision(recognizer.Decision{Index: s.raw, Kind: "degrade", Class: class})
	}
	return class, nil
}

// Reset returns the session to its initial empty state so it can
// collect a fresh stroke, reusing every allocated buffer. This is both
// the recovery path after a poisoned stroke and the reuse path for
// serving engines that pool sessions across gestures.
func (s *Session) Reset() {
	s.raw = 0
	s.poisoned = false
	s.decided = false
	s.class = ""
	s.decidedAt = 0
	s.noted = false
	s.samples = s.samples[:0]
	s.spacing = 0
	s.residual = 0
	s.rawBounds = geom.EmptyRect()
	s.streakClass = ""
	s.streak = 0
	s.prevBest = 0
	s.seedBest, s.seedOther = -1, -1
	s.m.resets.Inc()
	s.span.Event("reset", "")
}

// Decided reports whether the session has already committed.
func (s *Session) Decided() bool { return s.decided }

// Class returns the recognized class, or "" before any decision.
func (s *Session) Class() string { return s.class }

// PointCount returns the number of finite points consumed so far.
func (s *Session) PointCount() int { return s.raw }

// FinitePrefix returns the length of the leading all-finite point
// prefix — equal to PointCount, since a non-finite point poisons the
// session before it is counted. This is the prefix Degrade rescores.
func (s *Session) FinitePrefix() int { return s.raw }

// DecidedAt returns the raw point count at which the eager commit
// fired, or 0 when the stroke classified only at End — the streaming
// earliness measurement behind template.commit_frac.
func (s *Session) DecidedAt() int { return s.decidedAt }

// Run replays an entire gesture through a fresh session and reports
// the outcome: the recognized class and the number of points that had
// been seen when recognition fired (|g| when it only fired at End).
// When the recognizer is instrumented, each replay observes
// firedAt/|g| into the template.commit_frac histogram — directly
// comparable with eager.commit_frac, which is what the geval
// "backends" A/B experiment reports.
func (r *Recognizer) Run(g gesture.Gesture) (class string, firedAt int, err error) {
	s, err := r.NewSession()
	if err != nil {
		return "", 0, err
	}
	for i, p := range g.Points {
		fired, c, err := s.Add(p)
		if err != nil {
			return "", 0, err
		}
		if fired {
			r.m.commitFrac.Observe(float64(i+1) / float64(g.Len()))
			return c, i + 1, nil
		}
	}
	class, err = s.End()
	if err != nil {
		return "", 0, err
	}
	r.m.commitFrac.Observe(1)
	return class, g.Len(), nil
}

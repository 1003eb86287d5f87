package eager

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/features"
	"repro/internal/geom"
	"repro/internal/gesture"
	"repro/internal/linalg"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/recognizer"
)

// sessionMetrics is the streaming-recognition instrumentation shared by
// every Session a Recognizer spawns. All handles are nil until
// Instrument attaches a registry, so uninstrumented sessions pay only
// sub-5ns no-op calls per point (see internal/obs).
type sessionMetrics struct {
	decideNS    *obs.Histogram         // per-point latency of one Add (the paper's D + C-hat cost)
	decideWinNS *obs.WindowedHistogram // window.eager.decide_ns: rolling-window sibling of decideNS, feeds SLO burn rates
	commitFrac  *obs.Histogram         // commit point as fraction of gesture length (Run replays)
	firedEager  *obs.Counter           // gestures recognized mid-stroke
	firedEnd    *obs.Counter           // gestures classified only at End (D never fired)
	resets      *obs.Counter           // Session.Reset calls
	poisoned    *obs.Counter           // strokes poisoned by a non-finite point
	degraded    *obs.Counter           // poisoned strokes recovered via Degrade
}

// Instrument attaches the recognizer's streaming metrics — and its two
// classifiers' metrics, under the "classifier.full" and "classifier.auc"
// prefixes — to the registry. A nil registry is a no-op.
//
// Concurrency contract: Instrument mutates the recognizer and both
// classifiers, so it must be called before the recognizer is shared
// (before handing it to serve.New or serve.Engine.Swap); sessions
// created afterwards record into the registry, and the instruments are
// lock-free so concurrent sessions stay race-free. eager.Train calls
// Instrument automatically when Options.Obs is set.
func (r *Recognizer) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r.m = sessionMetrics{
		decideNS:    reg.Histogram("eager.decide_ns", obs.LatencyBuckets()),
		decideWinNS: reg.WindowedHistogram("window.eager.decide_ns", obs.LatencyBuckets(), 0, 0),
		commitFrac:  reg.Histogram("eager.commit_frac", obs.FractionBuckets()),
		firedEager:  reg.Counter("eager.fired.eager"),
		firedEnd:    reg.Counter("eager.fired.end"),
		resets:      reg.Counter("eager.session.resets"),
		poisoned:    reg.Counter("eager.session.poisoned"),
		degraded:    reg.Counter("eager.session.degraded"),
	}
	r.Full.C.Instrument(reg, "classifier.full")
	r.AUC.Instrument(reg, "classifier.auc")
}

// Done implements the paper's D function on a complete gesture prefix:
// true iff the AUC classifies the prefix's feature vector into one of the
// complete sets, i.e. the prefix is judged unambiguous. A prefix whose
// features cannot be computed (non-finite coordinates) is an error, which
// callers should treat as "not done" plus a rejected stroke.
func (r *Recognizer) Done(g gesture.Gesture) (bool, error) {
	if g.Len() < r.Opts.MinSubgesture {
		return false, nil
	}
	f, err := r.Full.Features(g)
	if err != nil {
		return false, err
	}
	name, _, err := r.AUC.Classify(f)
	if err != nil {
		return false, err
	}
	return IsCompleteSet(name), nil
}

// Classify runs the full classifier on a gesture (used at the moment D
// fires, and as the fallback when the gesture ends without ever being
// judged unambiguous).
func (r *Recognizer) Classify(g gesture.Gesture) (string, error) {
	return r.Full.Classify(g)
}

// Decision is the outcome of one eager step, as reported to a Tap. The
// type now lives in internal/recognizer (it is part of the
// backend-neutral streaming contract — see recognizer.Decision); this
// alias keeps the historical eager.Decision name working for callers
// like internal/flight and cmd/greplay.
type Decision = recognizer.Decision

// Tap observes a session's raw inputs and decisions as they happen —
// the flight recorder's capture hook. Alias of recognizer.Tap, the
// backend-neutral home of the streaming contract.
type Tap = recognizer.Tap

// Session consumes one gesture's points as they arrive, implementing the
// paper's eager-recognition loop: "Each time a new mouse point arrives it
// is appended to the gesture being collected, and D is applied ... Once D
// returns true the collected gesture is passed to C-hat" — all with O(1)
// work per point (incremental features plus one AUC evaluation).
type Session struct {
	r       *Recognizer
	ext     *features.Extractor
	points  geom.Path
	decided bool
	class   string
	// Scratch buffers keep the per-point path allocation-free.
	featBuf linalg.Vec
	aucBuf  []float64
	fullBuf []float64
	// finite is the length of the leading all-finite point prefix — the
	// longest prefix the full classifier can still score after a
	// non-finite point poisons the incremental extractor. Degrade's
	// fallback input.
	finite int
	// Instrumentation (copied from the recognizer at NewSession; all
	// no-ops when the recognizer is uninstrumented).
	m         sessionMetrics
	decidedAt int  // point count when D fired eagerly; 0 otherwise
	noted     bool // poisoned-stroke counted (once per stroke, not per Add)
	// Tracing and capture, attached per session via SetSpan/SetTap; both
	// nil by default (disabled, sub-5ns no-op calls).
	span       *obs.Span
	tap        Tap
	lastMargin float64 // AUC margin computed on the last add, for spans/taps
	lastBest   string  // AUC's best class name on the last add
	// Owned storage for the per-point spans, refilled by every Add so
	// tracing reuses it instead of allocating (see obs.Span.ChildIn).
	decideSp, aucSp, fullSp obs.Span
}

// initialPointCapacity is the point capacity a fresh Session preallocates
// so that typical strokes never grow the backing array on the per-point
// path; Reset retains whatever capacity the stroke actually reached.
const initialPointCapacity = 128

// NewSession starts a streaming recognition session. It fails only when
// the recognizer's feature options are invalid (e.g. deserialized from a
// corrupt file). Every buffer the per-point path needs — the point
// store, feature vector, and both score buffers — is allocated here,
// once, so Add stays allocation-free; pool sessions (serve.Engine does)
// and Reset between gestures to amortize this constructor away.
//
//glint:coldpath runs once per gesture stream, not per point, and session pooling (multipath.Session.Reset) amortizes even that away
func (r *Recognizer) NewSession() (*Session, error) {
	ext, err := features.NewExtractor(r.Full.Opts)
	if err != nil {
		return nil, fmt.Errorf("eager: %w", err)
	}
	return &Session{
		r:       r,
		ext:     ext,
		points:  make(geom.Path, 0, initialPointCapacity),
		featBuf: make(linalg.Vec, r.Full.Opts.Dim()),
		aucBuf:  make([]float64, r.AUC.NumClasses()),
		fullBuf: make([]float64, r.Full.C.NumClasses()),
		m:       r.m,
	}, nil
}

// NewStream starts a streaming recognition session behind the
// backend-neutral recognizer.Stream interface — the adapter that makes
// *Recognizer a recognizer.Backend. It is NewSession with the concrete
// type erased; serving stacks that only need the streaming contract
// (serve.Engine, multipath.Session) go through this.
//
//glint:coldpath runs once per gesture stream, not per point; session pooling amortizes it away
func (r *Recognizer) NewStream() (recognizer.Stream, error) {
	return r.NewSession()
}

// Caps reports the eager backend's capability flags: eager (D can fire
// mid-stroke) and degraded-fallback (Session.Degrade classifies a
// poisoned stroke's finite prefix) — see recognizer.Caps and
// BACKENDS.md.
func (r *Recognizer) Caps() recognizer.Caps {
	return recognizer.Caps{Name: "eager", Eager: true, DegradedFallback: true}
}

// SetSpan attaches a parent trace span: every subsequent Add records a
// "decide" child span (with per-point attributes: point index, the AUC's
// best class and ambiguity margin, the class on commit, the error text
// of a poisoned step) plus "auc_score"/"full_score" sub-spans around the
// classifier evaluations, and commit/reset/poisoned instants. A nil span
// (the default) disables tracing at sub-5ns cost per call site.
//
// Concurrency contract: like the session itself, SetSpan is
// single-goroutine — call it before the first Add. serve.Engine calls it
// with each gesture's root span when the engine is instrumented.
func (s *Session) SetSpan(parent *obs.Span) { s.span = parent }

// SetTap attaches a decision tap — the flight recorder's capture hook
// (flight.Capture implements Tap). A nil tap (the default) disables
// capture. Single-goroutine; call before the first Add.
func (s *Session) SetTap(t Tap) { s.tap = t }

// Add feeds one mouse point. It returns fired=true the first time the
// gesture becomes unambiguous, along with the recognized class. After the
// session has decided, further Adds still accumulate points (harmless) but
// report fired=false so callers act on the transition exactly once.
//
// A non-finite point poisons the accumulated features; Add (and a later
// End) then keep returning an error until Reset is called. Callers should
// reject the stroke.
//
// When the recognizer is instrumented (see Recognizer.Instrument), each
// Add observes its own latency into eager.decide_ns — the paper's
// per-mouse-point cost, measured as a distribution — and the first error
// of a stroke counts into eager.session.poisoned. When a span or tap is
// attached (SetSpan/SetTap), each Add additionally records a "decide"
// span and reports a Decision.
//
// Add is the core of the zero-allocation decide path (the paper's D +
// C-hat per-point cost): with tracing and capture disabled it performs
// no allocation once the session's preallocated buffers are warm.
//
//glint:hotpath
func (s *Session) Add(p geom.TimedPoint) (fired bool, class string, err error) {
	start := obs.Start(s.m.decideNS)
	sp := s.span.ChildIn(&s.decideSp, "decide", time.Time{})
	s.lastMargin, s.lastBest = 0, ""
	fired, class, err = s.add(p, sp)
	obs.ObserveSinceWindowed(s.m.decideNS, s.m.decideWinNS, start)
	if err != nil {
		if !s.noted {
			s.noted = true
			s.m.poisoned.Inc()
			s.span.Event("poisoned", err.Error())
		}
	} else if fired {
		s.decidedAt = len(s.points)
		s.m.firedEager.Inc()
		s.span.Event("commit", class)
	}
	sp.SetAttrInt("point", int64(len(s.points)))
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
		s.tap.TapDecision(Decision{
			Index:  len(s.points),
			Kind:   "add",
			Fired:  fired,
			Class:  class,
			Margin: s.lastMargin,
			Err:    errText(err),
		})
	}
	return fired, class, err
}

// add is the uninstrumented body of Add. sp is the per-point decide span
// (nil when tracing is off); sub-spans for the classifier evaluations
// hang off it.
func (s *Session) add(p geom.TimedPoint, sp *obs.Span) (fired bool, class string, err error) {
	//lint:ignore hotalloc NewSession preallocates initialPointCapacity and Reset retains grown capacity, so steady-state appends never grow the backing array
	s.points = append(s.points, p)
	if s.finite == len(s.points)-1 &&
		mathx.Finite(p.X) && mathx.Finite(p.Y) && mathx.Finite(p.T) {
		s.finite = len(s.points)
	}
	s.ext.Add(p)
	if s.decided || len(s.points) < s.r.Opts.MinSubgesture {
		return false, "", nil
	}
	f, err := s.ext.VectorInto(s.featBuf)
	if err != nil {
		return false, "", err
	}
	aucSp := sp.ChildIn(&s.aucSp, "auc_score", time.Time{})
	name, _, err := s.r.AUC.ClassifyInto(f, s.aucBuf)
	aucSp.End()
	if err != nil {
		return false, "", err
	}
	if s.span != nil || s.tap != nil {
		// The running ambiguity margin: best complete minus best
		// incomplete AUC score. Positive means D fires (modulo agreement
		// gating). Computed only when someone is listening — replay
		// attaches a tap, so recorded and replayed margins come from the
		// same code path and compare bit-identically.
		if bestC, bestI := bestCompleteIncomplete(s.r.AUC, s.aucBuf); bestC >= 0 && bestI >= 0 {
			s.lastMargin = s.aucBuf[bestC] - s.aucBuf[bestI]
		}
		s.lastBest = name
	}
	if !IsCompleteSet(name) {
		return false, "", nil
	}
	fullSp := sp.ChildIn(&s.fullSp, "full_score", time.Time{})
	class, _, err = s.r.Full.C.ClassifyInto(f, s.fullBuf)
	fullSp.End()
	if err != nil {
		return false, "", err
	}
	if s.r.Opts.RequireAgreement && class != strings.TrimPrefix(name, CompletePrefix) {
		// The AUC believes the prefix is unambiguous but the full
		// classifier has not caught up yet (typical right at a corner):
		// wait for them to agree.
		return false, "", nil
	}
	s.decided = true
	s.class = class
	return true, s.class, nil
}

// errText renders an error for Decision.Err ("" when nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Reset returns the session to its initial empty state so it can collect
// a fresh gesture, reusing every allocated buffer (points backing array,
// feature and score buffers, extractor). This is both the recovery path
// after a poisoned stroke — a non-finite point leaves the incremental
// features permanently non-finite, so Add and End error until Reset — and
// the reuse path for serving engines that pool sessions across gestures.
func (s *Session) Reset() {
	s.ext.Reset()
	s.points = s.points[:0]
	s.finite = 0
	s.decided = false
	s.class = ""
	s.decidedAt = 0
	s.noted = false
	s.m.resets.Inc()
	s.span.Event("reset", "")
}

// Decided reports whether the session has already fired.
func (s *Session) Decided() bool { return s.decided }

// Class returns the recognized class, or "" before any decision.
func (s *Session) Class() string { return s.class }

// PointCount returns the number of points fed so far.
func (s *Session) PointCount() int { return len(s.points) }

// Gesture returns the points collected so far as a gesture.
func (s *Session) Gesture() gesture.Gesture { return gesture.New(s.points) }

// End finishes the session at mouse-up: if the gesture was never judged
// unambiguous, it is classified in full now — counted into
// eager.fired.end when instrumented, the complement of the mid-stroke
// eager.fired.eager count. Returns the final class, or an error when the
// stroke's features are non-finite (the caller should reject the
// gesture).
//
//glint:coldpath runs once at mouse-up, not per point; the full classification it may do is the paper's fallback, priced per gesture
func (s *Session) End() (string, error) {
	if !s.decided {
		sp := s.span.Child("classify")
		class, err := s.r.Classify(s.Gesture())
		if err != nil {
			sp.SetAttr("error", err.Error())
			sp.End()
			if s.tap != nil {
				s.tap.TapDecision(Decision{Index: len(s.points), Kind: "end", Err: err.Error()})
			}
			return "", err
		}
		sp.SetAttr("class", class)
		sp.End()
		s.class = class
		s.decided = true
		s.m.firedEnd.Inc()
		if s.tap != nil {
			s.tap.TapDecision(Decision{Index: len(s.points), Kind: "end", Class: class})
		}
	}
	return s.class, nil
}

// FinitePrefix returns the length of the leading all-finite point
// prefix — equal to PointCount until a non-finite point poisons the
// stroke, frozen at the poisoning point after. This is the prefix
// Degrade classifies.
func (s *Session) FinitePrefix() int { return s.finite }

// Degrade is the poisoned stroke's fallback: where Add and End error
// once a non-finite point has wrecked the incremental features, Degrade
// classifies the longest finite prefix with the full classifier — the
// session keeps serving, on less evidence, instead of rejecting
// outright. It errors only when the finite prefix itself is
// unclassifiable (too short or degenerate); on success the session is
// decided and later End calls return the degraded class.
//
// Counted into eager.session.degraded when instrumented; the decision
// is reported to an attached Tap with Kind "degrade" and the prefix
// length as Index, so flight bundles of degraded gestures replay
// bit-identically (flight.Replay re-issues the Degrade). Calling
// Degrade on an already-decided session just returns its class.
//
//glint:coldpath poisoned-stroke fallback: runs at most once per gesture, only after a non-finite point already wrecked the stream
func (s *Session) Degrade() (string, error) {
	if s.decided {
		return s.class, nil
	}
	sp := s.span.Child("degrade")
	sp.SetAttrInt("prefix", int64(s.finite))
	if s.finite == 0 {
		// Zero points would still yield a finite (all-zero) feature
		// vector and a meaningless class; refuse instead.
		err := fmt.Errorf("eager: degrade: no finite prefix to classify")
		sp.SetAttr("error", err.Error())
		sp.End()
		if s.tap != nil {
			s.tap.TapDecision(Decision{Index: 0, Kind: "degrade", Err: err.Error()})
		}
		return "", err
	}
	class, err := s.r.Classify(gesture.New(s.points[:s.finite]))
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		if s.tap != nil {
			s.tap.TapDecision(Decision{Index: s.finite, Kind: "degrade", Err: err.Error()})
		}
		return "", err
	}
	sp.SetAttr("class", class)
	sp.End()
	s.class = class
	s.decided = true
	s.m.degraded.Inc()
	if s.tap != nil {
		s.tap.TapDecision(Decision{Index: s.finite, Kind: "degrade", Class: class})
	}
	return class, nil
}

// Run replays an entire gesture through a fresh session and reports the
// outcome: the recognized class and the number of points that had been
// seen when recognition fired (|g| when it only fired at the end). This is
// the measurement behind the paper's "percentage of mouse points examined"
// statistics in section 5; when the recognizer is instrumented, each
// replay observes firedAt/|g| into the eager.commit_frac histogram —
// the commit-point distribution behind the paper's accuracy/earliness
// trade-off.
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

// WriteJSON serializes the recognizer.
func (r *Recognizer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("eager: encode: %w", err)
	}
	return nil
}

// ReadJSON deserializes a recognizer, validating both classifiers and
// the feature options so corrupt files fail at load time rather than at
// recognition time.
func ReadJSON(rd io.Reader) (*Recognizer, error) {
	var r Recognizer
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("eager: decode: %w", err)
	}
	if r.Full == nil || r.Full.C == nil || r.AUC == nil {
		return nil, fmt.Errorf("eager: incomplete recognizer JSON")
	}
	if err := r.Full.Opts.Validate(); err != nil {
		return nil, fmt.Errorf("eager: %w", err)
	}
	if err := r.Full.C.Validate(); err != nil {
		return nil, fmt.Errorf("eager: full classifier: %w", err)
	}
	if err := r.AUC.Validate(); err != nil {
		return nil, fmt.Errorf("eager: auc: %w", err)
	}
	if r.Full.C.Dim != r.AUC.Dim {
		return nil, fmt.Errorf("eager: full classifier dimension %d does not match AUC dimension %d",
			r.Full.C.Dim, r.AUC.Dim)
	}
	if r.Opts.MinSubgesture < 2 {
		r.Opts.MinSubgesture = DefaultOptions().MinSubgesture
	}
	return &r, nil
}

// SaveFile writes the recognizer to the named file.
func (r *Recognizer) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("eager: %w", err)
	}
	defer f.Close()
	if err := r.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a recognizer from the named file.
func LoadFile(path string) (*Recognizer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("eager: %w", err)
	}
	defer f.Close()
	return ReadJSON(f)
}

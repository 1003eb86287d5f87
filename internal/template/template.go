// Package template implements a template-matching (nearest-neighbor)
// single-stroke recognizer: resample, normalize, and compare against
// stored training examples. Recognizers of this family preceded and
// followed Rubine's statistical method (the paper surveys the Ledeen
// recognizer and connectionist models as the trainable alternatives; the
// later "$1" recognizer family descends from exactly this scheme). It
// serves two roles in this repo:
//
//   - the baseline comparator in experiment A7: matching accuracy, very
//     different cost structure — classification is O(templates x points)
//     against the statistical method's O(classes x features);
//   - a full serving backend (recognizer.Backend — see BACKENDS.md): the
//     streaming session in stream.go maintains incremental
//     resample state so Add is O(1) amortized per point, scores the
//     nearest template per point, and commits mid-stroke when the
//     best-template margin clears Options.CommitMargin — an eager mode
//     the classic batch matcher lacks.
package template

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/gesture"
	"repro/internal/mathx"
)

// Typed errors. Match with errors.Is; the concrete error may carry
// detail (which coordinate was non-finite, etc.).
var (
	// ErrNoTemplates reports a recognizer with no stored templates —
	// training saw an empty set, or the Templates slice was blanked
	// after deserialization. Nothing can be classified.
	ErrNoTemplates = errors.New("template: no templates loaded")
	// ErrDegenerate reports an input stroke the matcher cannot score: a
	// non-finite coordinate, or an empty point list. Per the repo's
	// degenerate-gesture contract (degenerate_test.go) single-point,
	// zero-duration, and all-identical-point strokes are NOT degenerate
	// — they normalize to a tiny dot and classify normally; only
	// non-finite and empty input is refused.
	ErrDegenerate = errors.New("template: degenerate input stroke")
)

// Options configures the recognizer.
type Options struct {
	// Points is the resample count (default 64).
	Points int
	// RotationInvariant rotates each stroke so its centroid-to-first-point
	// angle is zero before matching. Off by default: Rubine's features are
	// orientation-sensitive too, and gesture sets (like GDP's) rely on
	// orientation to distinguish classes.
	RotationInvariant bool
	// CommitMargin arms the streaming session's eager mode: a stroke
	// commits mid-stroke once the best other-class template's distance
	// exceeds the best template's distance by at least this much (and
	// CommitMaxDist/MinPoints also hold). 0 disables eager commits —
	// the session then classifies only at End, the classic terminal
	// behavior. See DefaultOptions for the tuned default.
	CommitMargin float64
	// CommitMaxDist is the eager mode's confidence gate: a mid-stroke
	// commit additionally requires the best template distance to be at
	// most this (normalized-unit) value, so a huge margin over garbage
	// never fires. Ignored when CommitMargin is 0.
	CommitMaxDist float64
	// MinPoints is the smallest raw point count at which the streaming
	// session will attempt an eager commit — below it the resampled
	// prefix is too degenerate to trust. Ignored when CommitMargin is 0.
	MinPoints int
	// CommitStreak is the stability gate: an eager commit requires the
	// same class to have been the nearest template for this many
	// consecutive points with a non-growing best distance. This is what
	// separates a true completion (the distance settles at its floor as
	// the final points arrive) from premature capture by a small
	// template — the prefix of almost any stroke matches a dot-like
	// template closely, but that misfit *grows* with every further
	// point, breaking the streak. Ignored when CommitMargin is 0.
	CommitStreak int
	// ScaleTolerance is the eager mode's raw-size veto: a mid-stroke
	// commit requires the stroke-so-far's raw bounding-box side to be
	// within this factor of the winning template's (both directions).
	// Terminal classification stays fully scale-invariant; the veto only
	// delays commitment when the live stroke's size is grossly unlike
	// every example of the winning class — which is how a dot-class
	// template (a tiny scribble, identical to a short line once
	// normalized) is stopped from capturing the opening edge of a large
	// shape. Assumes training and serving share a coordinate scale; set
	// 0 to disable. Ignored when CommitMargin is 0.
	ScaleTolerance float64
}

// DefaultOptions returns the standard configuration: 64 resample
// points, orientation-sensitive, with the streaming eager mode armed
// (margin 0.06 at distance ≤ 0.20, stable for 5 points, from 10 points
// on, raw size within 3x of the winning template — values tuned on the
// synth GDP/fig9 workloads via the geval "backends" experiment).
func DefaultOptions() Options {
	return Options{
		Points:         64,
		CommitMargin:   0.06,
		CommitMaxDist:  0.20,
		MinPoints:      10,
		CommitStreak:   5,
		ScaleTolerance: 3,
	}
}

// Recognizer is a trained template matcher.
//
// Concurrency contract: a trained Recognizer is immutable and safe for
// concurrent use — any number of goroutines may call Classify, Run, and
// NewStream (each Session is then single-goroutine). Instrument is the
// one mutating exception and must be called before the recognizer is
// shared (the recognizer.Backend snapshot-immutability contract).
type Recognizer struct {
	Opts      Options
	Templates []Template
	// Incomplete holds normalized prefixes of the training examples
	// (incompleteFractions of each stroke), trained only when the eager
	// mode is armed. They are the template-matching analog of the
	// paper's ambiguous-subgesture training: the streaming commit gate
	// vetoes a mid-stroke commit whenever some *other* class's
	// unfinished prefix explains the probe about as well as the winning
	// complete template — the shape may simply not be done yet.
	// Incomplete templates never participate in terminal classification.
	Incomplete []Template

	// m is the attached streaming instrumentation; zero (all no-ops)
	// until Instrument is called.
	m sessionMetrics
}

// Template is one normalized training example.
type Template struct {
	Class  string
	Points []geom.Point
	// ArcLen is the arc length of the normalized points — a
	// scale-invariant shape statistic (a straight line is ~1, a circle
	// ~pi, a dense scribble much more). The streaming eager mode uses it
	// as a commit gate: a stroke prefix may sit close to a template in
	// mean point distance while its arc length is still far short of the
	// template's, which marks the match as premature. Zero (e.g. a
	// template deserialized from an older file) disables the gate.
	ArcLen float64
	// RawSide is the training stroke's raw bounding-box longer side,
	// before any normalization. Classification is scale-invariant, but
	// the eager commit gate uses raw size to veto gross mismatches: the
	// early prefix of a large stroke normalizes into the same unit box
	// as a tiny dot-class scribble and can sit near it in every
	// scale-free measure — raw size is the one signal that tells them
	// apart. See Options.ScaleTolerance. Zero disables the check for
	// this template.
	RawSide float64
}

// arcLen sums the segment lengths of a normalized stroke.
func arcLen(pts []geom.Point) float64 {
	total := 0.0
	for i := 1; i < len(pts); i++ {
		total += pts[i-1].Dist(pts[i])
	}
	return total
}

// incompleteFractions are the stroke-prefix fractions trained as
// Incomplete templates when the eager mode is armed — the
// template-matching analog of the paper's subgesture training set.
var incompleteFractions = []float64{0.4, 0.55, 0.7, 0.85}

// Train stores a normalized template per training example, plus — when
// the eager mode is armed (Options.CommitMargin > 0) — normalized
// prefix templates at incompleteFractions of each example, the commit
// gate's ambiguity evidence (see Recognizer.Incomplete).
func Train(set *gesture.Set, opts Options) (*Recognizer, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if opts.Points <= 1 {
		opts.Points = 64
	}
	r := &Recognizer{Opts: opts}
	for _, e := range set.Examples {
		pts := r.normalize(e.Gesture)
		b := e.Gesture.Points.Bounds()
		r.Templates = append(r.Templates, Template{
			Class:   e.Class,
			Points:  pts,
			ArcLen:  arcLen(pts),
			RawSide: math.Max(b.Width(), b.Height()),
		})
		if opts.CommitMargin > 0 {
			for _, frac := range incompleteFractions {
				n := int(frac * float64(e.Gesture.Len()))
				if n < 2 || n >= e.Gesture.Len() {
					continue
				}
				prefix := gesture.New(e.Gesture.Points.Prefix(n))
				ppts := r.normalize(prefix)
				pb := prefix.Points.Bounds()
				r.Incomplete = append(r.Incomplete, Template{
					Class:   e.Class,
					Points:  ppts,
					ArcLen:  arcLen(ppts),
					RawSide: math.Max(pb.Width(), pb.Height()),
				})
			}
		}
	}
	if len(r.Templates) == 0 {
		return nil, ErrNoTemplates
	}
	return r, nil
}

// checkFinite refuses strokes the matcher cannot score: empty input and
// non-finite coordinates are ErrDegenerate (timestamps are irrelevant
// to template matching and are not checked).
func checkFinite(p geom.Path) error {
	if len(p) == 0 {
		return fmt.Errorf("%w: no points", ErrDegenerate)
	}
	for i := range p {
		if !mathx.Finite(p[i].X) || !mathx.Finite(p[i].Y) {
			return fmt.Errorf("%w: non-finite coordinate at point %d", ErrDegenerate, i)
		}
	}
	return nil
}

// normalize resamples to Opts.Points, translates the centroid to the
// origin, scales the bounding box's longer side to 1, and optionally
// rotates the indicative angle to zero.
func (r *Recognizer) normalize(g gesture.Gesture) []geom.Point {
	pts := g.Points.Resample(r.Opts.Points).Polygon()
	if len(pts) == 0 {
		return pts
	}
	// Pad degenerate strokes (e.g. the 2-point dot) to the full count so
	// distances stay well-defined.
	for len(pts) < r.Opts.Points {
		pts = append(pts, pts[len(pts)-1])
	}
	normalizeInPlace(pts, r.Opts.RotationInvariant)
	return pts
}

// normalizeInPlace applies the matcher's canonical frame to an
// already-resampled stroke, in place: centroid to the origin, optional
// indicative-angle rotation, longer bounding-box side scaled to 1
// (degenerate strokes stay tiny, which is itself the signature of a
// dot). Shared by the batch path and the allocation-free streaming
// path.
func normalizeInPlace(pts []geom.Point, rotationInvariant bool) {
	var cx, cy float64
	for _, p := range pts {
		cx += p.X
		cy += p.Y
	}
	cx /= float64(len(pts))
	cy /= float64(len(pts))
	for i := range pts {
		pts[i].X -= cx
		pts[i].Y -= cy
	}
	if rotationInvariant {
		ang := pts[0].Angle()
		for i := range pts {
			pts[i] = pts[i].Rotate(-ang)
		}
	}
	b := geom.EmptyRect()
	for _, p := range pts {
		b = b.AddPoint(p)
	}
	side := math.Max(b.Width(), b.Height())
	if side > 1e-9 {
		for i := range pts {
			pts[i].X /= side
			pts[i].Y /= side
		}
	}
}

// abandonEvery is how many points distanceAtMost sums between checks
// of its early-abandon test.
const abandonEvery = 8

// distanceAtMost is the scoring kernel: the mean point-to-point
// Euclidean distance between two normalized strokes, abandoned as soon
// as it provably exceeds cut. It sums per-point distances in index
// order and, every abandonEvery points, gives up once the partial mean
// already exceeds cut, returning ok=false with that partial mean. The
// terms are ≥ 0 and float addition and division round monotonically, so
// an abandoned distance would have exceeded cut in full too; an ok
// result is the full mean, bit-identical to summing every term. Strokes
// with no points are +Inf apart.
//
//glint:hotpath
func distanceAtMost(a, b []geom.Point, cut float64) (d float64, ok bool) {
	n := min(len(a), len(b))
	if n == 0 {
		return math.Inf(1), true
	}
	a, b = a[:n], b[:n]
	fn := float64(n)
	sum := 0.0
	for i := 0; i < n; {
		end := min(i+abandonEvery, n)
		for ; i < end; i++ {
			sum += hypot(a[i].X-b[i].X, a[i].Y-b[i].Y)
		}
		if sum/fn > cut {
			return sum / fn, false
		}
	}
	return sum / fn, true
}

// score finds the nearest template and the nearest template of any
// other class: best/bestClass is the winner (bestTmpl its index, the
// first that attains best), other the runner-up distance among
// templates whose class differs from bestClass (otherTmpl its index;
// +Inf and -1 when every template shares one class). other - best is
// the eager mode's commit margin.
//
// seed1 and seed2 are the indices of two templates of different
// classes — the streaming session passes the previous point's winner
// and runner-up; -1, or any pair that is not two in-range templates of
// different classes, means no seed. Whatever class wins, one of the two
// is of another class, so other ≤ U = max(d(seed1), d(seed2)), and a
// template strictly farther than U can change none of the results.
// Every other template is therefore scored with early abandon at U as
// well as at the running best (same class) or other (other class)
// distance, past which it cannot change the running results either. A
// non-finite U bounds nothing.
//
//glint:hotpath
func score(templates []Template, probe []geom.Point, seed1, seed2 int) (bestClass string, best, other float64, bestTmpl, otherTmpl int) {
	bound, d1, d2 := math.Inf(1), 0.0, 0.0
	if seed1 >= 0 && seed2 >= 0 && seed1 < len(templates) && seed2 < len(templates) &&
		templates[seed1].Class != templates[seed2].Class {
		d1, _ = distanceAtMost(probe, templates[seed1].Points, math.Inf(1))
		d2, _ = distanceAtMost(probe, templates[seed2].Points, math.Inf(1))
		bound = math.Max(d1, d2)
	} else {
		seed1, seed2 = -1, -1
	}
	best, other = math.Inf(1), math.Inf(1)
	bestTmpl, otherTmpl = -1, -1
	for i := range templates {
		var d float64
		switch i {
		case seed1:
			d = d1
		case seed2:
			d = d2
		default:
			cut := other
			if templates[i].Class == bestClass {
				cut = best
			}
			if bound < cut {
				cut = bound
			}
			var ok bool
			if d, ok = distanceAtMost(probe, templates[i].Points, cut); !ok {
				continue
			}
		}
		if d < best {
			if templates[i].Class != bestClass {
				other, otherTmpl = best, bestTmpl
			}
			bestClass, best, bestTmpl = templates[i].Class, d, i
		} else if d < other && templates[i].Class != bestClass {
			other, otherTmpl = d, i
		}
	}
	return bestClass, best, other, bestTmpl, otherTmpl
}

// otherClassWithin reports whether some template whose class differs
// from exclude lies strictly closer to the probe than limit — the
// commit gate's query against the Incomplete prefix set. It stops at
// the first such template and abandons every other one at limit.
//
//glint:hotpath
func otherClassWithin(templates []Template, probe []geom.Point, exclude string, limit float64) bool {
	for i := range templates {
		if templates[i].Class == exclude {
			continue
		}
		if d, ok := distanceAtMost(probe, templates[i].Points, limit); ok && d < limit {
			return true
		}
	}
	return false
}

// Classify returns the class of the nearest template. It fails with
// ErrNoTemplates when the recognizer is empty and ErrDegenerate when
// the stroke cannot be scored (non-finite coordinates, no points) —
// match with errors.Is.
func (r *Recognizer) Classify(g gesture.Gesture) (string, error) {
	class, _, err := r.ClassifyWithDistance(g)
	return class, err
}

// ClassifyWithDistance also returns the nearest-template distance,
// usable as a rejection signal. Errors as Classify does.
func (r *Recognizer) ClassifyWithDistance(g gesture.Gesture) (string, float64, error) {
	if len(r.Templates) == 0 {
		return "", 0, ErrNoTemplates
	}
	if err := checkFinite(g.Points); err != nil {
		return "", 0, err
	}
	probe := r.normalize(g)
	class, best, _, _, _ := score(r.Templates, probe, -1, -1)
	return class, best, nil
}

// Accuracy classifies every example in a set and returns the fraction
// classified correctly. A stroke the matcher refuses (ErrDegenerate)
// fails the whole evaluation — synth and paper sets never contain one.
func (r *Recognizer) Accuracy(set *gesture.Set) (float64, error) {
	if set.Len() == 0 {
		return 0, nil
	}
	correct := 0
	for i, e := range set.Examples {
		class, err := r.Classify(e.Gesture)
		if err != nil {
			return 0, fmt.Errorf("template: example %d (%s): %w", i, e.Class, err)
		}
		if class == e.Class {
			correct++
		}
	}
	return float64(correct) / float64(set.Len()), nil
}

// String summarizes the recognizer.
func (r *Recognizer) String() string {
	return fmt.Sprintf("template recognizer: %d templates x %d points", len(r.Templates), r.Opts.Points)
}

// Package classifier implements the paper's statistical single-stroke
// gesture classifier (section 4.2): linear discrimination over feature
// vectors, with closed-form training that is optimal under per-class
// multivariate-Gaussian assumptions with a common covariance matrix.
//
// Each class c gets a linear evaluation function
//
//	v_c(f) = w_c0 + sum_j w_cj * f_j
//
// and classification picks the class with maximum v_c. Training estimates
// per-class means and a pooled covariance matrix; the weights are
//
//	w_cj = sum_i (Sigma^-1)_ij * mean_ci
//	w_c0 = -1/2 * sum_j w_cj * mean_cj
//
// The package also exposes the two classifier properties the eager
// recognition trainer exploits: unequal misclassification costs via
// constant-term biasing (BiasClass), and the Mahalanobis distance metric
// induced by the pooled covariance (Mahalanobis, MeanDistance).
package classifier

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// AmbiguityThreshold is the probability below which Evaluate counts a
// classification as ambiguous in the instrumentation (the paper's §4.2
// rejection discussion: "we typically reject when P < 0.95"). It only
// affects the `<prefix>.ambiguous` counter, never the classification
// itself — rejection policy stays with the caller.
const AmbiguityThreshold = 0.95

// classifierMetrics is the per-classifier instrumentation. All handles
// are nil until Instrument attaches a registry, making every recording
// call a sub-5ns no-op (see internal/obs).
type classifierMetrics struct {
	scoreNS         *obs.Histogram // latency of one discriminant evaluation
	classifications *obs.Counter   // Classify/ClassifyInto/Evaluate calls
	errors          *obs.Counter   // inputs refused (shape, non-finite)
	ambiguous       *obs.Counter   // Evaluate results under AmbiguityThreshold
	byClass         []*obs.Counter // wins per class, indexed like Classes
}

// winner returns the win counter for class index i, nil when
// uninstrumented or out of range (both no-op on use).
func (m *classifierMetrics) winner(i int) *obs.Counter {
	if i < 0 || i >= len(m.byClass) {
		return nil
	}
	return m.byClass[i]
}

// Example is one labelled feature vector.
type Example struct {
	Class    string
	Features linalg.Vec
}

// Options configures training. The zero value is valid and means: order
// classes by first appearance, no ridge forced.
type Options struct {
	// SortClasses orders the classifier's class list lexicographically
	// instead of by first appearance in the training data.
	SortClasses bool
}

// Classifier is a trained linear classifier. Fields are exported for JSON
// serialization; treat them as read-only outside this package except via
// BiasClass.
//
// Concurrency contract: a fully-trained Classifier is immutable, so every
// classification method — Score, ScoreInto, Classify, ClassifyInto,
// Evaluate, Mahalanobis, MahalanobisTo, MeanDistance — is safe for
// concurrent use from multiple goroutines, provided each goroutine passes
// its own out/scores buffer to the ...Into forms. This is what lets the
// parallel eager trainer and the serve.Engine share one classifier across
// a worker pool with only per-worker scratch. BiasClass mutates the
// constants and Instrument attaches metrics; neither is safe
// concurrently with classification — training passes (bias, tweak) and
// instrumentation must complete before the classifier is shared. Once
// attached, the metrics themselves are lock-free and do not affect the
// concurrency contract.
type Classifier struct {
	Classes []string     `json:"classes"`
	Dim     int          `json:"dim"`
	Weights []linalg.Vec `json:"weights"`         // per class, length Dim
	Consts  []float64    `json:"consts"`          // per class constant terms w_c0
	Means   []linalg.Vec `json:"means"`           // per class feature means
	InvCov  *linalg.Mat  `json:"invCov"`          // inverse of the pooled covariance
	Ridge   float64      `json:"ridge"`           // regularization applied, 0 if none
	Blend   float64      `json:"blend,omitempty"` // identity-blend weight applied, 0 if none
	Counts  []int        `json:"counts"`          // training examples per class

	// m is the attached instrumentation; its zero value (no registry)
	// makes every metric call a no-op. Unexported, so serialization and
	// JSON round-trips are unaffected. See Instrument.
	m classifierMetrics
}

// Instrument attaches the classifier's metrics to a registry under the
// given name prefix (e.g. "classifier.full", "classifier.auc"):
// per-evaluation score latency (`<prefix>.score_ns`), call and error
// counters (`<prefix>.classifications`, `<prefix>.errors`), the
// ambiguity counter (`<prefix>.ambiguous`), and one win counter per
// class (`<prefix>.class.<class>`). A nil registry detaches nothing and
// attaches nothing — the call is a no-op.
//
// Concurrency contract: Instrument mutates the classifier and must be
// called before the classifier is shared across goroutines, exactly
// like BiasClass; once attached, the instruments themselves are
// lock-free and concurrent classification remains race-free.
func (c *Classifier) Instrument(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	c.m = classifierMetrics{
		scoreNS:         reg.Histogram(prefix+".score_ns", obs.LatencyBuckets()),
		classifications: reg.Counter(prefix + ".classifications"),
		errors:          reg.Counter(prefix + ".errors"),
		ambiguous:       reg.Counter(prefix + ".ambiguous"),
		byClass:         make([]*obs.Counter, len(c.Classes)),
	}
	for i, name := range c.Classes {
		c.m.byClass[i] = reg.Counter(prefix + ".class." + name)
	}
}

// Errors returned by Train and the classification methods.
var (
	ErrNoExamples = errors.New("classifier: no training examples")
	ErrNoClasses  = errors.New("classifier: training data names no classes")
	// ErrNonFinite reports NaN/Inf in a feature vector — training and
	// classification both refuse non-finite input rather than letting it
	// corrupt every later score.
	ErrNonFinite = errors.New("classifier: non-finite feature vector")
)

// Train computes a classifier from labelled feature vectors. All vectors
// must share one dimensionality. Classes with a single example contribute
// nothing to the covariance estimate but still get a mean and a
// discriminant. If the pooled covariance is singular (zero-variance
// features, degenerate data, or fewer examples than dimensions), a minimal
// ridge term is applied and recorded in the Ridge field.
func Train(examples []Example, opts Options) (*Classifier, error) {
	if len(examples) == 0 {
		return nil, ErrNoExamples
	}
	dim := len(examples[0].Features)
	if dim == 0 {
		return nil, errors.New("classifier: zero-dimensional features")
	}

	// Group examples by class, preserving first-appearance order.
	classIdx := make(map[string]int)
	var classes []string
	for _, e := range examples {
		if len(e.Features) != dim {
			return nil, fmt.Errorf("classifier: inconsistent feature dimension: %d vs %d", len(e.Features), dim)
		}
		if !e.Features.AllFinite() {
			return nil, fmt.Errorf("%w in training example for class %q", ErrNonFinite, e.Class)
		}
		if _, ok := classIdx[e.Class]; !ok {
			classIdx[e.Class] = len(classes)
			classes = append(classes, e.Class)
		}
	}
	if len(classes) == 0 {
		return nil, ErrNoClasses
	}
	if opts.SortClasses {
		sort.Strings(classes)
		for i, c := range classes {
			classIdx[c] = i
		}
	}
	nc := len(classes)

	// Per-class means.
	means := make([]linalg.Vec, nc)
	counts := make([]int, nc)
	for i := range means {
		means[i] = linalg.NewVec(dim)
	}
	for _, e := range examples {
		i := classIdx[e.Class]
		means[i].AddScaled(1, e.Features)
		counts[i]++
	}
	for i := range means {
		means[i].Scale(1 / float64(counts[i]))
	}

	// Pooled covariance: sum over classes of scatter matrices, divided by
	// (total examples - number of classes). This matches the paper's
	// "common covariance" estimate.
	cov := linalg.NewMat(dim, dim)
	for _, e := range examples {
		i := classIdx[e.Class]
		d := e.Features.Sub(means[i])
		for r := 0; r < dim; r++ {
			if d[r] == 0 {
				continue
			}
			row := cov.A[r*dim : (r+1)*dim]
			for c := 0; c < dim; c++ {
				row[c] += d[r] * d[c]
			}
		}
	}
	denom := float64(len(examples) - nc)
	if denom > 0 {
		for i := range cov.A {
			cov.A[i] /= denom
		}
	} else {
		// Degenerate: one example per class. Fall back to the identity
		// metric; the discriminant reduces to nearest-mean in Euclidean
		// distance, which is the only sensible behaviour with no
		// within-class scatter information.
		cov = linalg.Identity(dim)
	}

	inv, ridge, blend, err := invertCovariance(cov)
	if err != nil {
		return nil, fmt.Errorf("classifier: covariance inversion: %w", err)
	}

	weights := make([]linalg.Vec, nc)
	consts := make([]float64, nc)
	for i := range classes {
		weights[i] = inv.MulVec(means[i])
		consts[i] = -0.5 * weights[i].Dot(means[i])
	}

	return &Classifier{
		Classes: classes,
		Dim:     dim,
		Weights: weights,
		Consts:  consts,
		Means:   means,
		InvCov:  inv,
		Ridge:   ridge,
		Blend:   blend,
		Counts:  counts,
	}, nil
}

// invertCovariance inverts a covariance matrix robustly. Gesture features
// have wildly different scales (squared pixel speeds versus cosines), so a
// direct inversion is ill-conditioned; we instead precondition by the
// diagonal — invert the correlation matrix D^-1/2 Sigma D^-1/2 and rescale.
// Zero-variance features (e.g. every feature of the GDP "dot" class when a
// set is degenerate) and rank deficiency are absorbed in two stages, both
// substitutes for the paper's unspecified handling of singular covariance
// estimates:
//
//  1. an escalating dimensionless ridge on the correlation matrix
//     (linalg.InvertRegularized); the ridge used is returned, 0 when none
//     was needed;
//  2. if even the ridge cannot produce an invertible matrix, covariance
//     blending: interpolate the correlation matrix toward the identity,
//     (1-w)*R + w*I, with escalating w. At w=1 the metric degrades to
//     per-feature-normalized Euclidean distance, which is always
//     invertible — so training never fails on singular covariance, it
//     only loses metric fidelity, and the blend weight is recorded on the
//     classifier for diagnostics.
func invertCovariance(cov *linalg.Mat) (inv *linalg.Mat, ridge, blend float64, err error) {
	n := cov.Rows
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		v := cov.At(i, i)
		if v > 0 {
			d[i] = math.Sqrt(v)
		} else {
			d[i] = 1 // zero-variance feature; leave unscaled
		}
	}
	corr := linalg.NewMat(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			corr.Set(r, c, cov.At(r, c)/(d[r]*d[c]))
		}
	}
	invCorr, ridge, err := linalg.InvertRegularized(corr)
	if err != nil {
		for _, w := range []float64{0.25, 0.5, 1} {
			blended, berr := linalg.Invert(linalg.BlendIdentity(corr, w))
			if berr == nil {
				invCorr, ridge, blend, err = blended, 0, w, nil
				break
			}
		}
		if err != nil {
			// Unreachable in practice (w=1 inverts the identity), kept so
			// a logic regression surfaces as an error, not a bad metric.
			return nil, 0, 0, err
		}
	}
	inv = linalg.NewMat(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			inv.Set(r, c, invCorr.At(r, c)/(d[r]*d[c]))
		}
	}
	return inv, ridge, blend, nil
}

// NumClasses returns the number of classes the classifier discriminates.
func (c *Classifier) NumClasses() int { return len(c.Classes) }

// ClassIndex returns the index of the named class, or -1 when absent.
func (c *Classifier) ClassIndex(name string) int {
	for i, cl := range c.Classes {
		if cl == name {
			return i
		}
	}
	return -1
}

// checkInput validates a feature vector against the classifier's shape.
// Feature vectors ultimately come from user strokes and serialized
// models, so mismatches are errors, not panics.
func (c *Classifier) checkInput(f linalg.Vec) error {
	if len(f) != c.Dim {
		return fmt.Errorf("classifier: feature dimension %d, classifier expects %d", len(f), c.Dim)
	}
	if !f.AllFinite() {
		return ErrNonFinite
	}
	return nil
}

// Score returns the per-class discriminant values v_c(f). The slice is
// indexed like Classes.
func (c *Classifier) Score(f linalg.Vec) ([]float64, error) {
	return c.ScoreInto(f, make([]float64, len(c.Classes)))
}

// ScoreInto computes the discriminant values into out (which must have one
// element per class) and returns it. It performs no allocation beyond the
// input checks — the form used on the per-mouse-point hot path, and the
// innermost layer of the machine-checked zero-allocation decide path.
//
//glint:hotpath
func (c *Classifier) ScoreInto(f linalg.Vec, out []float64) ([]float64, error) {
	start := obs.Start(c.m.scoreNS)
	if err := c.checkInput(f); err != nil {
		c.m.errors.Inc()
		return nil, err
	}
	if len(out) != len(c.Classes) {
		c.m.errors.Inc()
		return nil, fmt.Errorf("classifier: score buffer length %d, want %d", len(out), len(c.Classes))
	}
	for i := range c.Classes {
		out[i] = c.Consts[i] + c.Weights[i].Dot(f)
	}
	obs.ObserveSince(c.m.scoreNS, start)
	return out, nil
}

// Classify returns the best class for f together with its index.
func (c *Classifier) Classify(f linalg.Vec) (string, int, error) {
	return c.ClassifyInto(f, make([]float64, len(c.Classes)))
}

// ClassifyInto is the allocation-free Classify: scores must have one
// element per class and is clobbered. It is safe for concurrent use as
// long as every goroutine supplies a distinct scores buffer (see the
// Classifier concurrency contract).
func (c *Classifier) ClassifyInto(f linalg.Vec, scores []float64) (string, int, error) {
	if _, err := c.ScoreInto(f, scores); err != nil {
		return "", -1, err
	}
	best := argmax(scores)
	c.m.classifications.Inc()
	c.m.winner(best).Inc()
	return c.Classes[best], best, nil
}

func argmax(scores []float64) int {
	best := 0
	for i, s := range scores {
		if s > scores[best] {
			best = i
		}
	}
	return best
}

// Result carries a classification together with its rejection diagnostics.
type Result struct {
	Class       string  // winning class
	Index       int     // index of the winning class
	Score       float64 // discriminant value of the winner
	Probability float64 // estimated P(winner | f) per the paper's formula
	Mahalanobis float64 // distance from f to the winner's mean
}

// Evaluate classifies f and computes the rejection diagnostics: the
// ambiguity probability estimate 1 / sum_j exp(v_j - v_winner) and the
// Mahalanobis distance to the winning class mean. Non-finite input — and,
// defensively, a non-finite winning score from a corrupt model — is an
// error: Evaluate never reports a NaN probability or distance.
func (c *Classifier) Evaluate(f linalg.Vec) (Result, error) {
	scores, err := c.Score(f)
	if err != nil {
		return Result{}, err
	}
	best := argmax(scores)
	if math.IsNaN(scores[best]) || math.IsInf(scores[best], 0) {
		return Result{}, fmt.Errorf("classifier: non-finite score for class %q", c.Classes[best])
	}
	denom := 0.0
	for _, s := range scores {
		d := s - scores[best]
		// Guard exp underflow explicitly; very negative deltas contribute 0.
		if d > -700 {
			denom += math.Exp(d)
		}
	}
	dist, err := c.Mahalanobis(f, best)
	if err != nil {
		return Result{}, err
	}
	c.m.classifications.Inc()
	c.m.winner(best).Inc()
	if 1/denom < AmbiguityThreshold {
		c.m.ambiguous.Inc()
	}
	return Result{
		Class:       c.Classes[best],
		Index:       best,
		Score:       scores[best],
		Probability: 1 / denom,
		Mahalanobis: dist,
	}, nil
}

// Mahalanobis returns the Mahalanobis distance from f to the mean of the
// class with the given index, under the pooled covariance metric.
func (c *Classifier) Mahalanobis(f linalg.Vec, classIndex int) (float64, error) {
	if err := c.checkInput(f); err != nil {
		return 0, err
	}
	if classIndex < 0 || classIndex >= len(c.Means) {
		return 0, fmt.Errorf("classifier: class index %d out of range [0,%d)", classIndex, len(c.Means))
	}
	return linalg.Mahalanobis(c.InvCov, f, c.Means[classIndex]), nil
}

// MahalanobisTo returns the Mahalanobis distance between f and an arbitrary
// point under this classifier's metric. The eager trainer uses it to
// measure subgesture distances to incomplete-set means.
func (c *Classifier) MahalanobisTo(f, point linalg.Vec) float64 {
	return linalg.Mahalanobis(c.InvCov, f, point)
}

// MeanDistance returns the Mahalanobis distance between the means of two
// classes.
func (c *Classifier) MeanDistance(i, j int) float64 {
	return linalg.Mahalanobis(c.InvCov, c.Means[i], c.Means[j])
}

// BiasClass adds delta to the constant term of the class with the given
// index. Positive delta makes the class more likely; this implements the
// paper's "differing costs of misclassification ... simply by adjusting
// the constant terms of the evaluation functions".
func (c *Classifier) BiasClass(classIndex int, delta float64) {
	c.Consts[classIndex] += delta
}

// WriteJSON serializes the classifier to w.
func (c *Classifier) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		return fmt.Errorf("classifier: encode: %w", err)
	}
	return nil
}

// ReadJSON deserializes a classifier from r and validates its shape.
func ReadJSON(r io.Reader) (*Classifier, error) {
	var c Classifier
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("classifier: decode: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// SaveFile writes the classifier to the named file.
func (c *Classifier) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("classifier: %w", err)
	}
	defer f.Close()
	if err := c.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a classifier from the named file.
func LoadFile(path string) (*Classifier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("classifier: %w", err)
	}
	defer f.Close()
	return ReadJSON(f)
}

// Validate checks the classifier's structural and numerical integrity:
// consistent per-class array shapes, a present and square inverse
// covariance, and finite weights throughout. Deserialized models must
// pass Validate before classification so a corrupt file surfaces as one
// load-time error instead of NaN scores at recognition time.
func (c *Classifier) Validate() error {
	n := len(c.Classes)
	if n == 0 {
		return errors.New("classifier: no classes")
	}
	if len(c.Weights) != n || len(c.Consts) != n || len(c.Means) != n {
		return errors.New("classifier: inconsistent per-class array lengths")
	}
	for i := range c.Weights {
		if len(c.Weights[i]) != c.Dim || len(c.Means[i]) != c.Dim {
			return fmt.Errorf("classifier: class %d vectors have wrong dimension", i)
		}
		if !c.Weights[i].AllFinite() || !c.Means[i].AllFinite() {
			return fmt.Errorf("%w: class %q has non-finite weights or means", ErrNonFinite, c.Classes[i])
		}
	}
	if !linalg.Vec(c.Consts).AllFinite() {
		return fmt.Errorf("%w: non-finite constant term", ErrNonFinite)
	}
	if c.InvCov == nil || c.InvCov.Rows != c.Dim || c.InvCov.Cols != c.Dim {
		return errors.New("classifier: missing or misshapen inverse covariance")
	}
	if !c.InvCov.AllFinite() {
		return fmt.Errorf("%w: non-finite inverse covariance", ErrNonFinite)
	}
	return nil
}

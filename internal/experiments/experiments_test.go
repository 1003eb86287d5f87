package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/synth"
)

// fastConfig shrinks the test set for unit-test speed; the full protocol
// runs in geval and the benchmarks.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.TestPerClass = 10
	return cfg
}

func TestFig9Shape(t *testing.T) {
	res, err := Fig9(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: full 99.2%, eager 97.0%, eagerness 67.9%, oracle 59.4%.
	// Shape targets per DESIGN.md.
	if res.FullAccuracy < 0.95 {
		t.Errorf("full accuracy %.3f", res.FullAccuracy)
	}
	if res.EagerAccuracy < 0.85 {
		t.Errorf("eager accuracy %.3f", res.EagerAccuracy)
	}
	if res.EagerAccuracy > res.FullAccuracy+0.02 {
		t.Errorf("eager (%.3f) beat full (%.3f)", res.EagerAccuracy, res.FullAccuracy)
	}
	if res.Eagerness >= 0.95 || res.Eagerness <= 0.3 {
		t.Errorf("eagerness %.3f out of plausible band", res.Eagerness)
	}
	// The oracle is a lower bound on points that must be seen.
	if res.OracleEagerness <= 0 || res.OracleEagerness > res.Eagerness+0.05 {
		t.Errorf("oracle %.3f vs eagerness %.3f: recognizer beat the oracle", res.OracleEagerness, res.Eagerness)
	}
	if len(res.PerClass) != 8 {
		t.Errorf("%d per-class rows", len(res.PerClass))
	}
	out := res.Format()
	for _, want := range []string{"full classifier accuracy", "points examined", "minimum possible", "ur", "ld"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	res, err := Fig10(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: full 99.7%, eager 93.5%, 60.5% of points examined.
	if res.FullAccuracy < 0.93 {
		t.Errorf("full accuracy %.3f", res.FullAccuracy)
	}
	if res.EagerAccuracy < 0.80 {
		t.Errorf("eager accuracy %.3f", res.EagerAccuracy)
	}
	if res.FullAccuracy < res.EagerAccuracy-0.02 {
		t.Errorf("ordering violated: full %.3f < eager %.3f", res.FullAccuracy, res.EagerAccuracy)
	}
	if res.Eagerness >= 0.98 {
		t.Errorf("eagerness %.3f: GDP set should be somewhat eager", res.Eagerness)
	}
	if len(res.PerClass) != 11 {
		t.Errorf("%d per-class rows", len(res.PerClass))
	}
}

func TestFig8NotAmenable(t *testing.T) {
	res, err := Fig8(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The note gestures must show dramatically less eagerness than fig9.
	fig9, err := Fig9(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Eagerness < fig9.Eagerness+0.1 {
		t.Errorf("notes eagerness %.3f not clearly worse than fig9's %.3f", res.Eagerness, fig9.Eagerness)
	}
	if res.Eagerness < 0.85 {
		t.Errorf("notes eagerness %.3f; expected near 1 (never eager)", res.Eagerness)
	}
}

func TestUDPipelineReport(t *testing.T) {
	res, err := UD(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil {
		t.Fatal("no training report")
	}
	if res.Report.MovedAccidental == 0 {
		t.Error("no accidentally complete subgestures moved (fig. 6 behaviour)")
	}
	if res.Report.AUCClasses < 3 {
		t.Errorf("AUC classes = %d", res.Report.AUCClasses)
	}
	if res.EagerAccuracy < 0.9 {
		t.Errorf("U/D eager accuracy %.3f", res.EagerAccuracy)
	}
}

func TestTiming(t *testing.T) {
	res, err := RunTiming(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.FeatureUpdate <= 0 || res.AUCClassify <= 0 {
		t.Errorf("non-positive timings: %+v", res)
	}
	// Modern hardware: both costs must be far below the paper's
	// milliseconds — and feature update should remain cheaper than a full
	// AUC classification.
	if res.FeatureUpdate.Seconds() > 0.0005 {
		t.Errorf("feature update %v implausibly slow", res.FeatureUpdate)
	}
	// The paper's GDP AUC has 22 classes (2 x 11); ours may lose one or two
	// when a class (like dot) is too short to contribute subgestures.
	if res.AUCClasses < 20 || res.AUCClasses > 22 {
		t.Errorf("AUC classes = %d, want ~22 for GDP", res.AUCClasses)
	}
	out := res.Format()
	if !strings.Contains(out, "feature update") || !strings.Contains(out, "AUC per class") {
		t.Errorf("Format output:\n%s", out)
	}
}

func TestAblationTwoClass(t *testing.T) {
	res, err := AblationTwoClassAUC(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	paper, baseline := res.Rows[0], res.Rows[1]
	// Section 4.4's ordering: the 2C-class AUC is at least as accurate.
	if baseline.EagerAccuracy > paper.EagerAccuracy+0.02 {
		t.Errorf("two-class (%.3f) beat 2C-class (%.3f)", baseline.EagerAccuracy, paper.EagerAccuracy)
	}
	if !strings.Contains(res.Format(), "two-class") {
		t.Error("Format missing labels")
	}
}

func TestAblationBiasSweepMonotoneEagerness(t *testing.T) {
	res, err := AblationBiasSweep(fastConfig(), []float64{1, 5, 25})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Higher bias => more conservative => sees at least as many points.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Eagerness < res.Rows[i-1].Eagerness-0.02 {
			t.Errorf("eagerness not monotone in bias: %+v", res.Rows)
		}
	}
}

func TestAblationThresholdSweep(t *testing.T) {
	res, err := AblationThresholdSweep(fastConfig(), []float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Disabling the move step (threshold 0) must not *improve* accuracy
	// beyond noise: the step exists to protect accuracy.
	if res.Rows[0].EagerAccuracy > res.Rows[1].EagerAccuracy+0.05 {
		t.Errorf("move step hurt accuracy: %+v", res.Rows)
	}
}

func TestTrainSizeSweep(t *testing.T) {
	res, err := TrainSizeSweep(fastConfig(), []int{5, 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// More data should not make the full classifier dramatically worse.
	if res.Rows[1].FullAccuracy < res.Rows[0].FullAccuracy-0.05 {
		t.Errorf("full accuracy degraded with more data: %+v", res.Rows)
	}
}

func TestAblationAgreement(t *testing.T) {
	res, err := AblationAgreement(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Agreement gating must not reduce accuracy, and must not dramatically
	// reduce eagerness, on either workload.
	for i := 0; i < len(res.Rows); i += 2 {
		paper, gated := res.Rows[i], res.Rows[i+1]
		if gated.EagerAccuracy < paper.EagerAccuracy-0.01 {
			t.Errorf("%s: gated accuracy %.3f below paper rule %.3f", gated.Label, gated.EagerAccuracy, paper.EagerAccuracy)
		}
		if gated.Eagerness > paper.Eagerness+0.05 {
			t.Errorf("%s: gating cost too much eagerness: %.3f vs %.3f", gated.Label, gated.Eagerness, paper.Eagerness)
		}
	}
}

func TestAnnotate(t *testing.T) {
	cfg := fastConfig()
	anns, err := Annotate("fig9", synth.EightDirectionClasses(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(anns) != 8*cfg.TestPerClass {
		t.Fatalf("%d annotations", len(anns))
	}
	for _, a := range anns {
		if a.FiredAt < 1 || a.FiredAt > a.Total {
			t.Fatalf("bad annotation %+v", a)
		}
		if a.MinPoints <= 0 {
			t.Fatalf("fig9 oracle missing: %+v", a)
		}
		if a.MinPoints > a.Total {
			t.Fatalf("oracle beyond gesture: %+v", a)
		}
	}
	// Format resembles the figure: "min,fired/total class index".
	s := anns[0].String()
	if !strings.Contains(s, ",") || !strings.Contains(s, "/") {
		t.Errorf("annotation format %q", s)
	}
	body := FormatAnnotations(anns)
	if strings.Count(body, "\n") != 8 {
		t.Errorf("expected 8 class lines:\n%s", body)
	}
	// GDP set: no oracle, so the min field is omitted.
	anns10, err := Annotate("fig10", synth.GDPClasses(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range anns10 {
		if a.Class == "line" && a.MinPoints != 0 {
			t.Fatalf("unexpected oracle on %s", a.Class)
		}
	}
}

func TestConfusions(t *testing.T) {
	cfg := fastConfig()
	full, eagerC, err := Confusions("fig9", synth.EightDirectionClasses(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Classes) != 8 || len(eagerC.Classes) != 8 {
		t.Fatalf("classes: %v", full.Classes)
	}
	// Row sums equal the test count per class.
	for i := range full.Counts {
		sum := 0
		for _, n := range full.Counts[i] {
			sum += n
		}
		if sum != cfg.TestPerClass {
			t.Fatalf("row %s sums to %d", full.Classes[i], sum)
		}
	}
	// Accuracy from the matrix matches the headline evaluation ordering.
	if full.Accuracy() < eagerC.Accuracy()-0.02 {
		t.Errorf("full %.3f < eager %.3f", full.Accuracy(), eagerC.Accuracy())
	}
	out := full.Format()
	if !strings.Contains(out, "actual\\pred") || !strings.Contains(out, "ur") {
		t.Errorf("Format:\n%s", out)
	}
	// Errors lists only off-diagonal entries.
	for _, e := range eagerC.Errors() {
		if !strings.Contains(e, "->") {
			t.Errorf("error entry %q", e)
		}
	}
	// Unknown names are ignored safely.
	full.Add("nope", "ur")
	full.Add("ur", "nope")
}

func TestConfusionEmptyAccuracy(t *testing.T) {
	c := newConfusion([]string{"a", "b"})
	if c.Accuracy() != 0 {
		t.Error("empty matrix accuracy")
	}
	if len(c.Errors()) != 0 {
		t.Error("empty matrix has errors")
	}
}

func TestFeatureDropSweep(t *testing.T) {
	cfg := fastConfig()
	res, err := FeatureDropSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 14 { // all-features row + 13 leave-one-out rows
		t.Fatalf("rows = %d", len(res.Rows))
	}
	base := res.Rows[0]
	for _, r := range res.Rows[1:] {
		// Dropping one of thirteen redundant features must not devastate
		// the full classifier.
		if r.FullAccuracy < base.FullAccuracy-0.10 {
			t.Errorf("%s: full accuracy collapsed to %.3f", r.Label, r.FullAccuracy)
		}
	}
}

func TestTailEffect(t *testing.T) {
	cfg := fastConfig()
	res, err := RunTailEffect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's conclusion: recognition is "much more successful on the
	// remaining prefix" — the two-phase condition must win on aggregate.
	if res.TwoPhaseAccuracy < res.OnePhaseAccuracy {
		t.Errorf("two-phase %.3f did not beat one-phase %.3f", res.TwoPhaseAccuracy, res.OnePhaseAccuracy)
	}
	if res.TwoPhaseWins <= res.OnePhaseWins {
		t.Errorf("wins: two-phase %d vs one-phase %d", res.TwoPhaseWins, res.OnePhaseWins)
	}
	out := res.Format()
	if !strings.Contains(out, "one-phase") || !strings.Contains(out, "two-phase") {
		t.Errorf("Format:\n%s", out)
	}
}

func TestRejectionSweep(t *testing.T) {
	cfg := fastConfig()
	res, err := RunRejection(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	base := res.Rows[0]
	if base.FalseReject != 0 || base.FalseAccept != 1 {
		t.Errorf("no-rejection row wrong: %+v", base)
	}
	// The Mahalanobis gate must reject nearly all garbage at a small
	// false-reject cost — the §4.2 metric doing its job.
	var maha *RejectionRow
	for i := range res.Rows {
		if res.Rows[i].Label == "Mahalanobis <= 12" {
			maha = &res.Rows[i]
		}
	}
	if maha == nil {
		t.Fatal("missing Mahalanobis row")
	}
	if maha.FalseAccept > 0.1 {
		t.Errorf("Mahalanobis gate accepted %.0f%% of garbage", 100*maha.FalseAccept)
	}
	if maha.FalseReject > 0.1 {
		t.Errorf("Mahalanobis gate rejected %.0f%% of valid gestures", 100*maha.FalseReject)
	}
	if !strings.Contains(res.Format(), "false-rej%") {
		t.Error("Format header missing")
	}
}

func TestBaselineComparison(t *testing.T) {
	cfg := fastConfig()
	res, err := RunBaseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := 0; i < len(res.Rows); i += 2 {
		rub, tmpl := res.Rows[i], res.Rows[i+1]
		if rub.Recognizer != "rubine" || tmpl.Recognizer != "template" {
			t.Fatalf("row order: %+v", res.Rows)
		}
		// Both methods must be competent on these sets.
		if rub.Accuracy < 0.93 || tmpl.Accuracy < 0.9 {
			t.Errorf("%s accuracies: rubine %.3f template %.3f", rub.Workload, rub.Accuracy, tmpl.Accuracy)
		}
		// The cost-structure claim: per-classification the statistical
		// recognizer is much cheaper than nearest-neighbor matching.
		if rub.Classify*3 > tmpl.Classify {
			t.Errorf("%s classify costs: rubine %v vs template %v — expected a large gap", rub.Workload, rub.Classify, tmpl.Classify)
		}
		// Both backends are eager-capable now: Rubine via the AUC's D
		// function, the template matcher via the streaming session's
		// commit margin (armed by template.DefaultOptions).
		if !rub.EagerReady || !tmpl.EagerReady {
			t.Error("eager capability flags wrong")
		}
	}
	if !strings.Contains(res.Format(), "template") {
		t.Error("Format")
	}
}

func TestCornerLoopSweep(t *testing.T) {
	cfg := fastConfig()
	res, err := CornerLoopSweep(cfg, []float64{0, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	clean, loopy := res.Rows[0], res.Rows[1]
	// §5's attribution: corner loops hurt the eager recognizer distinctly
	// more than the full classifier.
	eagerDrop := clean.EagerAccuracy - loopy.EagerAccuracy
	fullDrop := clean.FullAccuracy - loopy.FullAccuracy
	if eagerDrop < fullDrop {
		t.Errorf("corner loops hurt full (%.3f) more than eager (%.3f); attribution not reproduced", fullDrop, eagerDrop)
	}
	if loopy.EagerAccuracy > clean.EagerAccuracy {
		t.Errorf("defects improved eager accuracy: %.3f -> %.3f", clean.EagerAccuracy, loopy.EagerAccuracy)
	}
}

// TestRunBackends drives the A/B comparison behind the pluggable-backend
// work: both backends stream identical test gestures through
// recognizer.Backend, and the table must show the structural trade —
// comparable accuracy, with the template matcher's per-point cost well
// above the statistical recognizer's.
func TestRunBackends(t *testing.T) {
	cfg := fastConfig()
	res, err := RunBackends(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := 0; i < len(res.Rows); i += 2 {
		eg, tm := res.Rows[i], res.Rows[i+1]
		if eg.Backend != "eager" || tm.Backend != "template" {
			t.Fatalf("row order: %+v", res.Rows)
		}
		if eg.Accuracy < 0.8 || tm.Accuracy < 0.8 {
			t.Errorf("%s streaming accuracies: eager %.3f template %.3f", eg.Workload, eg.Accuracy, tm.Accuracy)
		}
		// Both backends commit some gestures mid-stroke on these sets.
		if eg.CommitFrac == 0 || tm.CommitFrac == 0 {
			t.Errorf("%s commit fractions: eager %.2f template %.2f", eg.Workload, eg.CommitFrac, tm.CommitFrac)
		}
		// The cost structure: O(classes x features) vs O(templates x points).
		if eg.DecideNS*3 > tm.DecideNS {
			t.Errorf("%s decide costs: eager %.0fns vs template %.0fns — expected a large gap", eg.Workload, eg.DecideNS, tm.DecideNS)
		}
		// Eagerness is a fraction of the stroke, bounded and sane.
		for _, r := range []BackendRow{eg, tm} {
			if r.Eagerness <= 0 || r.Eagerness > 1 {
				t.Errorf("%s/%s eagerness %.3f out of range", r.Workload, r.Backend, r.Eagerness)
			}
		}
	}
	if !strings.Contains(res.Format(), "decide-ns") {
		t.Error("Format")
	}
	// The template kernel prunes exactly: its rows' accuracy, commit
	// fraction and eagerness are bit-identical to those of the unpruned
	// full scan, recorded here as float64 bits.
	golden := map[string][3]uint64{ // accuracy, commit fraction, eagerness
		"fig9": {0x3ff0000000000000, 0x3fea666666666666, 0x3fef058d8e052f46},
		"gdp":  {0x3fefb586fb586fb6, 0x3fd3c8253c8253c8, 0x3fef411fd3eabbcf},
	}
	for _, r := range res.Rows {
		if r.Backend != "template" {
			continue
		}
		want := golden[r.Workload]
		got := [3]uint64{math.Float64bits(r.Accuracy), math.Float64bits(r.CommitFrac), math.Float64bits(r.Eagerness)}
		if got != want {
			t.Errorf("%s/template accuracy, commit fraction, eagerness = %v, %v, %v; full scan %v, %v, %v", r.Workload,
				r.Accuracy, r.CommitFrac, r.Eagerness,
				math.Float64frombits(want[0]), math.Float64frombits(want[1]), math.Float64frombits(want[2]))
		}
	}
}

package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/eager"
	"repro/internal/gesture"
	"repro/internal/synth"
	"repro/internal/template"

	rcz "repro/internal/recognizer"
)

// BackendRow is one recognizer backend's outcome on one streaming
// workload, measured through the recognizer.Backend interface only — the
// same surface serve.Engine uses — so the numbers compare engines, not
// evaluation harnesses.
type BackendRow struct {
	Workload string
	Backend  string
	// Accuracy is end-to-end streaming accuracy: the class the stream
	// reports (at the eager commit if one fires, else at End) against the
	// generator's label.
	Accuracy float64
	// CommitFrac is the fraction of test gestures decided mid-stroke by
	// an eager commit rather than at End.
	CommitFrac float64
	// Eagerness is the mean fraction of each gesture's points consumed
	// before the decision (1.0 for a stroke decided only at End).
	Eagerness float64
	// DecideNS is the mean wall-clock cost of one Stream.Add.
	DecideNS  float64
	TrainTime time.Duration
}

// BackendEval is the A/B comparison the pluggable-backend work exists to
// make possible: the Rubine eager recognizer and the streaming template
// matcher driven over identical synthetic workloads behind the single
// recognizer.Backend interface. See BACKENDS.md for the contract and
// BENCH_backends.json for the benchmark-grade latency numbers.
type BackendEval struct {
	Rows []BackendRow
}

// Format renders the comparison table.
func (b *BackendEval) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== backends: eager (Rubine) vs template ($1-style) behind recognizer.Backend ==\n")
	fmt.Fprintf(&sb, "%-8s %-10s %8s %12s %10s %12s %12s\n",
		"workload", "backend", "acc%", "commit-frac", "eagerness", "decide-ns", "train")
	for _, r := range b.Rows {
		fmt.Fprintf(&sb, "%-8s %-10s %7.1f%% %11.1f%% %9.1f%% %12.0f %12v\n",
			r.Workload, r.Backend, 100*r.Accuracy, 100*r.CommitFrac, 100*r.Eagerness,
			r.DecideNS, r.TrainTime.Round(time.Microsecond))
	}
	return sb.String()
}

// RunBackends trains both backends on identical sets and streams the same
// test gestures through each via recognizer.Backend.
func RunBackends(cfg Config) (*BackendEval, error) {
	out := &BackendEval{}
	for _, workload := range []struct {
		name    string
		classes []synth.Class
	}{
		{"fig9", synth.EightDirectionClasses()},
		{"gdp", synth.GDPClasses()},
	} {
		trainSet, _ := synth.NewGenerator(synth.DefaultParams(cfg.TrainSeed)).Set(workload.name+"-train", workload.classes, cfg.TrainPerClass)
		testSet, _ := synth.NewGenerator(synth.DefaultParams(cfg.TestSeed)).Set(workload.name+"-test", workload.classes, cfg.TestPerClass)

		start := time.Now()
		eagerRec, _, err := eager.Train(trainSet, cfg.Eager)
		if err != nil {
			return nil, fmt.Errorf("experiments backends %s: %w", workload.name, err)
		}
		eagerTrain := time.Since(start)

		start = time.Now()
		tmplRec, err := template.Train(trainSet, template.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("experiments backends %s: %w", workload.name, err)
		}
		tmplTrain := time.Since(start)

		for _, b := range []struct {
			backend rcz.Backend
			train   time.Duration
		}{
			{eagerRec, eagerTrain},
			{tmplRec, tmplTrain},
		} {
			row, err := evalBackendStream(b.backend, testSet)
			if err != nil {
				return nil, fmt.Errorf("experiments backends %s/%s: %w", workload.name, b.backend.Caps().Name, err)
			}
			row.Workload = workload.name
			row.TrainTime = b.train
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// evalBackendStream streams every test gesture through one long-lived
// stream (Reset between strokes, the serve.Engine usage pattern) and
// aggregates accuracy, commit fraction, eagerness, and per-Add latency.
func evalBackendStream(b rcz.Backend, testSet *gesture.Set) (BackendRow, error) {
	row := BackendRow{Backend: b.Caps().Name}
	s, err := b.NewStream()
	if err != nil {
		return row, err
	}
	var correct, committed int
	var eagerness float64
	var addNS, adds int64
	for _, e := range testSet.Examples {
		s.Reset()
		var class string
		fired := false
		firedAt := e.Gesture.Len()
		start := time.Now()
		for i, p := range e.Gesture.Points {
			f, c, err := s.Add(p)
			if err != nil {
				return row, err
			}
			if f && !fired {
				fired, class, firedAt = true, c, i+1
			}
		}
		addNS += time.Since(start).Nanoseconds()
		adds += int64(e.Gesture.Len())
		if !fired {
			class, err = s.End()
			if err != nil {
				return row, err
			}
		} else {
			committed++
		}
		if class == e.Class {
			correct++
		}
		eagerness += float64(firedAt) / float64(e.Gesture.Len())
	}
	n := testSet.Len()
	row.Accuracy = float64(correct) / float64(n)
	row.CommitFrac = float64(committed) / float64(n)
	row.Eagerness = eagerness / float64(n)
	if adds > 0 {
		row.DecideNS = float64(addNS) / float64(adds)
	}
	return row, nil
}

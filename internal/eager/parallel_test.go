package eager

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/gesture"
	"repro/internal/synth"
)

// TestParallelLabelMatchesSerial: the parallel labelling pass must emit a
// bit-identical subgesture slice — same order, predictions, completeness,
// and feature bits — for every worker count.
func TestParallelLabelMatchesSerial(t *testing.T) {
	trainSet, _, _ := genSets(synth.EightDirectionClasses(), 8, 1, 171)
	r, _ := mustTrain(t, trainSet, DefaultOptions())
	want, err := LabelSubgestures(trainSet, r.Full, r.Opts.MinSubgesture)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 3, 7, 64} {
		got, err := LabelSubgesturesParallel(trainSet, r.Full, r.Opts.MinSubgesture, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: parallel labelling differs from serial oracle", workers)
		}
	}
}

// TestParallelTweakMatchesSerial: the chunked verification scan plus the
// candidate fixpoint must replay the serial adjustment sequence exactly.
func TestParallelTweakMatchesSerial(t *testing.T) {
	trainSet, _, _ := genSets(synth.UDClasses(), 12, 1, 181)
	r, _ := mustTrain(t, trainSet, DefaultOptions())
	subs, err := LabelSubgestures(trainSet, r.Full, r.Opts.MinSubgesture)
	if err != nil {
		t.Fatal(err)
	}
	thr := MoveThreshold(subs, r.Full, r.Opts.MoveThresholdFrac)
	MoveAccidentals(subs, r.Full, thr)

	aucSerial, err := trainAUC(subs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	aucParallel, err := trainAUC(subs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	delta := math.Log(DefaultOptions().AmbiguityBias)
	for i, name := range aucSerial.Classes {
		if !IsCompleteSet(name) {
			aucSerial.BiasClass(i, delta)
			aucParallel.BiasClass(i, delta)
		}
	}
	wantAdj, err := Tweak(aucSerial, subs)
	if err != nil {
		t.Fatal(err)
	}
	if wantAdj == 0 {
		t.Fatal("tweak made no adjustments; test exercises nothing")
	}
	for _, workers := range []int{0, 2, 5} {
		clone, err := trainAUC(subs, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range clone.Classes {
			if !IsCompleteSet(name) {
				clone.BiasClass(i, delta)
			}
		}
		gotAdj, err := TweakParallel(clone, subs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if gotAdj != wantAdj {
			t.Fatalf("workers=%d: %d adjustments, serial made %d", workers, gotAdj, wantAdj)
		}
		if !reflect.DeepEqual(clone.Consts, aucSerial.Consts) {
			t.Fatalf("workers=%d: tweaked constants differ from serial oracle", workers)
		}
	}
}

// TestParallelTrainingBitIdentical is the PR's acceptance property: a
// recognizer trained with Parallelism: 0 (auto) — and explicitly
// oversubscribed worker counts — is bit-for-bit the recognizer trained by
// the serial reference path (Parallelism: 1), and agrees with it on every
// held-out eager Run outcome.
func TestParallelTrainingBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name    string
		classes []synth.Class
	}{
		{"ud", synth.UDClasses()},
		{"eight", synth.EightDirectionClasses()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trainSet, testSet, _ := genSets(tc.classes, 10, 10, 191)
			serialOpts := DefaultOptions()
			serialOpts.Parallelism = 1
			rSerial, repSerial := mustTrain(t, trainSet, serialOpts)

			for _, parallelism := range []int{0, 4, 9} {
				opts := DefaultOptions()
				opts.Parallelism = parallelism
				rPar, repPar := mustTrain(t, trainSet, opts)

				if *repSerial != *repPar {
					t.Fatalf("parallelism=%d: reports differ:\nserial:   %+v\nparallel: %+v",
						parallelism, repSerial, repPar)
				}
				if !reflect.DeepEqual(rSerial.AUC.Classes, rPar.AUC.Classes) ||
					!reflect.DeepEqual(rSerial.AUC.Weights, rPar.AUC.Weights) ||
					!reflect.DeepEqual(rSerial.AUC.Consts, rPar.AUC.Consts) ||
					!reflect.DeepEqual(rSerial.Full.C.Weights, rPar.Full.C.Weights) ||
					!reflect.DeepEqual(rSerial.Full.C.Consts, rPar.Full.C.Consts) {
					t.Fatalf("parallelism=%d: trained weights differ from serial oracle", parallelism)
				}
				for _, e := range testSet.Examples {
					c1, f1, err1 := rSerial.Run(e.Gesture)
					c2, f2, err2 := rPar.Run(e.Gesture)
					if err1 != nil || err2 != nil {
						t.Fatal(err1, err2)
					}
					if c1 != c2 || f1 != f2 {
						t.Fatalf("parallelism=%d: Run disagrees: (%s,%d) vs (%s,%d)",
							parallelism, c1, f1, c2, f2)
					}
				}
			}
		})
	}
}

// TestParallelLabelErrorDeterministic: when several examples fail, the
// parallel pass must report the same (lowest-indexed) error the serial
// scan reports, regardless of completion order.
func TestParallelLabelErrorDeterministic(t *testing.T) {
	trainSet, _, _ := genSets(synth.UDClasses(), 8, 1, 201)
	r, _ := mustTrain(t, trainSet, DefaultOptions())

	// A separate labelling set with NaN-poisoned gestures at two indices.
	bad := &gesture.Set{}
	poison := func() gesture.Gesture {
		pts := geom.Path{}
		for i := 0; i < 8; i++ {
			pts = append(pts, geom.TimedPoint{X: float64(i) * 10, Y: 0, T: float64(i) * 0.01})
		}
		pts[5].X = math.NaN()
		return gesture.New(pts)
	}
	bad.Add("U", trainSet.Examples[0].Gesture)
	bad.Add("U", poison())
	bad.Add("D", trainSet.Examples[1].Gesture)
	bad.Add("D", poison())

	_, wantErr := LabelSubgestures(bad, r.Full, r.Opts.MinSubgesture)
	if wantErr == nil {
		t.Fatal("serial labelling accepted a NaN gesture")
	}
	for _, workers := range []int{0, 2, 4} {
		_, gotErr := LabelSubgesturesParallel(bad, r.Full, r.Opts.MinSubgesture, workers)
		if gotErr == nil {
			t.Fatalf("workers=%d: parallel labelling accepted a NaN gesture", workers)
		}
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("workers=%d: error %q, serial oracle %q", workers, gotErr, wantErr)
		}
	}
}

// TestParallelismValidation: negative Parallelism is an option error.
func TestParallelismValidation(t *testing.T) {
	set, _, _ := genSets(synth.UDClasses(), 5, 1, 211)
	bad := DefaultOptions()
	bad.Parallelism = -1
	if _, _, err := Train(set, bad); err == nil {
		t.Error("negative Parallelism accepted")
	}
}

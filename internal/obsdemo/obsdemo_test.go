package obsdemo

import (
	"encoding/json"
	"testing"
)

// TestRunPopulatesEveryMetricFamily checks the demo workload touches all
// four instrumented layers: serving, streaming recognition, training,
// and both classifiers.
func TestRunPopulatesEveryMetricFamily(t *testing.T) {
	reg, err := Run(1)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	for _, name := range []string{
		"serve.events.submitted", "serve.sessions.opened", "serve.sessions.completed",
		"serve.sessions.drained", "serve.swaps", "serve.swaps_rejected",
		"eager.train.runs", "eager.fired.eager", "eager.session.resets",
		"eager.session.poisoned",
		"classifier.full.classifications", "classifier.auc.classifications",
	} {
		if counters[name] == 0 {
			t.Errorf("counter %s = 0 after the demo workload", name)
		}
	}

	hists := map[string]int64{}
	for _, h := range snap.Histograms {
		hists[h.Name] = h.Count
	}
	for _, name := range []string{
		"serve.queue.depth", "serve.queue.wait_ns", "serve.session.latency_ns",
		"eager.decide_ns", "eager.commit_frac", "eager.train.total_ns",
		"eager.train.worker_util",
		"classifier.full.score_ns", "classifier.auc.score_ns",
	} {
		if hists[name] == 0 {
			t.Errorf("histogram %s recorded nothing", name)
		}
	}

	if len(snap.Traces) != 1 || snap.Traces[0].Name != "serve.trace" || snap.Traces[0].Emitted == 0 {
		t.Errorf("expected a populated serve.trace ring, got %+v", snap.Traces)
	}
}

// TestRunDeterministicStructure runs the demo twice with one seed and
// checks the snapshots agree on everything the contract pins down:
// metric names, bucket boundaries, and every count-valued metric.
// (Latency histogram sums differ run over run, so strip them. Every
// counter is compared: SubmitWait waits out a full queue without
// counting it, so serve.events.rejected counts only the scripted
// admission shed.)
func TestRunDeterministicStructure(t *testing.T) {
	strip := func(t *testing.T, seed int64) string {
		t.Helper()
		reg, err := Run(seed)
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		type hist struct {
			Name   string
			Count  int64
			Bounds []float64
		}
		doc := struct {
			Schema   int
			Counters any
			Hists    []hist
			Traces   []string
		}{Schema: snap.Schema, Counters: snap.Counters}
		for _, h := range snap.Histograms {
			doc.Hists = append(doc.Hists, hist{Name: h.Name, Count: h.Count, Bounds: h.Bounds})
		}
		for _, tr := range snap.Traces {
			doc.Traces = append(doc.Traces, tr.Name)
		}
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a, b := strip(t, 42), strip(t, 42)
	if a != b {
		t.Errorf("same-seed demo runs disagree on structure/counts:\n%s\n%s", a, b)
	}
}

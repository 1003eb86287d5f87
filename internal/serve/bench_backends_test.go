package serve

// The hot-path allocation contract, extended to the template backend.
// bench_hotpath_test.go proves the eager backend's decide/Submit paths
// allocation-free; the gates here prove the same property holds when
// the engine is routed through the streaming template matcher — the
// recognizer.Backend abstraction must not cost an allocation per point
// on either side of the interface. CI publishes the benchmark numbers
// as BENCH_backends.json, the A/B companion to BENCH_hotpath.json's
// eager-only figures.

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/template"
)

// trainTemplate trains a streaming template backend on the same UD
// workload trainRec uses for the eager backend, so cross-backend tests
// and benchmarks compare like against like.
func trainTemplate(t testing.TB, seed int64) *template.Recognizer {
	t.Helper()
	set, _ := synth.NewGenerator(synth.DefaultParams(seed)).Set("train", synth.UDClasses(), 12)
	rec, err := template.Train(set, template.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// BenchmarkTemplateDecidePerPoint measures one template.Session.Add —
// incremental resample plus nearest-template scoring — on a warm
// session with observability disabled. The contract is 0 allocs/op;
// the ns/op sits above the eager backend's (O(templates x points)
// scoring against O(features)), which is exactly the cost-structure
// trade the A/B experiment quantifies.
func BenchmarkTemplateDecidePerPoint(b *testing.B) { benchDecide(b, trainTemplate(b, 1), nil) }

// BenchmarkTemplateDecidePerPointObs is BenchmarkTemplateDecidePerPoint
// with decide metrics and the per-point decide span recorded, measured
// once every span ring slot has been written.
func BenchmarkTemplateDecidePerPointObs(b *testing.B) {
	benchDecide(b, trainTemplate(b, 1), obs.New())
}

// BenchmarkTemplateSubmitSteadyState measures the full engine path with
// the template backend selected via Options.Backend — Submit, shard
// dispatch, streaming decide, completion, pool return — in steady
// state. 0 allocs/op means backend selection costs nothing per event.
func BenchmarkTemplateSubmitSteadyState(b *testing.B) { benchSubmit(b, trainTemplate(b, 1), nil) }

// BenchmarkTemplateSubmitSteadyStateObs is
// BenchmarkTemplateSubmitSteadyState with the engine and backend
// instrumented.
func BenchmarkTemplateSubmitSteadyStateObs(b *testing.B) {
	benchSubmit(b, trainTemplate(b, 1), obs.New())
}

// TestTemplateDecidePathZeroAlloc is the allocation gate as a hard
// test: a warm template session must perform zero allocations per Add,
// the same contract TestDecidePathZeroAlloc pins for the eager backend.
func TestTemplateDecidePathZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	gateDecide(t, trainTemplate(t, 1), nil)
}

// TestTemplateDecidePathZeroAllocObs is the instrumented template twin
// of TestDecidePathZeroAllocObs.
func TestTemplateDecidePathZeroAllocObs(t *testing.T) {
	skipUnderRace(t)
	gateDecide(t, trainTemplate(t, 1), obs.New())
}

// TestTemplateSubmitPathZeroAlloc extends the gate to the engine's
// intake half with the template backend serving.
func TestTemplateSubmitPathZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	gateSubmit(t, trainTemplate(t, 1), nil)
}

// TestTemplateSubmitPathZeroAllocObs is the instrumented template twin
// of TestSubmitPathZeroAllocObs.
func TestTemplateSubmitPathZeroAllocObs(t *testing.T) {
	skipUnderRace(t)
	gateSubmit(t, trainTemplate(t, 1), obs.New())
}

package serve

import (
	"testing"
	"time"

	"repro/internal/eager"
	"repro/internal/multipath"
	"repro/internal/obs"
)

// The Fault* benchmarks back BENCH_fault.json in CI: the cost of the
// hardening layer itself — Submit-time validation, the per-event
// validation check inside a live engine, and an on-demand reap sweep —
// so regressions in the robustness plumbing are diffable run over run.

var benchErrSink error

// BenchmarkFaultValidate measures the pure Submit-time validation check
// on a well-formed event — the per-event cost every producer pays.
func BenchmarkFaultValidate(b *testing.B) {
	ev := Event{Session: "bench", Finger: 0, Kind: multipath.FingerMove, X: 10, Y: 20, T: 1.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchErrSink = validate(ev)
	}
}

// BenchmarkFaultSubmitStray measures SubmitWait end-to-end on a live engine
// — validation, timestamp high-water tracking, and the shard handoff —
// using stray moves the shard drops cheaply, so the classifier stays
// out of the measurement.
func BenchmarkFaultSubmitStray(b *testing.B) {
	rec := benchRec(b)
	e, err := New(rec, Options{Shards: 1, QueueDepth: 1024})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchErrSink = e.SubmitWait(Event{Session: "stray", Finger: 0, Kind: multipath.FingerMove, X: 1, Y: 2, T: float64(i)})
	}
}

// BenchmarkFaultReapNoop measures an on-demand reap sweep over an
// engine with no idle sessions — the steady-state cost of running the
// reaper when nothing needs collecting.
func BenchmarkFaultReapNoop(b *testing.B) {
	rec := benchRec(b)
	clk := obs.NewManualClock(time.Unix(1_700_000_000, 0))
	e, err := New(rec, Options{Shards: 1, IdleTimeout: time.Second, ReapInterval: -1, Clock: clk})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Reap(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRec trains the small recognizer the serve benchmarks share.
func benchRec(b *testing.B) *eager.Recognizer {
	b.Helper()
	return trainRec(b, 7)
}

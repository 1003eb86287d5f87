package obs_test

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// base is a fixed, positive-epoch test instant aligned to a slot
// boundary so advancing by whole slots lands exactly on new epochs.
var base = time.Unix(1_700_000_000, 0)

func TestWindowedCounterRotation(t *testing.T) {
	clk := obs.NewManualClock(base)
	reg := obs.New()
	reg.SetClock(clk)
	w := reg.WindowedCounter("win", 10*time.Second, 6) // 1-minute ring

	w.Add(3)
	w.Inc()
	clk.Advance(10 * time.Second)
	w.Add(5)

	snap := reg.Snapshot().Window("win")
	if snap.Name != "win" || snap.Slots != 6 || snap.SlotNS != int64(10*time.Second) {
		t.Fatalf("snapshot geometry = %+v", snap)
	}
	if got := snap.Total(20 * time.Second); got != 9 {
		t.Errorf("Total(20s) = %d, want 9", got)
	}
	if got := snap.Total(10 * time.Second); got != 5 {
		t.Errorf("Total(10s) = %d, want 5 (only the current slot)", got)
	}
	if got := snap.Rate(20 * time.Second); got != 9.0/20 {
		t.Errorf("Rate(20s) = %g, want %g", got, 9.0/20)
	}

	// A full ring revolution later the old slots are reclaimed lazily:
	// totals over the whole ring must only see the new data.
	clk.Advance(60 * time.Second)
	w.Add(7)
	snap = reg.Snapshot().Window("win")
	if got := snap.Total(time.Minute); got != 7 {
		t.Errorf("Total(1m) after revolution = %d, want 7", got)
	}
}

func TestWindowedCounterCovered(t *testing.T) {
	clk := obs.NewManualClock(base)
	reg := obs.New()
	reg.SetClock(clk)
	w := reg.WindowedCounter("win", 10*time.Second, 6)
	w.Inc()
	snap := reg.Snapshot().Window("win")

	// Sub-slot windows round up to one slot; ring-exceeding windows are
	// capped at the ring span (how the SLO engine evaluates a 6h window
	// against a 1m ring).
	if got := snap.Covered(3 * time.Second); got != 10*time.Second {
		t.Errorf("Covered(3s) = %v, want 10s", got)
	}
	if got := snap.Covered(25 * time.Second); got != 30*time.Second {
		t.Errorf("Covered(25s) = %v, want 30s (ceil to slot)", got)
	}
	if got := snap.Covered(6 * time.Hour); got != time.Minute {
		t.Errorf("Covered(6h) = %v, want 1m (capped at ring)", got)
	}
}

func TestWindowedHistogramMerge(t *testing.T) {
	clk := obs.NewManualClock(base)
	reg := obs.New()
	reg.SetClock(clk)
	bounds := []float64{10, 100, 1000}
	w := reg.WindowedHistogram("win", bounds, 10*time.Second, 6)

	w.Observe(5)  // bucket 0
	w.Observe(50) // bucket 1
	clk.Advance(10 * time.Second)
	w.Observe(500)  // bucket 2
	w.Observe(5000) // overflow

	snap := reg.Snapshot().Window("win")
	m := snap.Merge(20 * time.Second)
	if m.Count != 4 {
		t.Fatalf("merged Count = %d, want 4", m.Count)
	}
	if want := []int64{1, 1, 1, 1}; len(m.Counts) != 4 || m.Counts[0] != want[0] || m.Counts[1] != want[1] || m.Counts[2] != want[2] || m.Counts[3] != want[3] {
		t.Errorf("merged Counts = %v, want %v", m.Counts, want)
	}
	if m.Min != 5 || m.Max != 5000 {
		t.Errorf("merged Min/Max = %g/%g, want 5/5000", m.Min, m.Max)
	}
	if m.Sum != 5555 {
		t.Errorf("merged Sum = %g, want 5555", m.Sum)
	}
	// The one-slot merge only sees the current slot.
	m1 := snap.Merge(10 * time.Second)
	if m1.Count != 2 || m1.Min != 500 || m1.Max != 5000 {
		t.Errorf("one-slot merge = count %d min %g max %g, want 2/500/5000", m1.Count, m1.Min, m1.Max)
	}
	// Quantiles work on the merged view.
	if q := m.Quantile(0.5); q < 5 || q > 5000 {
		t.Errorf("merged Quantile(0.5) = %g out of observed range", q)
	}
}

func TestWindowedHistogramEmptyMerge(t *testing.T) {
	reg := obs.New()
	reg.SetClock(obs.NewManualClock(base))
	reg.WindowedHistogram("win", []float64{1, 2}, 10*time.Second, 6)
	m := reg.Snapshot().Window("win").Merge(time.Minute)
	if m.Count != 0 || m.Min != 0 || m.Max != 0 || m.Sum != 0 {
		t.Errorf("empty merge = %+v, want zeroed", m)
	}
	if m.Quantile(0.99) != 0 {
		t.Errorf("empty merge Quantile = %g, want 0", m.Quantile(0.99))
	}
}

// TestWindowSnapshotOfMissingInstrument pins the Snapshot.Window lookup
// contract: absent names return a zero WindowSnap whose aggregations are
// all zero, so SLO evaluation over an instrument that never registered
// degrades to "no data", not a panic.
func TestWindowSnapshotOfMissingInstrument(t *testing.T) {
	snap := obs.New().Snapshot().Window("nope")
	if snap.Slots != 0 || snap.Total(time.Minute) != 0 || snap.Rate(time.Minute) != 0 {
		t.Errorf("missing window = %+v, want zero", snap)
	}
	if m := snap.Merge(time.Minute); m.Count != 0 {
		t.Errorf("missing window merge count = %d, want 0", m.Count)
	}
}

// TestWindowedKindMismatch pins the registration contract: a name
// registered as one windowed kind returns nil (the disabled instrument)
// from the other accessor rather than a second instrument.
func TestWindowedKindMismatch(t *testing.T) {
	reg := obs.New()
	if reg.WindowedCounter("x", 0, 0) == nil {
		t.Fatal("first registration returned nil")
	}
	h := reg.WindowedHistogram("x", nil, 0, 0)
	if h != nil {
		t.Errorf("mismatched accessor returned %v, want nil", h)
	}
	h.Observe(1) // the nil handle must still be safe to use
}

// TestWindowedConcurrentRotation races many observers against a clock
// that keeps advancing across slot boundaries; the invariant is only
// that nothing tears and the final ring total never exceeds what was
// added (boundary races may drop, never double).
func TestWindowedConcurrentRotation(t *testing.T) {
	clk := obs.NewManualClock(base)
	reg := obs.New()
	reg.SetClock(clk)
	w := reg.WindowedCounter("win", time.Millisecond, 8)

	const goroutines, each = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				w.Inc()
				if i%100 == 0 {
					clk.Advance(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	total := reg.Snapshot().Window("win").Total(8 * time.Millisecond)
	if total > goroutines*each {
		t.Errorf("ring total %d exceeds %d additions", total, goroutines*each)
	}
}

// TestWindowedEnabledPathZeroAlloc is the acceptance gate for "the
// decide/submit paths stay 0 allocs/op with windowing enabled": the
// windowed Add/Observe enabled paths themselves must not allocate.
func TestWindowedEnabledPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	reg := obs.New()
	reg.SetClock(obs.NewManualClock(base))
	wc := reg.WindowedCounter("c", 0, 0)
	wh := reg.WindowedHistogram("h", obs.LatencyBuckets(), 0, 0)
	if n := testing.AllocsPerRun(200, func() { wc.Add(1) }); n != 0 {
		t.Errorf("WindowedCounter.Add allocates %g/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { wh.Observe(123456) }); n != 0 {
		t.Errorf("WindowedHistogram.Observe allocates %g/op, want 0", n)
	}
}

func TestGauge(t *testing.T) {
	reg := obs.New()
	g := reg.Gauge("g")
	g.Set(2.5)
	g.Add(-0.5)
	if v := g.Value(); v != 2 {
		t.Errorf("Value = %g, want 2", v)
	}
	snap := reg.Snapshot()
	if len(snap.Gauges) != 1 || snap.Gauges[0].Name != "g" || snap.Gauges[0].Value != 2 {
		t.Errorf("gauge snapshot = %+v", snap.Gauges)
	}
	var nilG *obs.Gauge
	nilG.Set(1)
	nilG.Add(1)
	if nilG.Value() != 0 {
		t.Error("nil gauge must read 0")
	}
}

func TestHistogramExemplar(t *testing.T) {
	reg := obs.New()
	h := reg.Histogram("h", []float64{10, 100})
	h.ObserveExemplar(5, 11, 3)   // bucket 0
	h.ObserveExemplar(500, 22, 0) // overflow bucket
	h.ObserveExemplar(7, 33, 4)   // bucket 0 again: replaces the first

	snap := reg.Snapshot().Histograms[0]
	if snap.Count != 3 {
		t.Fatalf("Count = %d, want 3", snap.Count)
	}
	if len(snap.Exemplars) != 2 {
		t.Fatalf("Exemplars = %+v, want 2 (latest per occupied bucket)", snap.Exemplars)
	}
	first, last := snap.Exemplars[0], snap.Exemplars[1]
	if first.Bucket != 0 || first.Value != 7 || first.SpanID != 33 || first.Seq != 4 {
		t.Errorf("bucket-0 exemplar = %+v, want latest (value 7, span 33, seq 4)", first)
	}
	if last.Bucket != 2 || last.Value != 500 || last.SpanID != 22 || last.Seq != 0 {
		t.Errorf("overflow exemplar = %+v", last)
	}
	if first.At == 0 || last.At == 0 {
		t.Error("exemplar record time not stamped")
	}
}

// TestSnapshotJSONRoundTrip guards the wire shape gtop depends on: a
// Snapshot with gauges, windows, and exemplars must survive a JSON
// round trip structurally intact.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	clk := obs.NewManualClock(base)
	reg := obs.New()
	reg.SetClock(clk)
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(1.5)
	reg.Histogram("h", []float64{10}).ObserveExemplar(5, 9, 1)
	reg.WindowedCounter("wc", 10*time.Second, 6).Add(2)
	reg.WindowedHistogram("wh", []float64{10}, 10*time.Second, 6).Observe(3)

	raw, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back obs.Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Window("wc").Total(time.Minute) != 2 {
		t.Errorf("windowed counter lost in round trip: %+v", back.Window("wc"))
	}
	if back.Window("wh").Merge(time.Minute).Count != 1 {
		t.Errorf("windowed histogram lost in round trip: %+v", back.Window("wh"))
	}
	if len(back.Histograms) != 1 || len(back.Histograms[0].Exemplars) != 1 {
		t.Errorf("exemplars lost in round trip: %+v", back.Histograms)
	}
}

// TestObserveSinceWindowed checks the dual-observation helper keeps the
// cumulative and windowed views in lockstep, and stays a no-op on the
// zero start time.
func TestObserveSinceWindowed(t *testing.T) {
	reg := obs.New()
	h := reg.Histogram("h", obs.LatencyBuckets())
	w := reg.WindowedHistogram("w", obs.LatencyBuckets(), 0, 0)
	obs.ObserveSinceWindowed(h, w, time.Now().Add(-time.Millisecond))
	if h.Count() != 1 {
		t.Errorf("cumulative count = %d, want 1", h.Count())
	}
	if got := reg.Snapshot().Window("w").Total(time.Minute); got != 1 {
		t.Errorf("windowed count = %d, want 1", got)
	}
	obs.ObserveSinceWindowed(h, w, time.Time{})
	if h.Count() != 1 {
		t.Error("zero start must be a no-op")
	}
}

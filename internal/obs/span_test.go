package obs_test

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestSpanNilSafety(t *testing.T) {
	var b *obs.SpanBuffer
	if sp := b.Start("x"); sp != nil {
		t.Fatal("Start on nil buffer returned a span")
	}
	if b.Cap() != 0 || b.Recorded() != 0 || b.Records() != nil {
		t.Error("nil buffer accessors not zero")
	}
	var s *obs.Span
	if c := s.Child("x"); c != nil {
		t.Fatal("Child on nil span returned a span")
	}
	// The owner-storage entry points are disabled too, and leave the
	// storage untouched.
	own := *obs.New().Spans("t", 1).Start("kept")
	if b.StartIn(&own, "x", time.Time{}) != nil || s.ChildIn(&own, "x", time.Time{}) != nil {
		t.Fatal("StartIn/ChildIn on a nil receiver returned a span")
	}
	if own.ID() != 1 {
		t.Error("disabled StartIn/ChildIn touched the owner's storage")
	}
	// All of these must be silent no-ops.
	s.SetAttr("k", "v")
	s.SetAttrInt("k", 1)
	s.SetAttrFloat("k", 1.5)
	s.Event("e", "d")
	s.End()
	s.EndAt(time.Now())
	if s.ID() != 0 {
		t.Error("nil span ID != 0")
	}
	var reg *obs.Registry
	if reg.Spans("x", 8) != nil {
		t.Error("nil registry returned a span buffer")
	}
}

func TestSpanCausalLinks(t *testing.T) {
	b := obs.New().Spans("t", 64)
	root := b.Start("gesture")
	root.SetAttr("session", "s1")
	child := root.Child("decide")
	child.SetAttrInt("point", 3)
	grand := child.Child("auc_score")
	grand.End()
	child.End()
	child.End() // idempotent: must not publish twice
	root.Event("commit", "circle")
	root.End()

	recs := b.Records()
	if len(recs) != 4 {
		t.Fatalf("recorded %d spans, want 4 (grand, child, event, root)", len(recs))
	}
	byName := map[string]obs.SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	g, c, r := byName["auc_score"], byName["decide"], byName["gesture"]
	ev := byName["commit"]
	if c.Parent != r.ID || g.Parent != c.ID || ev.Parent != r.ID {
		t.Errorf("parent links wrong: %+v", byName)
	}
	for _, x := range recs {
		if x.Root != r.ID {
			t.Errorf("span %q root = %d, want %d", x.Name, x.Root, r.ID)
		}
	}
	if ev.Start != ev.End {
		t.Error("event span is not zero-duration")
	}
	if len(ev.Attrs) != 1 || ev.Attrs[0].Key != "detail" || ev.Attrs[0].Str != "circle" {
		t.Errorf("event detail attr = %+v", ev.Attrs)
	}
	if c.Attrs[0].Kind != obs.AttrInt || c.Attrs[0].Int != 3 {
		t.Errorf("typed attr = %+v", c.Attrs[0])
	}
	if r.End < r.Start || c.Start < r.Start || c.End > r.End {
		t.Error("child span not time-contained in root")
	}
}

func TestSpanBufferWraps(t *testing.T) {
	b := obs.New().Spans("t", 4)
	for i := 0; i < 10; i++ {
		b.Start("s").End()
	}
	if got := b.Recorded(); got != 10 {
		t.Errorf("Recorded = %d, want 10", got)
	}
	recs := b.Records()
	if len(recs) != 4 {
		t.Fatalf("retained %d, want capacity 4", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Errorf("records not in sequence order: %v", recs)
		}
	}
	if recs[len(recs)-1].Seq != 9 {
		t.Errorf("newest seq = %d, want 9", recs[len(recs)-1].Seq)
	}
}

// TestSpanConcurrentRecording hammers one buffer from many goroutines —
// the race detector referees the per-slot publication.
func TestSpanConcurrentRecording(t *testing.T) {
	b := obs.New().Spans("t", 32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				root := b.Start("root")
				c := root.Child("child")
				c.End()
				root.Event("ev", "")
				root.End()
				_ = b.Records()
			}
		}()
	}
	wg.Wait()
	if got := b.Recorded(); got != 8*200*3 {
		t.Errorf("Recorded = %d, want %d", got, 8*200*3)
	}
}

func TestStartAtBackdates(t *testing.T) {
	b := obs.New().Spans("t", 8)
	at := time.Now().Add(-time.Second)
	sp := b.StartAt("gesture", at)
	sp.End()
	recs := b.Records()
	if len(recs) != 1 {
		t.Fatal("no record")
	}
	if recs[0].Start != at.UnixNano() {
		t.Errorf("Start = %d, want backdated %d", recs[0].Start, at.UnixNano())
	}
	if recs[0].End-recs[0].Start < int64(time.Second) {
		t.Error("duration shorter than the backdated second")
	}
}

func TestSnapshotIncludesSpans(t *testing.T) {
	reg := obs.New()
	b := reg.Spans("gesture.spans", 16)
	b.Start("gesture").End()
	snap := reg.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("snapshot has %d span sections, want 1", len(snap.Spans))
	}
	sec := snap.Spans[0]
	if sec.Name != "gesture.spans" || sec.Cap != 16 || sec.Recorded != 1 || len(sec.Spans) != 1 {
		t.Errorf("span section = %+v", sec)
	}
	// The section must survive a JSON round-trip (it rides in /metrics).
	var back obs.Snapshot
	data, _ := json.Marshal(snap)
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != 1 || back.Spans[0].Spans[0].Name != "gesture" {
		t.Errorf("span section lost in JSON round-trip: %+v", back.Spans)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	reg := obs.New()
	b := reg.Spans("gesture.spans", 16)
	root := b.Start("gesture")
	root.SetAttr("session", "s1")
	c := root.Child("decide")
	c.SetAttrInt("point", 1)
	c.SetAttrFloat("margin", 0.5)
	c.End()
	root.End()

	var sb strings.Builder
	if err := reg.Snapshot().WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("not valid Chrome Trace JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) != 2 {
		t.Fatalf("doc = %+v", doc)
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Pid != 1 || e.Cat != "gesture.spans" {
			t.Errorf("event %+v", e)
		}
		if e.Tid != doc.TraceEvents[0].Tid {
			t.Error("spans of one trace landed on different tids")
		}
	}
	var decide map[string]any
	for _, e := range doc.TraceEvents {
		if e.Name == "decide" {
			decide = e.Args
		}
	}
	if decide == nil {
		t.Fatal("decide event missing")
	}
	if decide["point"] != float64(1) || decide["margin"] != 0.5 || decide["parent"] == nil {
		t.Errorf("decide args = %+v", decide)
	}

	// Empty snapshot still renders a valid document.
	sb.Reset()
	if err := (obs.Snapshot{}).WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"traceEvents":[]`) {
		t.Errorf("empty trace = %s", sb.String())
	}
}

func TestReportIncludesQuantilesAndSpans(t *testing.T) {
	reg := obs.New()
	h := reg.Histogram("lat", []float64{1, 10, 100})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i % 100))
	}
	reg.Spans("gesture.spans", 8).Start("gesture").End()
	report := reg.Report()
	for _, want := range []string{"p50", "p95", "p99", "spans gesture.spans", "(1 recorded, cap 8"} {
		if !strings.Contains(report, want) {
			t.Errorf("Report missing %q:\n%s", want, report)
		}
	}
	var nilReg *obs.Registry
	if !strings.Contains(nilReg.Report(), "obs snapshot") {
		t.Error("nil-registry Report broken")
	}
}

func TestHistogramQuantile(t *testing.T) {
	var nilH *obs.Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram quantile != 0")
	}
	h := obs.New().Histogram("q", []float64{10, 20, 30, 40})
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	// 100 observations uniform over (0, 40].
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.4)
	}
	cases := []struct {
		q, lo, hi float64
	}{
		{0, 0.4, 0.4},   // min
		{1, 40, 40},     // max
		{0.5, 10, 20},   // true p50 = 20; bucket (10,20]
		{0.95, 30, 40},  // true p95 = 38
		{0.99, 30, 40},  // true p99 = 39.6
		{0.25, 0.4, 10}, // first bucket interpolates from observed min
	}
	for _, c := range cases {
		got := h.Quantile(c.q)
		if got < c.lo || got > c.hi {
			t.Errorf("Quantile(%g) = %g, want in [%g, %g]", c.q, got, c.lo, c.hi)
		}
	}
	// Upper-bound property: the estimate never exceeds the upper boundary
	// of the bucket holding the true quantile.
	if got := h.Quantile(0.5); got > 20 {
		t.Errorf("p50 estimate %g exceeds its bucket's upper bound 20", got)
	}
}

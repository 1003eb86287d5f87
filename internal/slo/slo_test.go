package slo_test

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/slo"
)

var base = time.Unix(1_700_000_000, 0)

// newFixture wires a registry, manual clock, and engine over the default
// objectives, and returns the instruments the objectives read.
func newFixture() (*obs.ManualClock, *obs.Registry, *slo.Engine, *obs.WindowedHistogram, *obs.WindowedCounter, *obs.WindowedCounter) {
	clk := obs.NewManualClock(base)
	reg := obs.New()
	reg.SetClock(clk)
	eng := slo.New(reg, slo.DefaultObjectives(), clk)
	decide := reg.WindowedHistogram("window.eager.decide_ns", obs.LatencyBuckets(), 0, 0)
	nacks := reg.WindowedCounter("window.wire.nacks", 0, 0)
	decoded := reg.WindowedCounter("window.wire.events.decoded", 0, 0)
	return clk, reg, eng, decide, nacks, decoded
}

func status(t *testing.T, ev slo.Evaluation, name string) slo.Status {
	t.Helper()
	for _, st := range ev.Objectives {
		if st.Objective.Name == name {
			return st
		}
	}
	t.Fatalf("objective %q not in evaluation", name)
	return slo.Status{}
}

func TestEvaluateNoTraffic(t *testing.T) {
	_, _, eng, _, _, _ := newFixture()
	ev := eng.Evaluate()
	if len(ev.Objectives) != 2 {
		t.Fatalf("objectives = %d, want 2", len(ev.Objectives))
	}
	for _, st := range ev.Objectives {
		if st.State != slo.StateOK || st.BurnFast != 0 || st.BurnSlow != 0 {
			t.Errorf("%s with no traffic = %v burn %g/%g, want ok 0/0",
				st.Objective.Name, st.State, st.BurnFast, st.BurnSlow)
		}
	}
	if ev.AtNS != base.UnixNano() {
		t.Errorf("AtNS = %d, want the injected clock's %d", ev.AtNS, base.UnixNano())
	}
}

func TestLatencyObjectiveStates(t *testing.T) {
	clk, _, eng, decide, _, _ := newFixture()

	// Healthy: every decide well under the 500µs threshold.
	for i := 0; i < 100; i++ {
		decide.Observe(1e5)
	}
	st := status(t, eng.Evaluate(), "decide_p99")
	if st.State != slo.StateOK || st.BurnFast != 0 {
		t.Fatalf("healthy state = %v burn %g, want ok 0", st.State, st.BurnFast)
	}

	// Regression: half the decides blow the threshold. Bad fraction 0.5
	// against a 1% budget is a burn of 50 on every window → page.
	for i := 0; i < 100; i++ {
		decide.Observe(1e6)
	}
	st = status(t, eng.Evaluate(), "decide_p99")
	if st.State != slo.StatePage {
		t.Fatalf("regressed state = %v, want page (burn fast %g slow %g)", st.State, st.BurnFast, st.BurnSlow)
	}
	if st.BurnFast != 50 || st.BurnSlow != 50 {
		t.Errorf("burns = %g/%g, want 50/50 (ratio 0.5 over 1%% budget)", st.BurnFast, st.BurnSlow)
	}
	if st.FastShort.Bad != 100 || st.FastShort.Total != 200 {
		t.Errorf("fast-short bad/total = %d/%d, want 100/200", st.FastShort.Bad, st.FastShort.Total)
	}

	// Recovery: six minutes later the bad slots have left the 5-minute
	// window but still sit inside the slow 30-minute windows — the page
	// clears (fast pair no longer burning) but the warn holds.
	clk.Advance(6 * time.Minute)
	for i := 0; i < 50; i++ {
		decide.Observe(1e5)
	}
	st = status(t, eng.Evaluate(), "decide_p99")
	if st.State != slo.StateWarn {
		t.Fatalf("recovering state = %v, want warn (burn fast %g slow %g)", st.State, st.BurnFast, st.BurnSlow)
	}
	if st.FastShort.Bad != 0 {
		t.Errorf("fast-short window still sees %d bad after recovery", st.FastShort.Bad)
	}
	if st.SlowShort.Bad != 100 {
		t.Errorf("slow-short window sees %d bad, want the 100 regressed decides", st.SlowShort.Bad)
	}
}

func TestRatioObjectiveStates(t *testing.T) {
	_, _, eng, _, nacks, decoded := newFixture()

	decoded.Add(10000)
	st := status(t, eng.Evaluate(), "wire_nack_ratio")
	if st.State != slo.StateOK {
		t.Fatalf("clean wire state = %v, want ok", st.State)
	}

	// 2% NACKs against a 0.1% budget burns at 20 → page.
	nacks.Add(200)
	st = status(t, eng.Evaluate(), "wire_nack_ratio")
	if st.State != slo.StatePage {
		t.Fatalf("nacking wire state = %v (burn %g), want page", st.State, st.BurnFast)
	}
	if st.FastShort.Bad != 200 || st.FastShort.Total != 10000 {
		t.Errorf("fast-short bad/total = %d/%d, want 200/10000", st.FastShort.Bad, st.FastShort.Total)
	}
}

// TestCoveredTruncation pins the long-window behavior: the 6h slow
// window evaluates over what the default 30m ring covers and reports
// the truncation through CoveredNS.
func TestCoveredTruncation(t *testing.T) {
	_, _, eng, decide, _, _ := newFixture()
	decide.Observe(1e5)
	st := status(t, eng.Evaluate(), "decide_p99")
	if st.SlowLong.WindowNS != int64(6*time.Hour) {
		t.Errorf("slow-long window = %d", st.SlowLong.WindowNS)
	}
	if st.SlowLong.CoveredNS != int64(30*time.Minute) {
		t.Errorf("slow-long covered = %v, want 30m (ring span)", time.Duration(st.SlowLong.CoveredNS))
	}
}

// TestEvaluatePublishesGauges checks the slo.* gauges land in the same
// registry so /metrics and /metrics.prom expose burn state.
func TestEvaluatePublishesGauges(t *testing.T) {
	_, reg, eng, decide, _, _ := newFixture()
	for i := 0; i < 10; i++ {
		decide.Observe(1e6) // everything bad → burn 100, page
	}
	eng.Evaluate()
	snap := reg.Snapshot()
	want := map[string]float64{
		"slo.decide_p99.burn_fast":      100,
		"slo.decide_p99.burn_slow":      100,
		"slo.decide_p99.state":          float64(slo.StatePage),
		"slo.wire_nack_ratio.burn_fast": 0,
		"slo.wire_nack_ratio.state":     float64(slo.StateOK),
	}
	got := map[string]float64{}
	for _, g := range snap.Gauges {
		got[g.Name] = g.Value
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("gauge %s = %g, want %g (have %v)", name, got[name], v, got)
		}
	}
}

func TestStateAndKindStrings(t *testing.T) {
	if slo.StateOK.String() != "ok" || slo.StateWarn.String() != "warn" || slo.StatePage.String() != "page" {
		t.Error("state names drifted")
	}
	if slo.KindLatency.String() != "latency" || slo.KindRatio.String() != "ratio" {
		t.Error("kind names drifted")
	}
	raw, err := json.Marshal(slo.StatePage)
	if err != nil || string(raw) != `"page"` {
		t.Errorf("state JSON = %s, %v", raw, err)
	}
}

func TestHandler(t *testing.T) {
	_, _, eng, decide, _, _ := newFixture()
	decide.Observe(1e5)
	rec := httptest.NewRecorder()
	slo.Handler(eng).ServeHTTP(rec, httptest.NewRequest("GET", "/slo", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q", ct)
	}
	var ev slo.Evaluation
	if err := json.Unmarshal(rec.Body.Bytes(), &ev); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	if ev.Schema != slo.EvaluationSchema || len(ev.Objectives) != 2 {
		t.Errorf("evaluation = schema %d, %d objectives", ev.Schema, len(ev.Objectives))
	}
	if ev.Objectives[0].Objective.Kind != slo.KindLatency {
		// Kind marshals by name; on decode it must come back typed.
		t.Errorf("kind did not survive the JSON round trip: %+v", ev.Objectives[0].Objective)
	}
}

// BenchmarkSLOEvaluate measures one full evaluation pass over a
// populated registry — the per-scrape cost of the /slo endpoint,
// published in BENCH_slo.json.
func BenchmarkSLOEvaluate(b *testing.B) {
	_, _, eng, decide, nacks, decoded := newFixture()
	for i := 0; i < 1000; i++ {
		decide.Observe(float64(i) * 1e3)
	}
	decoded.Add(100000)
	nacks.Add(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Evaluate()
	}
}

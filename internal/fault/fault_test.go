package fault_test

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

func mustSchedule(t *testing.T, p fault.Plan) *fault.Schedule {
	t.Helper()
	s, err := fault.NewSchedule(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func fullPlan(seed int64) fault.Plan {
	return fault.Plan{Seed: seed, Rates: map[fault.Kind]float64{
		fault.KindDrop:    0.05,
		fault.KindDup:     0.05,
		fault.KindNaN:     0.05,
		fault.KindInf:     0.05,
		fault.KindNegT:    0.05,
		fault.KindReorder: 0.05,
		fault.KindStall:   0.05,
		fault.KindPanic:   0.10,
		fault.KindPoison:  0.10,
	}}
}

// Same seed, same questions, same answers — regardless of call order.
func TestScheduleDeterministic(t *testing.T) {
	a := mustSchedule(t, fullPlan(42))
	b := mustSchedule(t, fullPlan(42))
	type key struct {
		sess string
		idx  int
	}
	fates := map[key]fault.Kind{}
	for _, sess := range []string{"s0", "s1", "s2"} {
		for i := 0; i < 200; i++ {
			fates[key{sess, i}] = a.Fate(sess, i)
		}
	}
	// Ask b in reverse order; answers must match a's.
	for _, sess := range []string{"s2", "s1", "s0"} {
		for i := 199; i >= 0; i-- {
			if got := b.Fate(sess, i); got != fates[key{sess, i}] {
				t.Fatalf("Fate(%s, %d) = %v on replay, want %v", sess, i, got, fates[key{sess, i}])
			}
		}
	}
	for _, sess := range []string{"s0", "s1"} {
		for i := 0; i < 200; i++ {
			ax, ay, ap := a.Dispatch(sess, i, 1, 2)
			bx, by, bp := b.Dispatch(sess, i, 1, 2)
			if ap != bp ||
				math.Float64bits(ax) != math.Float64bits(bx) ||
				math.Float64bits(ay) != math.Float64bits(by) {
				t.Fatalf("Dispatch(%s, %d) diverged between identical schedules", sess, i)
			}
		}
	}
}

func TestScheduleSeedsDiffer(t *testing.T) {
	a := mustSchedule(t, fullPlan(1))
	b := mustSchedule(t, fullPlan(2))
	diff := 0
	for i := 0; i < 500; i++ {
		if a.Fate("s", i) != b.Fate("s", i) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seeds 1 and 2 produced identical fate streams")
	}
}

// With rates in the plan, every kind should eventually be drawn, at
// roughly its configured frequency.
func TestScheduleCoversAllKinds(t *testing.T) {
	s := mustSchedule(t, fullPlan(7))
	seen := map[fault.Kind]int{}
	const n = 5000
	for i := 0; i < n; i++ {
		seen[s.Fate("cover", i)]++
	}
	for _, k := range []fault.Kind{
		fault.KindDrop, fault.KindDup, fault.KindNaN, fault.KindInf,
		fault.KindNegT, fault.KindReorder, fault.KindStall,
	} {
		if seen[k] == 0 {
			t.Errorf("kind %v never drawn in %d fates", k, n)
		}
		// 5% nominal; accept a generous band.
		if frac := float64(seen[k]) / n; frac < 0.02 || frac > 0.10 {
			t.Errorf("kind %v frequency %.3f, want ~0.05", k, frac)
		}
	}
	panics, poisons := 0, 0
	for i := 0; i < n; i++ {
		x, y, p := s.Dispatch("cover", i, 3, 4)
		switch {
		case p:
			panics++
		case math.IsNaN(x) || math.IsNaN(y):
			poisons++
		}
	}
	if panics == 0 || poisons == 0 {
		t.Fatalf("engine-side kinds not covered: %d panics, %d poisons", panics, poisons)
	}
}

func TestScheduleCountsInjections(t *testing.T) {
	reg := obs.New()
	s := mustSchedule(t, fullPlan(9))
	s.Instrument(reg)
	want := map[string]int64{}
	for i := 0; i < 1000; i++ {
		if k := s.Fate("m", i); k != fault.KindNone {
			want["fault.injected."+k.String()]++
			want["fault.injected.total"]++
		}
		x, y, p := s.Dispatch("m", i, 0, 0)
		switch {
		case p:
			want["fault.injected.panic"]++
			want["fault.injected.total"]++
		case math.IsNaN(x) || math.IsNaN(y):
			want["fault.injected.poison"]++
			want["fault.injected.total"]++
		}
	}
	got := map[string]int64{}
	for _, m := range reg.Snapshot().Counters {
		got[m.Name] = m.Value
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("%s = %d, want %d", name, got[name], n)
		}
	}
	// Every kind's counter is registered even when it never fired.
	for _, suffix := range []string{"drop", "dup", "nan", "inf", "neg_t", "reorder", "stall", "panic", "poison", "total"} {
		if _, ok := got["fault.injected."+suffix]; !ok {
			t.Errorf("fault.injected.%s not registered", suffix)
		}
	}
}

func TestNewScheduleRejectsBadPlans(t *testing.T) {
	cases := []fault.Plan{
		{Rates: map[fault.Kind]float64{fault.KindDrop: -0.1}},
		{Rates: map[fault.Kind]float64{fault.KindDrop: 1.5}},
		{Rates: map[fault.Kind]float64{fault.KindDrop: math.NaN()}},
		{Rates: map[fault.Kind]float64{fault.KindNone: 0.5}},
		{Rates: map[fault.Kind]float64{fault.Kind(99): 0.5}},
		{Rates: map[fault.Kind]float64{fault.KindDrop: 0.6, fault.KindDup: 0.6}},
	}
	for i, p := range cases {
		if _, err := fault.NewSchedule(p); err == nil {
			t.Errorf("case %d: plan accepted, want error", i)
		}
	}
}

// Nil receivers must behave as "no faults", not crash.
func TestNilHooksAreNoOps(t *testing.T) {
	var s *fault.Schedule
	var sc *fault.Schedule // the type NewScript returns
	s.Instrument(obs.New())
	sc.Instrument(obs.New())
	if k := s.Fate("x", 0); k != fault.KindNone {
		t.Fatalf("nil Schedule Fate = %v", k)
	}
	x, y, p := s.Dispatch("x", 0, 1, 2)
	if p || x != 1 || y != 2 {
		t.Fatalf("nil Schedule Dispatch = (%v, %v, %v)", x, y, p)
	}
	x, y, p = sc.Dispatch("x", 0, 1, 2)
	if p || x != 1 || y != 2 {
		t.Fatalf("nil Script Dispatch = (%v, %v, %v)", x, y, p)
	}
}

func TestScriptTargetsExactEvents(t *testing.T) {
	reg := obs.New()
	sc := fault.NewScript().
		Set("a", 3, fault.KindPanic).
		Set("b", 0, fault.KindPoison)
	sc.Instrument(reg)
	for i := 0; i < 10; i++ {
		x, y, p := sc.Dispatch("a", i, 1, 2)
		if i == 3 {
			if !p {
				t.Fatalf("a[3] did not panic")
			}
		} else if p || x != 1 || y != 2 {
			t.Fatalf("a[%d] = (%v, %v, %v), want passthrough", i, x, y, p)
		}
	}
	x, y, p := sc.Dispatch("b", 0, 1, 2)
	if p || !math.IsNaN(x) || !math.IsNaN(y) {
		t.Fatalf("b[0] = (%v, %v, %v), want poisoned coordinates", x, y, p)
	}
	if _, _, p := sc.Dispatch("untouched", 0, 1, 2); p {
		t.Fatal("unscripted session panicked")
	}
	got := map[string]int64{}
	for _, m := range reg.Snapshot().Counters {
		got[m.Name] = m.Value
	}
	if got["fault.injected.panic"] != 1 || got["fault.injected.poison"] != 1 || got["fault.injected.total"] != 2 {
		t.Fatalf("script counters = %v", got)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[fault.Kind]string{
		fault.KindNone:    "none",
		fault.KindDrop:    "drop",
		fault.KindDup:     "dup",
		fault.KindNaN:     "nan",
		fault.KindInf:     "inf",
		fault.KindNegT:    "neg_t",
		fault.KindReorder: "reorder",
		fault.KindStall:   "stall",
		fault.KindPanic:   "panic",
		fault.KindPoison:  "poison",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if fault.Kind(99).String() != "kind(99)" {
		t.Errorf("unknown kind renders %q", fault.Kind(99).String())
	}
}

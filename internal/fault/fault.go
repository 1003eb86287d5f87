// Package fault is the deterministic fault-injection subsystem behind
// the serving engine's chaos tests (and the obsdemo's scripted failure
// segment). It decides — reproducibly, from a seed — which events of
// which sessions get corrupted, dropped, duplicated, reordered,
// stalled, poisoned, or panicked, so the hardening in internal/serve
// (Submit validation, idle reaper, panic isolation, degraded mode) can
// be exercised under -race against exact invariants.
//
// Two injection points, two hook types:
//
//   - Producer side: a test harness consults Schedule.Fate once per
//     event it is about to submit and applies the returned Kind itself
//     (skip the submit for KindDrop, submit twice for KindDup, set a
//     coordinate to NaN for KindNaN, ...). Fate's decision is a pure
//     function of (seed, session, index), so two runs with the same
//     seed inject exactly the same faults regardless of goroutine
//     scheduling.
//
//   - Engine side: serve.Options.Fault accepts anything implementing
//     the engine's Injector hook (Schedule does); the engine consults
//     it once per dispatched event, inside the shard
//     goroutine, where it can corrupt coordinates after Submit-time
//     validation (simulating internal corruption) or force a panic
//     (exercising per-shard panic isolation).
//
// One driver type, Schedule, serves both: NewSchedule draws its fates
// from seeded rates, NewScript from exact rules. Every applied
// injection counts into the fault.injected.* counters (see
// OBSERVABILITY.md) when Instrument attached a registry, so a chaos run
// can check that each scheduled fault is visible end to end. All hooks
// are nil-safe no-ops: a nil *Schedule (or a nil serve.Options.Fault)
// costs a nil check and nothing else, holding the sub-5ns
// disabled-path contract (benchmark-enforced, like internal/obs).
//
// The seeded-fate mechanism itself — the FNV-1a roll, the validated
// rate streams, the exact rules and the per-kind counters — is Fates
// (core.go), which internal/netfault's connection-level driver shares.
package fault

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// Kind enumerates the injectable faults.
type Kind int

// Fault kinds. The first group is producer-side (applied by the
// harness before Submit), the second engine-side (applied by the
// engine's dispatch hook, after Submit-time validation).
const (
	// KindNone is the no-fault decision.
	KindNone Kind = iota
	// KindDrop deletes the event (never submitted).
	KindDrop
	// KindDup submits the event twice.
	KindDup
	// KindNaN sets a coordinate to NaN (Submit must reject it).
	KindNaN
	// KindInf sets a coordinate to +Inf (Submit must reject it).
	KindInf
	// KindNegT sets the timestamp negative (Submit must reject it).
	KindNegT
	// KindReorder swaps the event with its successor in submission order.
	KindReorder
	// KindStall abandons the session mid-stroke: this event and every
	// later one (including the FingerUp) are never submitted, leaving
	// the session idle until the engine's deadline reaper finishes it.
	KindStall
	// KindPanic makes the engine's dispatch hook panic, exercising
	// per-shard panic isolation.
	KindPanic
	// KindPoison corrupts the event's coordinates to NaN inside the
	// engine — past Submit validation — poisoning the eager extractor
	// and exercising the degraded-classification fallback.
	KindPoison
)

// producerKinds are the kinds Fate can return, in rate-table order.
var producerKinds = []Kind{KindDrop, KindDup, KindNaN, KindInf, KindNegT, KindReorder, KindStall}

// engineKinds are the kinds Dispatch can apply, in rate-table order.
var engineKinds = []Kind{KindPanic, KindPoison}

// String names the kind as it appears in the fault.injected.* metric
// suffix ("drop", "dup", "nan", "inf", "neg_t", "reorder", "stall",
// "panic", "poison"; KindNone is "none").
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindDrop:
		return "drop"
	case KindDup:
		return "dup"
	case KindNaN:
		return "nan"
	case KindInf:
		return "inf"
	case KindNegT:
		return "neg_t"
	case KindReorder:
		return "reorder"
	case KindStall:
		return "stall"
	case KindPanic:
		return "panic"
	case KindPoison:
		return "poison"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Plan declares a seeded fault mix: the per-event probability of each
// kind. Producer kinds and engine kinds are drawn independently (an
// event can be both reordered by the producer and poisoned by the
// engine); within each group the rates must sum to at most 1.
type Plan struct {
	// Seed selects the deterministic decision stream. Two Schedules
	// built from equal Plans make identical decisions.
	Seed int64
	// Rates maps each Kind to its per-event injection probability in
	// [0, 1]. Absent kinds have rate 0.
	Rates map[Kind]float64
}

// The hash domains of the producer-side and engine-side fates.
const (
	producer byte = 'p'
	engine   byte = 'e'
)

// Schedule is the fault driver. The fate of event index i of session s
// comes either from seeded rates (NewSchedule), as a pure FNV-1a
// function of (seed, side, s, i) that never depends on call order or
// timing, or from exact rules (NewScript). Configure before serving;
// Fate and Dispatch are then safe for concurrent use. Nil-safe: a nil
// *Schedule never injects.
type Schedule struct {
	f Fates[Kind]
}

func newSchedule(seed int64) *Schedule {
	return &Schedule{f: NewFates(seed,
		Domain[Kind]{ID: producer, Kinds: producerKinds},
		Domain[Kind]{ID: engine, Kinds: engineKinds})}
}

// NewSchedule validates a Plan and builds its Schedule. Rates outside
// [0, 1], unknown kinds, or a group summing past 1 are errors.
func NewSchedule(p Plan) (*Schedule, error) {
	s := newSchedule(p.Seed)
	if err := s.f.Rate("fault", p.Rates, producer, engine); err != nil {
		return nil, err
	}
	return s, nil
}

// NewScript returns a Schedule whose fates come from exact rules
// instead of rates, for a workload that needs exactly one fault in
// exactly one place (the obsdemo's deterministic failure segment). It
// injects nothing until Set.
func NewScript() *Schedule { return newSchedule(0) }

// Set schedules kind at the session's 0-based dispatch index and
// returns the schedule for chaining. Only engine-side kinds
// (KindPanic, KindPoison) have any effect. The first rule makes the
// schedule scripted: its rates no longer apply. Not safe concurrently
// with Dispatch — finish scripting before serving.
func (s *Schedule) Set(session string, index int, k Kind) *Schedule {
	s.f.Set(engine, session, index, k)
	return s
}

// Instrument attaches the fault.injected.* counters (one per kind plus
// a total; see OBSERVABILITY.md) to the registry. Call before serving;
// a nil registry (or receiver) is a no-op.
func (s *Schedule) Instrument(reg *obs.Registry) {
	if s == nil {
		return
	}
	s.f.Instrument(reg, "fault.injected.")
}

// Fate decides the producer-side fault, if any, for event index of the
// session. The caller owns applying it (and therefore every returned
// non-None kind is counted as injected). Nil-safe: returns KindNone.
func (s *Schedule) Fate(session string, index int) Kind {
	if s == nil {
		return KindNone
	}
	return s.f.Fate(producer, session, index)
}

// Dispatch is the engine-side hook (serve.Options.Fault): consulted
// once per dispatched event with the session, the session's 0-based
// dispatch index, and the event coordinates. It returns possibly
// corrupted coordinates plus panicNow, which asks the engine to panic
// in place of dispatching. Nil-safe: passes coordinates through.
func (s *Schedule) Dispatch(session string, index int, x, y float64) (fx, fy float64, panicNow bool) {
	if s == nil {
		return x, y, false
	}
	switch s.f.Fate(engine, session, index) {
	case KindPanic:
		return x, y, true
	case KindPoison:
		return math.NaN(), math.NaN(), false
	}
	return x, y, false
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"testing"

	"repro/internal/serve"
	"repro/internal/wire"
)

// TestInputsDeterministic pins that frames are a pure function of
// (workload, seed): one seed gives byte-identical frames, another seed
// different ones, and every frame decodes to the events its bookkeeping
// says it carries.
func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := buildInputs(w, 7, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			b, err := buildInputs(w, 7, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			other, err := buildInputs(w, 8, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			for c := range a {
				if !bytes.Equal(a[c].buf, b[c].buf) {
					t.Fatalf("connection %d: seed 7 built different frames twice", c)
				}
				if bytes.Equal(a[c].buf, other[c].buf) {
					t.Fatalf("connection %d: seeds 7 and 8 built identical frames", c)
				}
				checkDecodes(t, a[c], c)
			}
		})
	}
}

// checkDecodes decodes every encoded frame of in and compares each event
// with the gesture bookkeeping.
func checkDecodes(t *testing.T, in *connInput, c int) {
	t.Helper()
	dec := wire.NewDecoder()
	var evs []wire.Event
	for f := 0; f < in.frames(); f++ {
		var err error
		if evs, _, err = dec.DecodeFrame(in.frame(f), evs[:0]); err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		from, to := in.events(f)
		if len(evs) != to-from {
			t.Fatalf("frame %d: %d events, bookkeeping says %d", f, len(evs), to-from)
		}
		for i, ev := range evs {
			j := int(in.evGest[from+i])
			if id, ok := parseSession(ev.Session); !ok || id != gestureID(c, j) {
				t.Fatalf("frame %d event %d: session %q, want gesture %d", f, i, ev.Session, j)
			}
			g := in.gest[j]
			switch e := int32(from + i); {
			case ev.Kind == wire.KindDown && (e != g.downEv || f%in.cycle != int(g.downFrame)):
				t.Fatalf("frame %d event %d: unexpected first event of gesture %d", f, i, j)
			case ev.Kind == wire.KindUp && (e != g.upEv || f%in.cycle != int(g.upFrame)):
				t.Fatalf("frame %d event %d: unexpected mouse-up of gesture %d", f, i, j)
			}
		}
	}
}

// TestCheckCatchesWrongModel drives short runs through the real stack and
// checks that the reference replay passes the served Results and flags
// them when the reference is a model trained on another seed.
func TestCheckCatchesWrongModel(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the serving stack")
	}
	wrong, err := trainBackend("eager", nil, trainSeed+1)
	if err != nil {
		t.Fatal(err)
	}
	// The closed loop runs long enough to repeat its cycle, even under
	// the race detector.
	for name, seconds := range map[string]float64{"interactive-eager": 0.3, "bulk-eager": 2} {
		t.Run(name, func(t *testing.T) {
			w, err := lookupWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			in, err := buildInputs(w, 3, seconds)
			if err != nil {
				t.Fatal(err)
			}
			p, err := runPass(w, in, seconds, false, 1)
			if err != nil {
				t.Fatal(err)
			}
			if e := p.eval; len(e.problems) > 0 || e.failed > 0 || e.gestures == 0 {
				t.Fatalf("served model: %d of %d gestures failed, problems %v", e.failed, e.gestures, e.problems)
			}
			if !w.open && p.conn[0].nSent <= in[0].cycle {
				t.Fatalf("closed loop sent %d frames, want more than one cycle of %d", p.conn[0].nSent, in[0].cycle)
			}
			cc, err := p.check(wrong)
			if err != nil {
				t.Fatal(err)
			}
			if e := p.evaluate(cc); e.verdicts[verdictClass] == 0 || len(e.problems) == 0 {
				t.Fatalf("a reference trained on another seed flagged no gesture: verdicts %v", e.verdicts)
			}
		})
	}
}

// TestCheckCatchesDuplicateResult drives a closed-loop pass whose result
// hook receives the first Result of one session twice, and checks that
// the pass is flagged: the repeat is filed under the session's next
// instance, before that instance's mouse-up was written, and leaves the
// session with more Results than instances.
func TestCheckCatchesDuplicateResult(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the serving stack")
	}
	w, err := lookupWorkload("bulk-eager")
	if err != nil {
		t.Fatal(err)
	}
	const seconds = 2
	in, err := buildInputs(w, 3, seconds)
	if err != nil {
		t.Fatal(err)
	}
	p := newPass(w, in, seconds, false)
	var once sync.Once
	hook := func(r serve.Result) {
		p.onResult(r)
		if r.Session == sessionID(gestureID(0, 0)) {
			once.Do(func() { p.onResult(r) })
		}
	}
	if err := p.run(1, hook); err != nil {
		t.Fatal(err)
	}
	if p.conn[0].nSent <= in[0].cycle {
		t.Fatalf("closed loop sent %d frames, want more than one cycle of %d", p.conn[0].nSent, in[0].cycle)
	}
	if cc := p.cc[0]; cc.miscounted != 1 || cc.early == 0 {
		t.Errorf("miscounted %d gestures and %d early Results, want 1 and some", cc.miscounted, cc.early)
	}
	if len(p.eval.problems) == 0 {
		t.Error("a duplicated Result left the pass correct")
	}
}

// layerMap is perfbench/layers.json: which end-to-end metric, on which
// workload, each per-layer metric should move first.
type layerMap struct {
	Layers []struct {
		Layer   string   `json:"layer"`
		Metrics []string `json:"metrics"`
		Moves   []struct {
			Metric   string `json:"metric"`
			Workload string `json:"workload"`
		} `json:"moves"`
	} `json:"layers"`
}

// TestDeclarationMatchesProgram checks BENCHMARK.json against the program
// and the layer map against both: every per-layer metric belongs to
// exactly one layer, and every layer names workloads that exist and
// end-to-end metrics, gated or in the unbounded e2e layer.
func TestDeclarationMatchesProgram(t *testing.T) {
	d, err := loadDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var lm layerMap
	if err := json.Unmarshal(b, &lm); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, m := range d.EndToEnd {
		e2e[m.Name] = true
	}
	owner := map[string]string{}
	for _, l := range lm.Layers {
		for _, m := range l.Metrics {
			if prev, ok := owner[m]; ok {
				t.Errorf("%s is in layers %s and %s", m, prev, l.Layer)
			}
			owner[m] = l.Layer
			if l.Layer == "e2e" {
				e2e[m] = true
			}
		}
	}
	for _, l := range lm.Layers {
		for _, mv := range l.Moves {
			if _, err := lookupWorkload(mv.Workload); err != nil {
				t.Errorf("layer %s: %v", l.Layer, err)
			}
			if !e2e[mv.Metric] {
				t.Errorf("layer %s moves %s, not an end-to-end metric", l.Layer, mv.Metric)
			}
		}
	}
	for _, m := range d.PerLayer {
		if owner[m.Name] == "" {
			t.Errorf("per-layer metric %s has no layer in layers.json", m.Name)
		}
		delete(owner, m.Name)
	}
	for m := range owner {
		t.Errorf("layers.json lists %s, which BENCHMARK.json does not declare", m)
	}
	if len(d.EndToEnd)+len(d.PerLayer) != len(metricUnits) {
		t.Errorf("BENCHMARK.json declares %d metrics, the program measures %d", len(d.EndToEnd)+len(d.PerLayer), len(metricUnits))
	}
}

func TestParseSession(t *testing.T) {
	for _, id := range []int{0, 7, 12345} {
		if got, ok := parseSession(sessionID(id)); !ok || got != id {
			t.Errorf("parseSession(%q) = %d, %v", sessionID(id), got, ok)
		}
	}
	for _, s := range []string{"", "s", "x1", "s1a"} {
		if _, ok := parseSession(s); ok {
			t.Errorf("parseSession(%q) accepted", s)
		}
	}
}

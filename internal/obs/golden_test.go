package obs_test

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/eager"
	"repro/internal/multipath"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/synth"
)

// goldenSpanTree runs a seeded single-shard engine over four UD
// gestures — three completed, one left open so Close drains it — and
// renders every span the engine recorded, one line per record in
// recording order: sequence, ID, parent, root, name and each attribute
// as key:kind=value. Timestamps are left out; everything else is
// deterministic because one shard goroutine allocates every span ID.
func goldenSpanTree(t *testing.T) string {
	t.Helper()
	set, _ := synth.NewGenerator(synth.DefaultParams(1)).Set("train", synth.UDClasses(), 12)
	rec, _, err := eager.Train(set, eager.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	e, err := serve.New(rec, serve.Options{Shards: 1, QueueDepth: 4096, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	gen := synth.NewGenerator(synth.DefaultParams(2))
	classes := synth.UDClasses()
	for i := 0; i < 4; i++ {
		g := gen.Sample(classes[i%len(classes)]).G.Points
		id := fmt.Sprintf("g%d", i)
		for j, p := range g {
			kind := multipath.FingerMove
			if j == 0 {
				kind = multipath.FingerDown
			}
			if err := e.SubmitWait(serve.Event{Session: id, Kind: kind, X: p.X, Y: p.Y, T: p.T}); err != nil {
				t.Fatal(err)
			}
		}
		if i == 3 {
			break // left open: Close drains it
		}
		last := g[len(g)-1]
		if err := e.SubmitWait(serve.Event{Session: id, Kind: multipath.FingerUp, X: last.X, Y: last.Y, T: last.T + 0.01}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range reg.Spans("gesture.spans", 0).Records() {
		fmt.Fprintf(&b, "%d %d %d %d %s", r.Seq, r.ID, r.Parent, r.Root, r.Name)
		for _, a := range r.Attrs {
			var v string
			switch a.Kind {
			case obs.AttrString:
				v = strconv.Quote(a.Str)
			case obs.AttrInt:
				v = strconv.FormatInt(a.Int, 10)
			case obs.AttrFloat:
				v = strconv.FormatFloat(a.Float, 'g', -1, 64)
			}
			fmt.Fprintf(&b, " %s:%s=%s", a.Key, a.Kind, v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestGoldenSpanTree pins the exact span tree a seeded engine run
// records — names, parent/root links, attribute keys, kinds and values —
// against testdata/golden_spans.txt. The file was recorded before span
// storage became owner-held and ring records recycled, so a match proves
// that change left every recorded span as it was.
func TestGoldenSpanTree(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_spans.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := goldenSpanTree(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("span tree differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("span tree has %d lines, golden has %d", len(gl), len(wl))
}

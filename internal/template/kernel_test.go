package template

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/recognizer"
	"repro/internal/synth"
)

// The oracle is the plain full scan the pruned kernel replaces: every
// template scored over every point with geom.Point.Dist, no seed, no
// early abandon. The kernel must reproduce its results bit for bit.

func oracleDistance(a, b []geom.Point) float64 {
	n := min(len(a), len(b))
	if n == 0 {
		return math.Inf(1)
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += a[i].Dist(b[i])
	}
	return sum / float64(n)
}

// scoreResult is what the kernel's score must reproduce bit for bit;
// the runner-up's index is left out, since a tie may move it.
type scoreResult struct {
	class       string
	best, other float64
	bestTmpl    int
}

func (r scoreResult) equal(o scoreResult) bool {
	return r.class == o.class && r.bestTmpl == o.bestTmpl &&
		math.Float64bits(r.best) == math.Float64bits(o.best) && math.Float64bits(r.other) == math.Float64bits(o.other)
}

func oracleScore(templates []Template, probe []geom.Point) scoreResult {
	var bestClass string
	best, other := math.Inf(1), math.Inf(1)
	bestTmpl := -1
	for i := range templates {
		d := oracleDistance(probe, templates[i].Points)
		if d < best {
			if templates[i].Class != bestClass {
				other = best
			}
			bestClass, best, bestTmpl = templates[i].Class, d, i
		} else if d < other && templates[i].Class != bestClass {
			other = d
		}
	}
	return scoreResult{bestClass, best, other, bestTmpl}
}

func oracleNearestOtherClass(templates []Template, probe []geom.Point, exclude string) float64 {
	best := math.Inf(1)
	for i := range templates {
		if templates[i].Class == exclude {
			continue
		}
		if d := oracleDistance(probe, templates[i].Points); d < best {
			best = d
		}
	}
	return best
}

// checkScore compares the kernel's score under the given seeds with the
// oracle's result want, and returns the kernel's runner-up index.
func checkScore(t *testing.T, where string, templates []Template, probe []geom.Point, want scoreResult, seed1, seed2 int) (otherTmpl int) {
	t.Helper()
	var got scoreResult
	got.class, got.best, got.other, got.bestTmpl, otherTmpl = score(templates, probe, seed1, seed2)
	if !got.equal(want) {
		t.Fatalf("%s: seeds (%d,%d): kernel %+v, full scan %+v", where, seed1, seed2, got, want)
	}
	return otherTmpl
}

// checkWithin compares the kernel's veto query with the oracle's at
// each limit; near is the oracle's nearest other-class distance.
func checkWithin(t *testing.T, where string, templates []Template, probe []geom.Point, exclude string, near float64, limits ...float64) {
	t.Helper()
	for _, limit := range limits {
		if got, want := otherClassWithin(templates, probe, exclude, limit), near < limit; got != want {
			t.Fatalf("%s: otherClassWithin(%q, %v) = %v, full scan says %v", where, exclude, limit, got, want)
		}
	}
}

// kernelCase is one trained recognizer and the strokes driven through
// it: a synth set at one seed under one option set.
type kernelCase struct {
	name    string
	classes []synth.Class
	seed    int64
	opts    Options
}

func kernelCases() []kernelCase {
	rotation := DefaultOptions()
	rotation.RotationInvariant = true
	var cases []kernelCase
	for _, set := range []struct {
		name    string
		classes []synth.Class
	}{
		{"gdp", synth.GDPClasses()},
		{"ud", synth.UDClasses()},
		{"notes", synth.NoteClasses()},
		{"fig9", synth.EightDirectionClasses()},
	} {
		for _, seed := range []int64{3, 17, 41} {
			cases = append(cases, kernelCase{fmt.Sprintf("%s/seed%d", set.name, seed), set.classes, seed, DefaultOptions()})
		}
		cases = append(cases, kernelCase{set.name + "/rotation", set.classes, 7, rotation})
	}
	return cases
}

// decisionDigest folds a decision stream into one FNV-1a hash: index,
// kind, fired, class, margin bits and error text of every decision.
func decisionDigest(decs []recognizer.Decision) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range decs {
		binary.LittleEndian.PutUint64(buf[:], uint64(d.Index))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(d.Margin))
		h.Write(buf[:])
		fmt.Fprintf(h, "%s|%t|%s|%s;", d.Kind, d.Fired, d.Class, d.Err)
	}
	return h.Sum64()
}

// fullScanDigests are the decision-stream digests of kernelCases as
// the unpruned full-scan kernel produced them (recorded before the
// pruned kernel replaced it). Equal digests mean every tapped decision
// — fired, class, margin bits, index — is unchanged.
var fullScanDigests = map[string]uint64{
	"gdp/seed3":      0x47213185d60bf265,
	"gdp/seed17":     0x62323456840b33db,
	"gdp/seed41":     0xc4d67896097108c6,
	"gdp/rotation":   0xbd3d68550a254fb6,
	"ud/seed3":       0x8766bab300d4c889,
	"ud/seed17":      0x5879eaab10f4c712,
	"ud/seed41":      0x9cc4bc0884aebac0,
	"ud/rotation":    0x86a822f41f6d2f2b,
	"notes/seed3":    0x9848b9a72f19d3f5,
	"notes/seed17":   0xc10766371a4ebac1,
	"notes/seed41":   0xab071a6621ebd4b1,
	"notes/rotation": 0xb15e7e5090a21f2a,
	"fig9/seed3":     0x962ef088d12ad6c7,
	"fig9/seed17":    0xab72f1b4d7b9c945,
	"fig9/seed41":    0xdc9a3151f63ab597,
	"fig9/rotation":  0x2c76dcbca719d64e,
}

// TestKernelMatchesFullScan is the pruned kernel's differential test.
// It streams synth GDP, UD, note and fig9 strokes (several seeds, and
// the RotationInvariant option) through one pooled Session, as
// serve.Engine does, and at every scored point checks:
//
//   - the session's seed is the previous scored point's winner and
//     runner-up, and -1 at the start of every stroke;
//   - score under that seed equals the full scan bitwise (class, best,
//     other, winning index), and so does score under a swapped seed;
//   - the veto query equals the full scan at the commit limit and at
//     the exact nearest distance, where ties decide;
//   - the tapped decision carries the full scan's margin and the
//     point's index, and a commit carries the full scan's class.
//
// The whole decision stream must also hash to the full-scan digest.
func TestKernelMatchesFullScan(t *testing.T) {
	for _, kc := range kernelCases() {
		t.Run(kc.name, func(t *testing.T) {
			trainSet, testSet := sets(t, kc.classes, 4, 3, kc.seed)
			r, err := Train(trainSet, kc.opts)
			if err != nil {
				t.Fatal(err)
			}
			s, err := r.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			var decs []recognizer.Decision
			s.SetTap(decisionRecorder{&decs})
			scored := 0
			for k, e := range testSet.Examples {
				if k > 0 {
					s.Reset()
				}
				wantSeed := [2]int{-1, -1}
				for j, p := range e.Gesture.Points {
					where := fmt.Sprintf("stroke %d point %d", k, j)
					if got := [2]int{s.seedBest, s.seedOther}; got != wantSeed {
						t.Fatalf("%s: session seed %v, want %v", where, got, wantSeed)
					}
					willScore := !s.decided && r.Opts.CommitMargin > 0 && s.raw+1 >= r.Opts.MinPoints
					n := len(decs)
					if _, _, err := s.Add(p); err != nil {
						t.Fatal(err)
					}
					if !willScore {
						continue
					}
					scored++
					dec := decs[n]
					want := oracleScore(r.Templates, s.probe)
					otherTmpl := checkScore(t, where, r.Templates, s.probe, want, wantSeed[0], wantSeed[1])
					checkScore(t, where+" (swapped seed)", r.Templates, s.probe, want, otherTmpl, want.bestTmpl)
					if got := [2]int{s.seedBest, s.seedOther}; got != [2]int{want.bestTmpl, otherTmpl} {
						t.Fatalf("%s: session kept seed %v, score returned %v", where, got, [2]int{want.bestTmpl, otherTmpl})
					}
					wantSeed = [2]int{want.bestTmpl, otherTmpl}

					near := oracleNearestOtherClass(r.Incomplete, s.probe, want.class)
					checkWithin(t, where, r.Incomplete, s.probe, want.class, near, want.best+r.Opts.CommitMargin, near, math.Nextafter(near, math.Inf(1)))
					wantMargin := 0.0
					if !math.IsInf(want.other, 1) {
						wantMargin = want.other - want.best
					}
					if math.Float64bits(dec.Margin) != math.Float64bits(wantMargin) || dec.Index != s.raw {
						t.Fatalf("%s: tapped decision %+v, full scan margin %v at index %d", where, dec, wantMargin, s.raw)
					}
					if dec.Fired && dec.Class != want.class {
						t.Fatalf("%s: committed %q, full scan's nearest class is %q", where, dec.Class, want.class)
					}
				}
				class, err := s.End()
				if err != nil {
					t.Fatal(err)
				}
				if s.decidedAt == 0 {
					if want := oracleScore(r.Templates, s.probe); class != want.class {
						t.Fatalf("stroke %d: End class %q, full scan %q", k, class, want.class)
					}
				}
			}
			if scored == 0 {
				t.Fatal("no point was scored; the case exercises nothing")
			}
			if got, want := decisionDigest(decs), fullScanDigests[kc.name]; got != want {
				t.Errorf("decision digest %#x, full scan %#x", got, want)
			}
		})
	}
}

// TestKernelSeedBoundTies pins the strict inequality of the seed
// bound: a template exactly as far as the bound U can still be the
// winner, when it ties every seed and precedes them. Three identical
// strokes of three classes tie at one distance, so the first index must
// win under every seed pair; pruning at d ≥ U instead of d > U would
// hand the win to a seed. The veto query's limit is strict the same
// way.
func TestKernelSeedBoundTies(t *testing.T) {
	stroke := make([]geom.Point, 64)
	probe := make([]geom.Point, 64)
	for i := range stroke {
		f := float64(i) / 63
		stroke[i] = geom.Pt(f, f*f)
		probe[i] = geom.Pt(f, 0.3*math.Sin(7*f))
	}
	templates := []Template{{Class: "a", Points: stroke}, {Class: "b", Points: stroke}, {Class: "c", Points: stroke}}
	want := oracleScore(templates, probe)
	for s1 := -1; s1 < len(templates); s1++ {
		for s2 := -1; s2 < len(templates); s2++ {
			checkScore(t, "ties", templates, probe, want, s1, s2)
		}
	}
	d := oracleDistance(probe, stroke)
	checkWithin(t, "ties", templates, probe, "a", d, d, math.Nextafter(d, math.Inf(1)), math.Nextafter(d, 0))
}

// floatBytes encodes coordinates in the little-endian layout
// FuzzTemplateKernel decodes.
func floatBytes(vals ...float64) []byte {
	b := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzTemplateKernel checks the pruned kernel against the full scan on
// arbitrary coordinates — 0, -0, ±Inf, NaN, subnormals and ±MaxFloat64
// included — and arbitrary seed indices. coords is a little-endian
// float64 stream, reused cyclically: the probe takes the first points,
// then each template the next; classes gives one template per byte
// (class from the low bits, a point dropped when the top bit is set,
// so lengths differ). Checks:
//
//   - score equals the oracle under the raw seeds and under the seeds
//     folded into the template range, which makes most pairs valid;
//   - otherClassWithin equals the oracle for every class excluded, at
//     the fuzzed limit and at the oracle's exact nearest distance;
//   - hypot equals math.Hypot bitwise on finite inputs and is
//     non-finite exactly when math.Hypot is, on every coordinate pair
//     and every probe-to-template difference the kernel forms.
func FuzzTemplateKernel(f *testing.F) {
	f.Add(floatBytes(0, 0, 1, 1, 2, 0.5, 3, 3, 0, 1, 1, 2), []byte{0, 1, 2, 1}, uint8(9), 1, 2, 0.5)
	f.Fuzz(func(t *testing.T, coords, classes []byte, n uint8, seed1, seed2 int, limit float64) {
		vals := make([]float64, len(coords)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(coords[8*i:]))
		}
		if len(vals) == 0 || len(classes) == 0 {
			return
		}
		classes = classes[:min(len(classes), 8)]
		m := int(n)%17 + 1 // points per stroke: across the abandon checks
		next := 0
		stroke := func(n int) []geom.Point {
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Pt(vals[next%len(vals)], vals[(next+1)%len(vals)])
				next += 2
			}
			return pts
		}
		probe := stroke(m)
		templates := make([]Template, len(classes))
		for j, c := range classes {
			templates[j] = Template{Class: string(rune('a' + c%3)), Points: stroke(m - int(c>>7))}
		}

		want := oracleScore(templates, probe)
		checkScore(t, "fuzz", templates, probe, want, seed1, seed2)
		fold := func(s int) int { return int(uint(s)%uint(len(templates)+1)) - 1 }
		checkScore(t, "fuzz (folded seeds)", templates, probe, want, fold(seed1), fold(seed2))
		for _, tm := range templates {
			near := oracleNearestOtherClass(templates, probe, tm.Class)
			checkWithin(t, "fuzz", templates, probe, tm.Class, near, limit, near, math.Nextafter(near, math.Inf(1)))
		}

		checkHypot := func(x, y float64) {
			got, want := hypot(x, y), math.Hypot(x, y)
			if isFinite(x) && isFinite(y) && math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("hypot(%v, %v) = %v, math.Hypot %v", x, y, got, want)
			}
			if isFinite(got) != isFinite(want) {
				t.Fatalf("hypot(%v, %v) = %v, math.Hypot %v: finiteness differs", x, y, got, want)
			}
		}
		for i := 0; i+1 < len(vals); i++ {
			checkHypot(vals[i], vals[i+1])
		}
		for _, tm := range templates {
			for i := range min(len(probe), len(tm.Points)) {
				checkHypot(probe[i].X-tm.Points[i].X, probe[i].Y-tm.Points[i].Y)
			}
		}
	})
}

func isFinite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// Command perfbench is the repository's benchmark. It boots the shipped
// serving stack in-process on loopback (serve.Engine behind the
// internal/ingest wire listener, configured as gserve -wire runs it),
// drives one workload of synthetic GDP gestures through two client
// connections, checks every served Result against a direct replay of the
// gesture through the served backend, and prints the metrics that
// BENCHMARK.json declares.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the workload
// twice, untraced and then traced, and reports the per-layer metrics:
// live-path times from the harness's own records, layer costs from
// replaying the run's inputs through each layer's public functions, and
// the traced-minus-untraced difference of the end-to-end figures. The
// traced run's spans go to .bench_build/traces/.
//
// The last line of standard output is the result object; the line before
// it holds the run's metadata (input shape, sample counts, failure
// tallies, the repository's non-test Go line count). A run whose outputs
// fail the check, or that cannot run, exits nonzero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// setupRounds is how many times the untraced pass boots the stack; setup_s
// is the median, and the last stack booted carries the traffic.
const setupRounds = 15

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flags.Int64("seed", 1, "traffic seed")
	seconds := flags.Float64("seconds", 10, "length of the measured window")
	trace := flags.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 || flags.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0 and --trace 0 or 1")
		return 2
	}
	decl, err := loadDeclaration("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	res, err := measure(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	want := decl.EndToEnd
	if *trace == 1 {
		want = decl.PerLayer
	}
	out := map[string]any{}
	for _, d := range want {
		v, ok := res.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s not measured\n", d.Name)
			return 1
		}
		out[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	meta, err := json.Marshal(map[string]any{"meta": res.meta})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", meta, line)
	if !res.correct {
		fmt.Fprintf(stderr, "perfbench: %s: incorrect: %s\n", w.name, strings.Join(res.problems, "; "))
		return 1
	}
	return 0
}

// declMetric is one metric as BENCHMARK.json declares it.
type declMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// declaration is the part of BENCHMARK.json the program reads.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

// loadDeclaration reads BENCHMARK.json and checks it against the
// program: the same workloads, and every metric one the program measures
// in the unit it measures it in.
func loadDeclaration(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s declares %d workloads, the program has %d", path, len(d.Workloads), len(workloads))
	}
	for _, dw := range d.Workloads {
		if _, err := lookupWorkload(dw.Name); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	for _, list := range [][]declMetric{d.EndToEnd, d.PerLayer} {
		for _, m := range list {
			if u, ok := metricUnits[m.Name]; !ok || u != m.Unit {
				return nil, fmt.Errorf("%s: metric %s in unit %q is not one the program measures", path, m.Name, m.Unit)
			}
		}
	}
	return &d, nil
}

// runResult is one invocation's outcome.
type runResult struct {
	correct   bool
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
	meta      map[string]any
}

// measure runs the workload: untraced for the end-to-end metrics, and
// when traced also a traced pass for the per-layer ones.
func measure(w workload, seed int64, seconds float64, traced bool) (*runResult, error) {
	t := time.Now()
	in, err := buildInputs(w, seed, seconds)
	if err != nil {
		return nil, fmt.Errorf("build inputs: %w", err)
	}
	buildS := time.Since(t).Seconds()

	p, err := runPass(w, in, seconds, false, setupRounds)
	if err != nil {
		return nil, err
	}
	e := p.eval
	e.m["setup_s"] = median(p.setups)
	res := &runResult{
		correct:   len(e.problems) == 0,
		attempted: e.gestures,
		failed:    e.failed,
		problems:  e.problems,
		metrics:   e.m,
		meta:      metadata(w, seed, seconds, traced, in, e),
	}
	res.meta["input_build_s"] = buildS
	res.meta["setup_runs_s"] = p.setups
	if n, err := goLines("."); err == nil {
		res.meta["go_lines"] = n
	}
	if !traced {
		return res, nil
	}

	tp, err := runPass(w, in, seconds, true, 1)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	te := tp.eval
	lm, err := layerMetrics(tp, e)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, seed))
	if err := tp.writeSpans(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.metrics = lm
	res.correct = res.correct && len(te.problems) == 0
	res.attempted += te.gestures
	res.failed += te.failed
	res.problems = append(res.problems, te.problems...)
	res.meta["traced"] = metadata(w, seed, seconds, traced, in, te)
	res.meta["trace_file"] = path
	return res, nil
}

// runPass drives the workload through a pass and returns it checked and
// evaluated.
func runPass(w workload, in []*connInput, seconds float64, traced bool, rounds int) (*pass, error) {
	p := newPass(w, in, seconds, traced)
	if err := p.run(rounds, p.onResult); err != nil {
		return nil, err
	}
	return p, nil
}

// run boots the stack rounds times with onResult as its result hook
// (timing each boot; only the last stack is kept), drives the workload
// through it, and checks and evaluates the pass.
func (p *pass) run(rounds int, onResult func(serve.Result)) error {
	for i := 0; i < rounds; i++ {
		t := time.Now()
		s, err := boot(p.w, onResult)
		if err != nil {
			return fmt.Errorf("boot: %w", err)
		}
		p.setups = append(p.setups, time.Since(t).Seconds())
		if i < rounds-1 {
			s.close()
		} else {
			p.st = s
		}
	}
	// Start the window from a collected heap, so garbage from input
	// building and the discarded boots is not charged to it.
	runtime.GC()
	if err := p.drive(p.st); err != nil {
		return err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	p.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	var err error
	if p.cc, err = p.check(p.st.eng.Backend()); err != nil {
		return err
	}
	p.eval = p.evaluate(p.cc)
	return nil
}

// median returns the median of xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metadata describes a pass's inputs and what checking it found.
func metadata(w workload, seed int64, seconds float64, traced bool, in []*connInput, e *evaluation) map[string]any {
	failures := map[string]int{}
	for v, n := range e.verdicts {
		failures[verdictNames[v]] = n
	}
	var frames, events, bytes int
	for _, c := range in {
		frames += c.frames()
		events += c.cycleEventCount()
		bytes += len(c.buf)
	}
	return map[string]any{
		"workload":           w.name,
		"seed":               seed,
		"seconds":            seconds,
		"window_s":           e.windowSec,
		"host_steal_share":   e.stealShare,
		"trace":              traced,
		"gestures":           e.gestures,
		"events":             e.events,
		"frames":             e.frames,
		"events_per_frame":   ratio(float64(e.events), float64(e.frames)),
		"points_per_gesture": ratio(float64(e.points), float64(e.gestures)),
		"ref_fired_share":    ratio(float64(e.refFired), float64(e.refDone)),
		"nack_ratio":         e.m["loadgen.nack_ratio"],
		"gesture_fail_ratio": e.m["loadgen.gesture_fail_ratio"],
		"verdicts":           failures,
		"e2e":                e2eFigures(e),
		"misfiled_results":   e.misfiled,
		"samples":            e.samples,
		"input_frames":       frames,
		"input_events":       events,
		"input_bytes":        bytes,
		"problems":           e.problems,
	}
}

// e2eFigures picks the pass's wall-time figures, which the untraced run
// reports here and the traced run as per-layer metrics.
func e2eFigures(e *evaluation) map[string]float64 {
	out := map[string]float64{}
	for name, v := range e.m {
		if strings.HasPrefix(name, "e2e.") {
			out[name] = v
		}
	}
	return out
}

// goLines counts the lines of the non-test Go files under root, leaving
// out this benchmark and hidden directories: the program's code size.
func goLines(root string) (int, error) {
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n += strings.Count(string(b), "\n")
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("count Go lines: %w", err)
	}
	return n, nil
}

// Command gserve is the observability demo server: it trains a GDP
// recognizer with full instrumentation, serves it through an
// instrumented serve.Engine, and exposes the internal/obs registry over
// HTTP. It exists so the metrics/tracing contract in OBSERVABILITY.md
// can be watched live rather than only snapshotted in tests.
//
// Endpoints:
//
//	GET  /metrics       obs snapshot as indented JSON (obs.Handler)
//	GET  /metrics.txt   human-readable report (obs.TextHandler)
//	GET  /metrics.prom  Prometheus text exposition 0.0.4 (obs.PromHandler)
//	GET  /slo           SLO burn-rate evaluation as JSON (slo.Handler) —
//	                    multi-window burn rates and ok/warn/page states
//	                    for the default objectives
//	GET  /healthz       liveness: "ok", or "ok brownout" while the
//	                    admission controller is shedding (503 once the
//	                    engine is closed)
//	POST /swap          retrain and hot-swap the model (serve.Engine.Swap
//	                    — zero downtime). Optional JSON body {"seed": N}
//	                    picks the retrain seed; an empty body derives one.
//	                    Swaps are serialized: a swap arriving while
//	                    another retrain is running gets 409 Conflict.
//	GET  /debug/trace   per-gesture span traces in Chrome Trace Event
//	                    Format — load in Perfetto (ui.perfetto.dev)
//	GET  /debug/flight  flight-recorder dump: captured gesture bundles as
//	                    JSON, replayable with cmd/greplay
//	     /debug/pprof/  the standard net/http/pprof profiles
//
// Usage:
//
//	gserve [-addr :8089] [-seed 1] [-shards 0] [-traffic 24]
//	       [-backend eager] [-flight-trigger always] [-flight-cap 256]
//	       [-idle-timeout 0] [-admit-target 0] [-wire addr]
//	       [-wire-idle-timeout 2m] [-wire-max-conns 0]
//
// -backend selects the recognizer backend the engine serves — "eager"
// (Rubine statistical, the default) or "template" (streaming $1-style
// matcher); see BACKENDS.md for the contract and the trade-offs. /swap
// retrains whichever backend is selected.
//
// -wire addr additionally hosts the binary wire-protocol ingest
// listener (internal/ingest) on addr, sharing the engine and registry
// with the HTTP side — point cmd/gload at it. The listener is hardened:
// -wire-idle-timeout closes connections that go silent (the idle
// watchdog) and -wire-max-conns caps concurrent connections, refusing
// extras with a typed overloaded response (0 = unlimited).
//
// -admit-target arms the engine's adaptive admission controller
// (serve.AdmitOptions) with the given queue-wait p99 target; sustained
// excess puts the engine in brownout — overload NACKs with retry-after
// hints on the wire, "ok brownout" on /healthz, and an "admission" field
// in the /slo document. 0 leaves admission off.
//
// -traffic N replays N synthetic GDP interactions through the engine at
// startup so /metrics shows populated histograms immediately; -shards 0
// means GOMAXPROCS; -flight-trigger picks which gestures the flight
// recorder keeps (always, on-error, on-poison, latency-over);
// -idle-timeout arms the engine's idle-session reaper (0 keeps it off).
// Every run is deterministic for a fixed -seed (see internal/obsdemo).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eager"
	"repro/internal/flight"
	"repro/internal/ingest"
	"repro/internal/multipath"
	"repro/internal/obs"
	"repro/internal/obsdemo"
	"repro/internal/recognizer"
	"repro/internal/serve"
	"repro/internal/slo"
	"repro/internal/synth"
	"repro/internal/template"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes gserve with the given arguments. Extracted from main for
// tests; it blocks serving HTTP until the listener fails.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("gserve", flag.ContinueOnError)
	flags.SetOutput(stderr)
	addr := flags.String("addr", ":8089", "HTTP listen address")
	seed := flags.Int64("seed", 1, "training and traffic seed")
	shards := flags.Int("shards", 0, "engine shards (0 = GOMAXPROCS)")
	traffic := flags.Int("traffic", 24, "synthetic interactions to replay at startup")
	backend := flags.String("backend", "eager", "recognizer backend to serve: eager or template (see BACKENDS.md)")
	flightTrigger := flags.String("flight-trigger", "always",
		"flight recorder trigger: always, on-error, on-poison, latency-over")
	flightCap := flags.Int("flight-cap", flight.DefaultCapacity, "flight recorder ring capacity")
	flightLatency := flags.Duration("flight-latency", 10*time.Millisecond,
		"latency-over trigger threshold")
	idleTimeout := flags.Duration("idle-timeout", 0,
		"reap sessions idle for this long (0 disables the reaper)")
	admitTarget := flags.Duration("admit-target", 0,
		"queue-wait p99 the admission controller defends (0 disables admission)")
	wireAddr := flags.String("wire", "",
		"wire-protocol ingest listen address (empty disables the listener)")
	wireIdle := flags.Duration("wire-idle-timeout", 2*time.Minute,
		"close wire connections idle for this long (0 disables the watchdog)")
	wireMaxConns := flags.Int("wire-max-conns", 0,
		"max concurrent wire connections; extras get a typed overloaded response (0 = unlimited)")
	if err := flags.Parse(args); err != nil {
		return 2
	}

	trigger, err := flight.ParseTrigger(*flightTrigger)
	if err != nil {
		fmt.Fprintf(stderr, "gserve: %v\n", err)
		return 2
	}
	if *backend != "eager" && *backend != "template" {
		fmt.Fprintf(stderr, "gserve: unknown -backend %q (want eager or template)\n", *backend)
		return 2
	}
	srv, err := newServer(*seed, *shards, *idleTimeout, *admitTarget, flight.Options{
		Capacity:         *flightCap,
		Trigger:          trigger,
		LatencyThreshold: *flightLatency,
	}, *backend)
	if err != nil {
		fmt.Fprintf(stderr, "gserve: %v\n", err)
		return 1
	}
	if err := srv.playTraffic(*traffic); err != nil {
		fmt.Fprintf(stderr, "gserve: %v\n", err)
		return 1
	}
	if *wireAddr != "" {
		ln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			fmt.Fprintf(stderr, "gserve: %v\n", err)
			return 1
		}
		ws := ingest.Serve(ln, srv.engine, ingest.Options{
			Obs:          srv.reg,
			IdleTimeout:  *wireIdle,
			WriteTimeout: 10 * time.Second,
			MaxConns:     *wireMaxConns,
		})
		defer ws.Close()
		fmt.Fprintf(stdout, "gserve: wire ingest on %s\n", ws.Addr())
	}
	fmt.Fprintf(stdout, "gserve: serving on %s (seed %d, %d startup interactions)\n",
		*addr, *seed, *traffic)
	if err := http.ListenAndServe(*addr, srv.mux); err != nil {
		fmt.Fprintf(stderr, "gserve: %v\n", err)
		return 1
	}
	return 0
}

// server bundles the instrumented engine, its registry, the flight
// recorder, and the HTTP mux. Split from run so tests drive the mux with
// httptest.
type server struct {
	reg      *obs.Registry
	engine   *serve.Engine
	recorder *flight.Recorder
	mux      *http.ServeMux
	seed     int64
	backend  string       // "eager" or "template"; /swap retrains the matching kind
	swapMu   sync.Mutex   // serializes /swap retrains; TryLock -> 409
	swapN    atomic.Int64 // distinct seeds for successive /swap retrains
	nextID   atomic.Int64 // startup-traffic session IDs
	closed   atomic.Bool  // set by Close; /healthz turns 503
}

// newServer trains the initial model — the eager recognizer via
// obsdemo.New, or the streaming template matcher when backend is
// "template" — starts the engine with span tracing and a flight recorder
// attached against the same registry, and wires the mux. Either backend
// serves through the identical recognizer.Backend surface, so everything
// downstream (metrics, traces, flight bundles, swap) is backend-blind.
func newServer(seed int64, shards int, idleTimeout, admitTarget time.Duration, fopts flight.Options, backend string) (*server, error) {
	var (
		reg *obs.Registry
		rec recognizer.Backend
		err error
	)
	if backend == "template" {
		reg = obs.New()
		rec, err = trainTemplate(reg, seed)
	} else {
		backend = "eager"
		reg, rec, err = obsdemo.New(seed)
	}
	if err != nil {
		return nil, err
	}
	recorder := flight.NewRecorder(fopts)
	eopts := serve.Options{
		Backend:     rec,
		Shards:      shards,
		Obs:         reg,
		Flight:      recorder,
		IdleTimeout: idleTimeout,
	}
	if admitTarget > 0 {
		eopts.Admit = &serve.AdmitOptions{Target: admitTarget, Obs: reg}
	}
	engine, err := serve.New(nil, eopts)
	if err != nil {
		return nil, err
	}
	s := &server{reg: reg, engine: engine, recorder: recorder, mux: http.NewServeMux(), seed: seed, backend: backend}

	s.mux.Handle("/metrics", obs.Handler(reg))
	s.mux.Handle("/metrics.txt", obs.TextHandler(reg))
	s.mux.Handle("/metrics.prom", obs.PromHandler(reg))
	sloEngine := slo.New(reg, slo.DefaultObjectives(), nil)
	sloEngine.SetAdmission(func() string { return engine.AdmitState().String() })
	s.mux.Handle("/slo", slo.Handler(sloEngine))
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.closed.Load() {
			http.Error(w, "closed", http.StatusServiceUnavailable)
			return
		}
		// Still 200 in brownout — the process is alive and serving, just
		// shedding; load balancers should not drain a browning-out node
		// (that would dump its share onto the remaining ones).
		if s.engine.AdmitState() == serve.AdmitBrownout {
			fmt.Fprintln(w, "ok brownout")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/swap", s.handleSwap)
	s.mux.Handle("/debug/trace", obs.ChromeTraceHandler(reg))
	s.mux.Handle("/debug/flight", flight.Handler(recorder))
	// Our own mux, so the pprof handlers are mounted explicitly rather
	// than through the package's DefaultServeMux side effects.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
}

// Close shuts the engine down (draining in-flight sessions) and flips
// /healthz to 503 so a load balancer stops routing here. Idempotent.
func (s *server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	return s.engine.Close()
}

// swapRequest is the optional /swap JSON body.
type swapRequest struct {
	Seed int64 `json:"seed"`
}

// handleSwap retrains — on the seed from the optional JSON body, or on a
// fresh deterministic one — and hot-swaps the engine's model. In-flight
// sessions finish on the snapshot they started with. Retrains are
// serialized: a /swap arriving while another is still training is
// refused with 409 Conflict rather than queued, so concurrent callers
// can't stack unbounded training work; the engine-level Swap itself
// stays atomic either way. A closed engine (serve.ErrClosed territory)
// answers 503 — the shutting-down status load balancers understand —
// never a generic 500. Every early return happens either before the
// swap mutex is taken or under its defer, so no error path can leak the
// lock and wedge all future swaps into 409.
func (s *server) handleSwap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.closed.Load() || s.engine.Closed() {
		http.Error(w, serve.ErrClosed.Error(), http.StatusServiceUnavailable)
		return
	}
	newSeed := s.seed + 1000 + s.swapN.Add(1)
	if body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16)); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	} else if len(body) > 0 {
		var req swapRequest
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, fmt.Sprintf("bad /swap body: %v", err), http.StatusBadRequest)
			return
		}
		if req.Seed != 0 {
			newSeed = req.Seed
		}
	}
	if !s.swapMu.TryLock() {
		http.Error(w, "swap already in progress", http.StatusConflict)
		return
	}
	defer s.swapMu.Unlock()
	var rec recognizer.Backend
	if s.backend == "template" {
		var err error
		if rec, err = trainTemplate(s.reg, newSeed); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	} else {
		gen := synth.NewGenerator(synth.DefaultParams(newSeed))
		set, _ := gen.Set("gdp-retrain", synth.GDPClasses(), obsdemo.TrainExamples)
		opts := eager.DefaultOptions()
		opts.Obs = s.reg
		eagerRec, _, err := eager.Train(set, opts)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		rec = eagerRec
	}
	s.engine.Swap(rec)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(map[string]any{"swapped": true, "seed": newSeed})
}

// trainTemplate trains the streaming template backend on the standard
// GDP demo workload and instruments it against reg — the template-side
// mirror of obsdemo.New. Idempotent against one registry, so /swap
// retrains reuse the same template.* metric instruments.
func trainTemplate(reg *obs.Registry, seed int64) (*template.Recognizer, error) {
	gen := synth.NewGenerator(synth.DefaultParams(seed))
	set, _ := gen.Set("gdp-train", synth.GDPClasses(), obsdemo.TrainExamples)
	tmpl, err := template.Train(set, template.DefaultOptions())
	if err != nil {
		return nil, err
	}
	tmpl.Instrument(reg)
	return tmpl, nil
}

// playTraffic replays n synthetic single-finger GDP interactions through
// the engine so the registry has live data before the first scrape.
func (s *server) playTraffic(n int) error {
	gen := synth.NewGenerator(synth.DefaultParams(s.seed + 1))
	classes := synth.GDPClasses()
	for i := 0; i < n; i++ {
		sample := gen.Sample(classes[i%len(classes)])
		id := fmt.Sprintf("startup-%04d", s.nextID.Add(1))
		for j, p := range sample.G.Points {
			kind := multipath.FingerMove
			if j == 0 {
				kind = multipath.FingerDown
			}
			if err := s.engine.SubmitWait(serve.Event{Session: id, Kind: kind, X: p.X, Y: p.Y, T: p.T}); err != nil {
				return err
			}
		}
		last := sample.G.Points[sample.G.Len()-1]
		if err := s.engine.SubmitWait(serve.Event{Session: id, Kind: multipath.FingerUp, X: last.X, Y: last.Y, T: last.T + 0.01}); err != nil {
			return err
		}
	}
	return nil
}

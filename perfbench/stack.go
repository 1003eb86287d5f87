package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/eager"
	"repro/internal/flight"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/obsdemo"
	"repro/internal/recognizer"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/template"
)

// trainSeed is the model's training seed, gserve's default -seed. The
// model is part of the program, so it stays fixed while --seed varies
// the traffic.
const trainSeed = 1

// trainBackend trains the named backend on the GDP training set gserve
// uses, instrumenting it against reg when reg is set.
func trainBackend(name string, reg *obs.Registry, seed int64) (recognizer.Backend, error) {
	set, _ := synth.NewGenerator(synth.DefaultParams(seed)).Set("gdp-train", synth.GDPClasses(), obsdemo.TrainExamples)
	switch name {
	case "eager":
		opts := eager.DefaultOptions()
		opts.Obs = reg
		rec, _, err := eager.Train(set, opts)
		return rec, err
	case "template":
		rec, err := template.Train(set, template.DefaultOptions())
		if err != nil {
			return nil, err
		}
		if reg != nil {
			rec.Instrument(reg)
		}
		return rec, nil
	}
	return nil, fmt.Errorf("unknown backend %q", name)
}

// stack is one booted serving stack and the client connections into it.
type stack struct {
	eng   *serve.Engine
	srv   *ingest.Server
	reg   *obs.Registry    // nil when the workload runs without observability
	rec   *flight.Recorder // nil when the workload runs without observability
	conns []net.Conn
}

// boot trains the model, builds the engine and wire listener the way
// gserve -wire configures them for the workload, and dials the client
// connections. onResult receives every session's Result.
func boot(w workload, onResult func(serve.Result)) (*stack, error) {
	s := &stack{}
	opts := serve.Options{OnResult: onResult}
	if w.obs {
		s.reg = obs.New()
		s.rec = flight.NewRecorder(flight.Options{Trigger: flight.TriggerAlways})
		opts.Obs, opts.Flight = s.reg, s.rec
	}
	var err error
	if opts.Backend, err = trainBackend(w.backend, s.reg, trainSeed); err != nil {
		return nil, err
	}
	if s.eng, err = serve.New(nil, opts); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.srv = ingest.Serve(ln, s.eng, ingest.Options{
		Obs:          s.reg,
		IdleTimeout:  2 * time.Minute,
		WriteTimeout: 10 * time.Second,
	})
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", s.srv.Addr().String())
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	return s, nil
}

// close tears the stack down: client connections, listener, then the
// engine, which drains sessions still open.
func (s *stack) close() {
	for _, c := range s.conns {
		c.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.eng != nil {
		s.eng.Close()
	}
}

package main

import (
	"fmt"
	"time"
)

// workload is one traffic mix: which serving configuration it boots and
// how its traffic arrives. The values are frozen; BENCHMARK.json repeats
// each workload's offered rate or window in its "why".
type workload struct {
	name string
	// backend is the recognizer backend served: "eager" or "template".
	backend string
	// obs runs the engine and listener with an obs.Registry and a
	// flight.Recorder (trigger always), as gserve ships.
	obs bool
	// open selects an open loop: Poisson gesture arrivals, each event due
	// at its synthesized timestamp, and the events falling due within one
	// tick sent together as one frame, whatever the server is doing. The
	// closed loop keeps inFlight frames of 1024 events written and not yet
	// answered on each connection.
	open bool
	// gesturesPerSec is the open loop's arrival rate over all connections.
	gesturesPerSec float64
}

// conns is the number of client connections every workload drives: the
// two CPUs of the reference machine, fixed so the frames do not depend
// on the machine they are built on.
const conns = 2

// tick is the open loop's frame period.
const tick = 2 * time.Millisecond

// The closed loop's shape. inFlight frames per connection is the
// smallest window at which throughput levels off on both closed-loop
// workloads (see CHANGES.md for the sweep). sessionsPerSec is the nominal
// arrival rate per connection that cuts the input: with gestures lasting
// about half a second it makes each 1024-event frame interleave a few
// hundred live sessions.
const (
	inFlight       = 2
	sessionsPerSec = 600
)

// recordBudget is the memory the closed loop's per-frame and per-result
// records may take, which fixes how many cycles a connection can send. It
// allows about 1.7M events/s per connection in a 20 s window; a run that
// sends every cycle ends its window early and is measured over the
// shorter window, which its window_s shows.
const recordBudget = 32 << 20

// warmup is the traffic sent before the measured window opens, so pools,
// maps, socket buffers and the GC pacer are warm when timing starts.
const warmup = time.Second

// workloads are the benchmark's traffic mixes; see BENCHMARK.json for
// why each exists.
var workloads = []workload{
	{
		name:           "interactive-eager",
		backend:        "eager",
		obs:            true,
		open:           true,
		gesturesPerSec: 700,
	},
	{
		name:    "bulk-eager",
		backend: "eager",
	},
	{
		name:    "bulk-template",
		backend: "template",
		obs:     true,
	},
}

// lookupWorkload returns the workload with the given name.
func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

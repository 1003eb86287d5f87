// Package serve is the concurrent serving engine: it multiplexes many
// independent gesture interactions — each a multipath.Session wrapping a
// recognition stream — across a pool of worker goroutines, sharing one
// immutable recognizer snapshot. The recognizer is any
// recognizer.Backend (the eager statistical recognizer, the streaming
// template matcher — see BACKENDS.md), chosen at construction via New or
// Options.Backend and replaceable at runtime via Swap.
//
// Design (see DESIGN.md §7 and §11):
//
//   - Immutable snapshot sharing. The engine holds a recognizer.Backend
//     behind an atomic.Pointer (boxed in a snapshot struct, since an
//     interface value cannot be stored atomically). Classification never
//     mutates the backend (the documented Backend concurrency contract),
//     so any number of sessions on any number of goroutines read it
//     without locks. Swap publishes a freshly-trained backend atomically —
//     retrain-without-downtime: sessions started after the swap use the
//     new model, in-flight sessions finish on the snapshot they started
//     with, and no session ever observes a half-updated model.
//
//   - Sharding. Each session ID hashes (FNV-1a) to one shard; a shard is
//     one goroutine owning a bounded event queue and the state of every
//     session mapped to it. All events of one session are handled by one
//     goroutine in submission order, so the single-goroutine session
//     types are used unchanged, with no per-session locking.
//
//   - Backpressure. Nothing is dropped silently. Submit never blocks:
//     when a shard's queue is full it returns ErrQueueFull and counts
//     the rejection. SubmitWait instead waits for queue space, so a slow
//     shard stalls its producer. The admission controller (Options.Admit)
//     is the one overload signal: it refuses early with ErrOverloaded.
//
//   - Hostile input stops at the door. Submit validates every event —
//     non-finite coordinates, negative or regressing timestamps, empty
//     session IDs are rejected with ErrBadEvent before they can reach
//     feature extraction (see DESIGN.md §9, "Fault model").
//
//   - Failure is contained per session. A panic while dispatching an
//     event is recovered inside the shard loop: the session is finished
//     with OutcomePanicked and quarantined, the shard keeps serving its
//     other sessions. A poisoned recognition stream (non-finite input past
//     validation — i.e. internal corruption, simulated by
//     Options.Fault) degrades to full-classification of the finite
//     stroke prefix instead of rejecting (OutcomeDegraded). A session
//     whose producer vanishes mid-stroke is force-finished by the idle
//     reaper once Options.IdleTimeout passes with no events
//     (OutcomeReaped) — the serving-side analogue of internal/display's
//     motionless timeout.
//
//   - Clean shutdown. Close stops intake (ErrClosed), lets every shard
//     drain its queued events, force-finishes in-flight sessions via
//     (*multipath.Session).Finish — classifying whatever stroke prefix
//     was collected — and reports each as a Result before returning.
package serve

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flight"
	"repro/internal/mathx"
	"repro/internal/multipath"
	"repro/internal/obs"
	"repro/internal/recognizer"
	"repro/internal/wire"
)

// Errors returned by Submit.
var (
	// ErrQueueFull reports that the target shard's event queue is at
	// capacity. The event was NOT enqueued; the caller owns the retry
	// policy. This is deliberate backpressure, never silent dropping.
	ErrQueueFull = errors.New("serve: shard queue full")
	// ErrClosed reports a Submit after Close.
	ErrClosed = errors.New("serve: engine closed")
	// ErrBadEvent reports an event rejected by Submit-time validation:
	// non-finite coordinates, a non-finite or negative timestamp, a
	// timestamp regressing below the session's previous accepted event,
	// or an empty session ID. The event was not enqueued. Match with
	// errors.Is; the concrete error says which check failed.
	ErrBadEvent = errors.New("serve: bad event")
	// ErrOverloaded reports an event shed early by the admission
	// controller (Options.Admit): queue-wait p99 has exceeded its
	// target for a sustained interval and queueing more work would only
	// deepen the delay. The event was NOT enqueued. Unlike ErrQueueFull
	// this is not worth an immediate retry — callers should pause for
	// the controller's RetryAfterMS hint (the wire layer maps this to
	// NackOverload plus the ACK's retry-after field).
	ErrOverloaded = errors.New("serve: overloaded, admission controller shed event")
)

// DefaultQueueDepth is the per-shard event queue capacity used when
// Options.QueueDepth is 0.
const DefaultQueueDepth = 256

// Event is one finger sample addressed to one interaction session.
type Event struct {
	Session string
	Finger  multipath.FingerID
	Kind    multipath.EventKind
	X, Y, T float64
	// SentNS is the client-send wall-clock time in Unix nanoseconds, as
	// stamped in the wire frame header that carried the event (0 for
	// locally submitted events or pre-v2 peers). When set, the engine
	// attributes end-to-end wire latency (wire.e2e_ns) at dispatch time.
	SentNS int64
}

// Outcome is the typed reason a session finished — every Result carries
// exactly one.
type Outcome int

// Session outcomes.
const (
	// OutcomeCompleted is the healthy path: the interaction ran to its
	// natural end (all fingers lifted).
	OutcomeCompleted Outcome = iota
	// OutcomeDegraded means the recognition stream poisoned mid-stroke
	// and the class came from the backend's degraded fallback
	// (classifying the finite prefix). The interaction still ended
	// naturally.
	OutcomeDegraded
	// OutcomeDrained means Close force-finished the session, classifying
	// the stroke prefix collected so far.
	OutcomeDrained
	// OutcomeReaped means the idle reaper force-finished the session
	// after Options.IdleTimeout without events.
	OutcomeReaped
	// OutcomePanicked means dispatching an event for this session
	// panicked; the panic was recovered, the session finished with class
	// "" and was quarantined (later events for its ID are dropped).
	OutcomePanicked
)

// String names the outcome ("completed", "degraded", "drained",
// "reaped", "panicked"); unknown values render as "outcome(N)".
func (o Outcome) String() string {
	switch o {
	case OutcomeCompleted:
		return "completed"
	case OutcomeDegraded:
		return "degraded"
	case OutcomeDrained:
		return "drained"
	case OutcomeReaped:
		return "reaped"
	case OutcomePanicked:
		return "panicked"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Result is the outcome of one completed interaction: the recognized
// class ("" marks a rejected/unclassifiable stroke, matching the session
// layer's convention) and the typed reason the session ended.
type Result struct {
	Session string
	Class   string
	Outcome Outcome
}

// Injector is the engine-side fault-injection hook (fault.Schedule and
// fault.Script implement it). When Options.Fault is set, the engine
// consults Dispatch once per dispatched event — from the shard
// goroutine, with the session's 0-based dispatch index — and uses the
// possibly-corrupted coordinates; panicNow=true makes the engine panic
// in place of dispatching, exercising panic isolation. Implementations
// must be safe for concurrent use across shards. Nil disables injection
// at the cost of one nil check per event.
type Injector interface {
	Dispatch(session string, index int, x, y float64) (fx, fy float64, panicNow bool)
}

// Options configures an Engine.
type Options struct {
	// Shards is the number of worker goroutines (and queues). 0 means
	// runtime.GOMAXPROCS.
	Shards int
	// QueueDepth is the per-shard event queue capacity. 0 means
	// DefaultQueueDepth. Submit returns ErrQueueFull beyond it.
	QueueDepth int
	// OnResult, when set, is called once per completed session, from the
	// shard goroutine that owned it. Calls may arrive concurrently from
	// different shards; the callback must be safe for that. A slow
	// callback stalls its shard — that is the backpressure propagating,
	// by design.
	OnResult func(Result)
	// IdleTimeout, when positive, arms the idle reaper: a session that
	// receives no events for at least this long (by Clock) is
	// force-finished with OutcomeReaped — the defense against producers
	// that vanish mid-stroke. 0 disables deadlines entirely.
	IdleTimeout time.Duration
	// ReapInterval is the background reaper's sweep period: 0 means
	// IdleTimeout/4 (floored at 1ms), negative disables the background
	// sweeper — reaping then only happens via explicit Reap calls, which
	// is what deterministic virtual-clock tests want. Ignored when
	// IdleTimeout is 0.
	ReapInterval time.Duration
	// Clock is the deadline time source; nil means the wall clock. Tests
	// inject obs.ManualClock.
	Clock obs.Clock `json:"-"`
	// Fault, when set, is consulted once per dispatched event and may
	// corrupt coordinates or force a panic — the chaos hook (see
	// internal/fault). Nil (production) costs one nil check per event.
	Fault Injector `json:"-"`
	// Obs, when set, attaches the engine's metrics and trace ring to the
	// registry (see OBSERVABILITY.md for the serve.* contract), and opens
	// one causally-nested span trace per gesture in the registry's
	// "gesture.spans" buffer (root "gesture" span with "queue_wait" /
	// "dispatch" children per event, plus the eager layer's "decide"
	// spans underneath). Nil leaves the engine uninstrumented: every
	// metric and span call degrades to a sub-5ns no-op.
	Obs *obs.Registry `json:"-"`
	// Flight, when set, attaches a flight recorder: the engine captures
	// each gesture's raw points and per-point decisions (via
	// recognizer.Tap) and offers the finished bundle to the recorder,
	// whose trigger policy decides what to keep. Works with or without
	// Obs. Nil disables capture entirely.
	Flight *flight.Recorder `json:"-"`
	// Backend, when set, selects the recognizer backend the engine
	// serves, overriding New's positional argument (which may then be
	// nil). Exactly one of the two must be non-nil; New refuses an
	// engine with no backend at all. This is the options-driven
	// selection hook front ends like gserve's -backend flag use.
	Backend recognizer.Backend `json:"-"`
	// FlightDump, when set, receives the flight recorder's JSON dump once,
	// during Close — the post-mortem artifact for a crashed or misbehaving
	// run. Requires Flight (with a nil recorder an empty dump is written).
	FlightDump io.Writer `json:"-"`
	// Admit, when set, arms the adaptive admission controller: Submit
	// sheds a deterministic fraction of traffic with ErrOverloaded when
	// queue-wait p99 stays over Admit.Target (see Admission). The
	// controller's Clock and Obs default to the engine's own when left
	// nil. Nil disables admission control at the cost of one nil check
	// per submit.
	Admit *AdmitOptions `json:"-"`
	// Admission, when set, overrides Admit with a pre-built controller
	// — the hook tests and front ends use to share or pre-drive one.
	Admission *Admission `json:"-"`
}

// engineMetrics holds the engine's obs handles; see OBSERVABILITY.md
// for the contract. The counters are never nil — they back Stats even
// when observability is off. The other instruments are nil (no-ops)
// without a registry.
type engineMetrics struct {
	submitted     *obs.Counter    // serve.events.submitted
	rejected      *obs.Counter    // serve.events.rejected
	bad           *obs.Counter    // serve.events.bad (failed validation)
	quarantined   *obs.Counter    // serve.events.quarantined (dropped, post-panic session)
	opened        *obs.Counter    // serve.sessions.opened
	completed     *obs.Counter    // serve.sessions.completed
	drained       *obs.Counter    // serve.sessions.drained (subset of completed)
	reaped        *obs.Counter    // serve.sessions.reaped (subset of completed)
	panicked      *obs.Counter    // serve.sessions.panicked (subset of completed)
	degraded      *obs.Counter    // serve.sessions.degraded (subset of completed)
	swaps         *obs.Counter    // serve.swaps
	swapsRejected *obs.Counter    // serve.swaps_rejected (nil recognizer refused)
	queueDepth    *obs.Histogram  // serve.queue.depth, sampled per accepted Submit
	queueWaitNS   *obs.Histogram  // serve.queue.wait_ns, enqueue -> dequeue
	sessionNS     *obs.Histogram  // serve.session.latency_ns, first submit -> completion
	e2e           *obs.Histogram  // wire.e2e_ns, client send stamp -> dispatch decision
	trace         *obs.Ring       // serve.trace lifecycle events
	spans         *obs.SpanBuffer // gesture.spans, one trace per gesture

	// Windowed siblings of the cumulative instruments above, feeding
	// rolling-rate displays (gtop) and the SLO burn-rate engine.
	submittedWin *obs.WindowedCounter   // window.serve.events.submitted
	sessionWinNS *obs.WindowedHistogram // window.serve.session.latency_ns
	e2eWin       *obs.WindowedHistogram // window.wire.e2e_ns
}

// newEngineMetrics registers the engine's instruments in reg. With a nil
// reg every accessor returns nil, so only the counters need a stand-in:
// a private obs.Counter each.
func newEngineMetrics(reg *obs.Registry) engineMetrics {
	counter := func(name string) *obs.Counter {
		if c := reg.Counter(name); c != nil {
			return c
		}
		return new(obs.Counter)
	}
	return engineMetrics{
		submitted:     counter("serve.events.submitted"),
		rejected:      counter("serve.events.rejected"),
		bad:           counter("serve.events.bad"),
		quarantined:   counter("serve.events.quarantined"),
		opened:        counter("serve.sessions.opened"),
		completed:     counter("serve.sessions.completed"),
		drained:       counter("serve.sessions.drained"),
		reaped:        counter("serve.sessions.reaped"),
		panicked:      counter("serve.sessions.panicked"),
		degraded:      counter("serve.sessions.degraded"),
		swaps:         counter("serve.swaps"),
		swapsRejected: counter("serve.swaps_rejected"),
		queueDepth:    reg.Histogram("serve.queue.depth", obs.DepthBuckets()),
		queueWaitNS:   reg.Histogram("serve.queue.wait_ns", obs.LatencyBuckets()),
		sessionNS:     reg.Histogram("serve.session.latency_ns", obs.LatencyBuckets()),
		e2e:           reg.Histogram("wire.e2e_ns", obs.LatencyBuckets()),
		trace:         reg.Ring("serve.trace", 0),
		spans:         reg.Spans("gesture.spans", 0),
		submittedWin:  reg.WindowedCounter("window.serve.events.submitted", 0, 0),
		sessionWinNS:  reg.WindowedHistogram("window.serve.session.latency_ns", obs.LatencyBuckets(), 0, 0),
		e2eWin:        reg.WindowedHistogram("window.wire.e2e_ns", obs.LatencyBuckets(), 0, 0),
	}
}

// Stats is a snapshot of the engine's serve.* counters. Engines that
// share one obs.Registry share these counters, so each one's Stats then
// reports the sum over all of them.
type Stats struct {
	Submitted int64 // events accepted into a queue
	Rejected  int64 // events terminally refused: Submit's ErrQueueFull, or ErrOverloaded from either entry point
	Bad       int64 // events refused with ErrBadEvent
	Completed int64 // sessions finished (any outcome)
	Active    int64 // sessions currently in flight
	Reaped    int64 // sessions force-finished by the idle reaper
	Panicked  int64 // sessions finished by a recovered dispatch panic
	Degraded  int64 // sessions classified via the degraded fallback
}

// Engine is the concurrent session server. Create with New; all methods
// are safe for concurrent use.
type Engine struct {
	rec    atomic.Pointer[snapshot]
	opts   Options
	shards []*shard
	wg     sync.WaitGroup

	mu     sync.RWMutex // guards closed vs. concurrent Submit/Close
	closed bool

	clock     obs.Clock
	deadlines bool          // IdleTimeout > 0
	stop      chan struct{} // closed at Close to stop the background reaper
	reaperOn  bool
	reapWG    sync.WaitGroup

	m engineMetrics
	// stamp records whether Submit must read the clock: true when any of
	// observability (queue-wait/latency histograms, span timestamps), a
	// flight recorder (latency trigger), or the admission controller
	// (queue-wait feed) is attached. False keeps the disabled path free
	// of clock reads.
	stamp bool
	// admission is the adaptive overload controller (nil = disabled).
	admission *Admission
	// startNS is the engine's construction time in Unix nanoseconds —
	// the lower clamp for e2e latency attribution (a wire stamp older
	// than the process cannot contribute more than process uptime).
	startNS int64
}

// control is an in-band shard command: a Flush barrier (done only) or a
// reap sweep. Routed through the event queue so it is serialized with
// event handling by the shard goroutine, needing no extra locks.
type control struct {
	reap   bool
	reaped *atomic.Int64 // when non-nil, accumulates the sweep's count
	done   chan struct{} // when non-nil, closed once the command ran
}

// queued is one enqueued event plus its enqueue timestamp (the zero Time
// when the engine is uninstrumented), so the shard can observe queue wait
// on dequeue. A non-nil ctl makes it a control message instead; control
// messages bypass the submitted counter and the queue-wait histogram, so
// queue accounting still balances (wait_ns count == events submitted).
type queued struct {
	ev  Event
	at  time.Time
	ctl *control
}

// snapshot boxes the engine's current recognizer.Backend so it can live
// behind an atomic.Pointer: an interface value is two words and cannot
// be stored atomically, a *snapshot can. Each Swap allocates a fresh
// snapshot, so the pointer's identity also identifies the publish
// generation — the session pool's reuse key.
type snapshot struct {
	backend recognizer.Backend
}

// liveSession is one in-flight session plus the enqueue time of the
// event that opened it, so completion can observe end-to-end latency.
// root is the gesture's root span (nil when uninstrumented); capture is
// its flight-recorder capture (nil when no recorder is attached). snap
// is the backend snapshot sess was built over — the pool's reuse key: a
// pooled liveSession is only revived for a gesture starting on the same
// snapshot (see openSession).
type liveSession struct {
	snap    *snapshot
	sess    *multipath.Session
	start   time.Time
	root    *obs.Span
	capture *flight.Capture
	// spans is the storage root and the per-event queue_wait/dispatch
	// children are opened in; it survives pool revival so a warm session
	// traces without allocating.
	spans sessionSpans
	// events is the 0-based dispatch index handed to the fault hook;
	// lastActive is the Clock reading of the last dispatched event (only
	// maintained when deadlines are armed).
	events     int
	lastActive time.Time
}

// sessionSpans is a liveSession's owned span storage (see
// obs.SpanBuffer.StartIn). Gesture roots alternate between two slots: a
// revived session's recognition stream still holds the previous
// gesture's root when the next gesture restarts it, and records its
// "reset" event under that root, so the slot must outlive one more
// gesture.
type sessionSpans struct {
	roots               [2]obs.Span
	opened              int // gestures opened in this storage; picks the root slot
	queueWait, dispatch obs.Span
}

// nextRoot returns the storage for the next gesture's root span.
func (sp *sessionSpans) nextRoot() *obs.Span {
	sp.opened++
	return &sp.roots[sp.opened%2]
}

// shard is one worker goroutine's world: its queue and the sessions it
// exclusively owns. Only that goroutine touches `sessions` and
// `quarantined`; `lastT` is shared with Submit under vmu.
type shard struct {
	ch       chan queued
	sessions map[string]*liveSession
	// quarantined tombstones sessions finished by a recovered panic, so
	// late events (or a duplicate FingerDown) cannot resurrect the ID
	// and break the one-Result-per-session invariant. Bounded by the
	// number of panicked sessions.
	quarantined map[string]bool
	// free pools finished liveSessions for reuse (LIFO), keeping the
	// steady-state dispatch path allocation-free: a completed gesture's
	// session is Reset and parked here, and the next gesture on the same
	// recognizer snapshot revives it instead of allocating. Bounded by
	// the shard's peak concurrent session count. Only the shard goroutine
	// touches it; panicked sessions are never pooled.
	free []*liveSession
	// vmu guards lastT, the per-session high-water timestamp Submit uses
	// to reject regressing events. Entries are cleared when the session
	// finishes (and for stray events), bounding the map by the live
	// session count.
	vmu   sync.Mutex
	lastT map[string]float64
}

func (sh *shard) clearLastT(id string) {
	sh.vmu.Lock()
	delete(sh.lastT, id)
	sh.vmu.Unlock()
}

// New builds and starts an engine serving the given recognizer backend
// (*eager.Recognizer and *template.Recognizer both implement it — see
// BACKENDS.md). Options.Backend, when set, overrides the positional
// argument; one of the two must be non-nil.
func New(backend recognizer.Backend, opts Options) (*Engine, error) {
	if opts.Backend != nil {
		backend = opts.Backend
	}
	if backend == nil {
		return nil, errors.New("serve: nil recognizer backend")
	}
	if opts.Shards < 0 {
		return nil, fmt.Errorf("serve: Shards must be >= 0, got %d", opts.Shards)
	}
	if opts.QueueDepth < 0 {
		return nil, fmt.Errorf("serve: QueueDepth must be >= 0, got %d", opts.QueueDepth)
	}
	if opts.IdleTimeout < 0 {
		return nil, fmt.Errorf("serve: IdleTimeout must be >= 0, got %v", opts.IdleTimeout)
	}
	if opts.Shards == 0 {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth == 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	e := &Engine{opts: opts, m: newEngineMetrics(opts.Obs), startNS: time.Now().UnixNano()}
	e.clock = opts.Clock
	if e.clock == nil {
		e.clock = obs.WallClock{}
	}
	e.admission = opts.Admission
	if e.admission == nil && opts.Admit != nil {
		ao := *opts.Admit
		if ao.Clock == nil {
			ao.Clock = opts.Clock
		}
		if ao.Obs == nil {
			ao.Obs = opts.Obs
		}
		var err error
		if e.admission, err = NewAdmission(ao); err != nil {
			return nil, err
		}
	}
	e.stamp = opts.Obs != nil || opts.Flight != nil || e.admission != nil
	if opts.Clock != nil && opts.Obs != nil {
		// Windowed instruments rotate on the registry clock; align it
		// with the engine's injected clock so tests (and replay) see
		// consistent window epochs.
		opts.Obs.SetClock(opts.Clock)
	}
	e.deadlines = opts.IdleTimeout > 0
	e.stop = make(chan struct{})
	e.rec.Store(&snapshot{backend: backend})
	for i := 0; i < opts.Shards; i++ {
		sh := &shard{
			ch:          make(chan queued, opts.QueueDepth),
			sessions:    make(map[string]*liveSession),
			quarantined: make(map[string]bool),
			lastT:       make(map[string]float64),
		}
		e.shards = append(e.shards, sh)
		e.wg.Add(1)
		go e.run(sh)
	}
	if e.deadlines && opts.ReapInterval >= 0 {
		interval := opts.ReapInterval
		if interval == 0 {
			interval = opts.IdleTimeout / 4
		}
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		e.reaperOn = true
		e.reapWG.Add(1)
		go e.reapLoop(interval)
	}
	return e, nil
}

// Backend returns the current recognizer backend snapshot.
func (e *Engine) Backend() recognizer.Backend { return e.rec.Load().backend }

// Admission returns the engine's admission controller, or nil when
// admission control is disabled. Front ends use it for retry-after
// hints (wire NACKs) and brownout state (/healthz, /slo).
func (e *Engine) Admission() *Admission { return e.admission }

// AdmitState returns the admission controller's current state —
// AdmitHealthy when admission control is disabled.
func (e *Engine) AdmitState() AdmitState { return e.admission.State() }

// Swap atomically publishes a new recognizer backend and returns the
// previous one — retraining without downtime. Sessions already in
// flight keep the snapshot they started with; sessions created after
// Swap use the new backend. A nil backend is refused (nil is returned
// and the current snapshot is kept), so a failed retrain can never
// blank the serving model. Backends of different kinds may be swapped
// for each other freely: the kind, like the model, is a per-gesture
// snapshot property.
func (e *Engine) Swap(backend recognizer.Backend) recognizer.Backend {
	if backend == nil {
		e.m.swapsRejected.Inc()
		e.m.trace.Emit("swap_rejected", "nil recognizer")
		return nil
	}
	e.m.swaps.Inc()
	e.m.trace.Emit("swap", "")
	return e.rec.Swap(&snapshot{backend: backend}).backend
}

// FNV-1a constants (FNV is public domain; hash/fnv uses the same ones).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// shardFor maps a session ID to its shard by FNV-1a hash. The hash is
// inlined rather than going through hash/fnv, whose hash.Hash32 interface
// and []byte conversion would allocate on every Submit.
func (e *Engine) shardFor(session string) *shard {
	h := uint32(fnvOffset32)
	for i := 0; i < len(session); i++ {
		h ^= uint32(session[i])
		h *= fnvPrime32
	}
	return e.shards[h%uint32(len(e.shards))]
}

// validate is Submit's stateless event check; the regressing-timestamp
// check needs per-shard state and lives in Submit itself.
func validate(ev Event) error {
	if ev.Session == "" {
		return fmt.Errorf("%w: empty session ID", ErrBadEvent)
	}
	if !mathx.Finite(ev.X) || !mathx.Finite(ev.Y) {
		return fmt.Errorf("%w: non-finite coordinates (%v, %v) for session %s", ErrBadEvent, ev.X, ev.Y, ev.Session)
	}
	if !mathx.Finite(ev.T) || ev.T < 0 {
		return fmt.Errorf("%w: bad timestamp %v for session %s", ErrBadEvent, ev.T, ev.Session)
	}
	return nil
}

// Submit routes one event to its session's shard. It never blocks: an
// invalid event returns ErrBadEvent (non-finite coordinates, bad or
// regressing timestamp, empty session ID — checked before anything can
// reach feature extraction), a full shard queue returns ErrQueueFull
// (the event is not enqueued), an admission-control shed returns
// ErrOverloaded, a closed engine returns ErrClosed. Match all four with
// errors.Is. Events for one session are processed in submission order
// as long as the caller submits them from one goroutine.
//
// Submit is the intake half of the zero-allocation decide path: with
// observability and flight capture disabled it must not allocate per
// event (machine-checked — see DESIGN.md §6, "Hot-path allocation
// gate").
//
//glint:hotpath
func (e *Engine) Submit(ev Event) error {
	err := e.submit(ev)
	if err != nil && errors.Is(err, ErrQueueFull) {
		e.m.rejected.Inc()
	}
	return err
}

// SubmitWait is Submit that waits for queue space instead of returning
// ErrQueueFull: it retries, yielding the processor between attempts, so
// a slow shard stalls the producer (and, over the wire, TCP pushes back
// on the client). No lock is held while it yields, so Close is never
// blocked by a waiting producer; the wait ends with ErrClosed. Every
// other refusal — ErrBadEvent, ErrOverloaded, ErrClosed — returns at
// once. A full queue that is waited out is never counted as rejected.
//
//glint:hotpath
func (e *Engine) SubmitWait(ev Event) error {
	for {
		err := e.submit(ev)
		if err == nil || !errors.Is(err, ErrQueueFull) {
			return err
		}
		runtime.Gosched()
	}
}

// submit is the shared intake of Submit and SubmitWait. It counts every
// outcome except a full queue, which only the caller knows to be
// terminal or not.
//
//glint:hotpath
func (e *Engine) submit(ev Event) error {
	if err := validate(ev); err != nil {
		e.m.bad.Inc()
		return err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	if e.admission != nil && !e.admission.Admit() {
		e.m.rejected.Inc()
		return ErrOverloaded
	}
	sh := e.shardFor(ev.Session)
	var at time.Time
	if e.stamp {
		at = time.Now()
	}
	sh.vmu.Lock()
	if last, ok := sh.lastT[ev.Session]; ok && ev.T < last {
		sh.vmu.Unlock()
		e.m.bad.Inc()
		return fmt.Errorf("%w: timestamp %v regresses below %v for session %s", ErrBadEvent, ev.T, last, ev.Session)
	}
	select {
	case sh.ch <- queued{ev: ev, at: at}:
		sh.lastT[ev.Session] = ev.T
		sh.vmu.Unlock()
		e.m.submitted.Inc()
		e.m.submittedWin.Inc()
		e.m.queueDepth.Observe(float64(len(sh.ch)))
		return nil
	default:
		sh.vmu.Unlock()
		return ErrQueueFull
	}
}

// Closed reports whether Close has begun: a closed engine refuses every
// Submit with ErrClosed. Front ends use it to answer with a typed
// shutting-down status (HTTP 503, wire NACK-closed) instead of a
// generic failure.
func (e *Engine) Closed() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.closed
}

// Flush is a barrier: it blocks until every event accepted by Submit
// before the call has been dispatched. It works by routing a control
// message through each shard queue, so it shares the event path's FIFO
// guarantee. Note the sends block when a queue is full — don't call
// Flush from an OnResult callback. Returns ErrClosed on a closed
// engine.
func (e *Engine) Flush() error {
	return e.broadcast(&control{})
}

// Reap synchronously sweeps every shard, force-finishing sessions idle
// for at least Options.IdleTimeout (by Options.Clock), and returns how
// many it finished. With a virtual clock and ReapInterval < 0 this is
// the deterministic way to drive deadlines: advance the clock, call
// Reap. A no-op (0, nil) when IdleTimeout is 0. Returns ErrClosed on a
// closed engine.
func (e *Engine) Reap() (int, error) {
	var n atomic.Int64
	if err := e.broadcast(&control{reap: true, reaped: &n}); err != nil {
		return 0, err
	}
	return int(n.Load()), nil
}

// broadcast sends one control template to every shard and waits for all
// of them to process it.
func (e *Engine) broadcast(tmpl *control) error {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return ErrClosed
	}
	dones := make([]chan struct{}, 0, len(e.shards))
	for _, sh := range e.shards {
		c := &control{reap: tmpl.reap, reaped: tmpl.reaped, done: make(chan struct{})}
		sh.ch <- queued{ctl: c}
		dones = append(dones, c.done)
	}
	e.mu.RUnlock()
	for _, d := range dones {
		<-d
	}
	return nil
}

// reapLoop is the background sweeper: every interval it drops a
// non-blocking reap command into each shard queue (skipping full queues
// — a busy shard is not idle) until Close.
func (e *Engine) reapLoop(interval time.Duration) {
	defer e.reapWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
			e.mu.RLock()
			if !e.closed {
				for _, sh := range e.shards {
					select {
					case sh.ch <- queued{ctl: &control{reap: true}}:
					default:
					}
				}
			}
			e.mu.RUnlock()
		}
	}
}

// Close stops intake, drains every shard's queued events, force-finishes
// the sessions still in flight (each is classified on the stroke prefix
// collected so far and reported through OnResult with OutcomeDrained),
// and waits for all workers — and the background reaper — to exit. When
// Options.FlightDump is set, the flight recorder's JSON dump is then
// written to it exactly once (the post-mortem artifact). Close is
// idempotent; concurrent Submits during Close get ErrClosed or are
// processed, never lost after being accepted.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return nil
	}
	e.closed = true
	close(e.stop)
	for _, sh := range e.shards {
		//lint:ignore sendclosed senders hold e.mu.RLock and check e.closed before every send; closed is set under e.mu.Lock above, so no send can race this close
		close(sh.ch)
	}
	e.mu.Unlock()
	e.reapWG.Wait()
	e.wg.Wait()
	if e.opts.FlightDump != nil {
		return e.opts.Flight.WriteJSON(e.opts.FlightDump)
	}
	return nil
}

// Stats returns a snapshot of the engine's counters. Completed is read
// before opened: a session is opened before it completes, so Active is
// never negative even while sessions finish concurrently.
func (e *Engine) Stats() Stats {
	completed := e.m.completed.Value()
	return Stats{
		Submitted: e.m.submitted.Value(),
		Rejected:  e.m.rejected.Value(),
		Bad:       e.m.bad.Value(),
		Completed: completed,
		Active:    e.m.opened.Value() - completed,
		Reaped:    e.m.reaped.Value(),
		Panicked:  e.m.panicked.Value(),
		Degraded:  e.m.degraded.Value(),
	}
}

// run is one shard's worker loop: handle events until the queue closes,
// then drain the in-flight sessions deterministically (ID order).
func (e *Engine) run(sh *shard) {
	defer e.wg.Done()
	for q := range sh.ch {
		if q.ctl != nil {
			if q.ctl.reap {
				n := e.sweep(sh)
				if q.ctl.reaped != nil {
					q.ctl.reaped.Add(int64(n))
				}
			}
			if q.ctl.done != nil {
				close(q.ctl.done)
			}
			continue
		}
		if !q.at.IsZero() {
			wait := time.Since(q.at)
			e.m.queueWaitNS.Observe(float64(wait))
			e.admission.Observe(wait)
		}
		e.handle(sh, q)
	}
	ids := make([]string, 0, len(sh.sessions))
	for id := range sh.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ls := sh.sessions[id]
		e.forceFinish(sh, id, ls, OutcomeDrained)
	}
}

// sweep force-finishes every session idle for at least IdleTimeout,
// in deterministic ID order, and returns the count. Runs on the shard
// goroutine (via a control message), so it owns the session map.
func (e *Engine) sweep(sh *shard) int {
	if !e.deadlines || len(sh.sessions) == 0 {
		return 0
	}
	now := e.clock.Now()
	var ids []string
	for id, ls := range sh.sessions {
		if now.Sub(ls.lastActive) >= e.opts.IdleTimeout {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		e.forceFinish(sh, id, sh.sessions[id], OutcomeReaped)
	}
	return len(ids)
}

// forceFinish ends a session from outside its event stream (reaper or
// drain): Finish classifies the collected prefix, a panicking Finish is
// contained exactly like a dispatch panic.
func (e *Engine) forceFinish(sh *shard, id string, ls *liveSession, outcome Outcome) {
	class, panicked := e.finishSession(ls)
	if panicked {
		sh.quarantined[id] = true
		e.finish(sh, id, ls, "", OutcomePanicked)
		return
	}
	e.finish(sh, id, ls, class, outcome)
}

// finishSession calls Finish with panic containment, reporting whether
// it panicked instead of propagating.
func (e *Engine) finishSession(ls *liveSession) (class string, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			ls.root.Event("panic", fmt.Sprint(r))
		}
	}()
	return ls.sess.Finish(), false
}

// dispatch applies one event to its session with panic containment and
// the fault hook: a panic (injected or real) is recovered here, keeping
// the shard alive — only the panicking session is lost.
func (e *Engine) dispatch(id string, ls *liveSession, ev Event) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			ls.root.Event("panic", fmt.Sprint(r))
		}
	}()
	x, y := ev.X, ev.Y
	if e.opts.Fault != nil {
		var panicNow bool
		x, y, panicNow = e.opts.Fault.Dispatch(id, ls.events, x, y)
		if panicNow {
			panic(fmt.Sprintf("fault: injected panic (session %s, event %d)", id, ls.events))
		}
	}
	ls.sess.Handle(multipath.Event{Finger: ev.Finger, Kind: ev.Kind, X: x, Y: y, T: ev.T})
	return false
}

// openSession starts a new in-flight session for its first FingerDown,
// reviving a pooled liveSession when one is available for the current
// recognizer snapshot and allocating a fresh one otherwise. Runs on the
// shard goroutine, which owns both maps and the pool.
//
//glint:coldpath runs once per gesture, not per point, and the session pool makes the steady-state revival branch allocation-free
func (e *Engine) openSession(sh *shard, id string, at time.Time) *liveSession {
	snap := e.rec.Load()
	var ls *liveSession
	if n := len(sh.free); n > 0 {
		ls = sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		if ls.snap != snap {
			// The model was swapped while this session sat in the pool;
			// its recognition stream's buffers are shaped for the old
			// snapshot. Drop it (the remaining pool drains the same way)
			// and build against the current model.
			ls = nil
		}
	}
	if ls == nil {
		ls = &liveSession{snap: snap, sess: multipath.NewSession(snap.backend)}
	} else {
		*ls = liveSession{snap: snap, sess: ls.sess, spans: ls.spans}
	}
	ls.start = at
	ls.sess.SetDegradedFallback(true)
	ls.root = e.m.spans.StartIn(ls.spans.nextRoot(), "gesture", at)
	ls.root.SetAttr("session", id)
	ls.sess.SetSpan(ls.root)
	if e.opts.Flight != nil {
		ls.capture = flight.NewCapture(id)
		ls.sess.SetTap(ls.capture)
	}
	sh.sessions[id] = ls
	e.m.opened.Inc()
	e.m.trace.Emit("session_open", id)
	return ls
}

// handle applies one event to its session, creating the session on its
// first FingerDown (with the recognizer snapshot current at that moment)
// and retiring it when the interaction completes. When instrumented, the
// first event opens the gesture's root span (backdated to its enqueue
// time, so queue wait is inside the trace) and every event records
// "queue_wait" and "dispatch" children under it.
//
// handle is the shard half of the zero-allocation decide path: in steady
// state (sessions pooled, observability off) dispatching one event must
// not allocate.
//
//glint:hotpath
func (e *Engine) handle(sh *shard, q queued) {
	ev := q.ev
	if sh.quarantined[ev.Session] {
		// Late event for a panic-quarantined session: drop it so the ID
		// cannot resurrect and produce a second Result.
		e.m.quarantined.Inc()
		sh.clearLastT(ev.Session)
		return
	}
	ls, ok := sh.sessions[ev.Session]
	if !ok {
		if ev.Kind != multipath.FingerDown {
			// Stray move/up for an unknown or already-retired session;
			// drop its timestamp high-water mark too, so stray traffic
			// cannot grow the validation map without bound.
			sh.clearLastT(ev.Session)
			return
		}
		ls = e.openSession(sh, ev.Session, q.at)
	}
	qsp := ls.root.ChildIn(&ls.spans.queueWait, "queue_wait", q.at)
	qsp.End()
	dsp := ls.root.ChildIn(&ls.spans.dispatch, "dispatch", time.Time{})
	panicked := e.dispatch(ev.Session, ls, ev)
	dsp.End()
	if ev.SentNS > 0 && e.m.e2e != nil {
		// End-to-end wire attribution: client send stamp -> decision
		// applied. Clock skew between hosts can drive the delta negative
		// or absurdly large; SentLatency clamps it into [0, uptime] so
		// the histogram stays meaningful.
		if d, ok := wire.SentLatency(time.Now().UnixNano(), ev.SentNS, e.startNS); ok {
			e.m.e2e.Observe(float64(d))
			e.m.e2eWin.Observe(float64(d))
		}
	}
	ls.events++
	if e.deadlines {
		ls.lastActive = e.clock.Now()
	}
	if panicked {
		sh.quarantined[ev.Session] = true
		e.finish(sh, ev.Session, ls, "", OutcomePanicked)
		return
	}
	if ls.sess.Completed() {
		outcome := OutcomeCompleted
		if ls.sess.Degraded() {
			outcome = OutcomeDegraded
		}
		e.finish(sh, ev.Session, ls, ls.sess.Class(), outcome)
	}
}

// finish retires one session from its shard: counters, end-to-end
// latency (enqueue of the opening event through completion), trace,
// root-span closure, flight-bundle offer, and the OnResult callback.
// The outcome drives the per-reason counters, trace events, and the
// bundle's Outcome.Reason. A healthy session (any outcome but
// OutcomePanicked) is Reset and returned to the shard pool for the next
// gesture.
//
//glint:coldpath per-gesture teardown dispatched once at completion, not per point
func (e *Engine) finish(sh *shard, id string, ls *liveSession, class string, outcome Outcome) {
	delete(sh.sessions, id)
	sh.clearLastT(id)
	e.m.completed.Inc()
	var latency time.Duration
	if !ls.start.IsZero() {
		latency = time.Since(ls.start)
	}
	ls.root.SetAttr("class", class)
	ls.root.SetAttr("outcome", outcome.String())
	switch outcome {
	case OutcomeDrained:
		ls.root.SetAttrInt("drained", 1)
		e.m.drained.Inc()
		e.m.trace.Emit("session_drained", id)
	case OutcomeReaped:
		ls.root.Event("reaped", "")
		e.m.reaped.Inc()
		e.m.trace.Emit("session_reaped", id)
	case OutcomePanicked:
		e.m.panicked.Inc()
		e.m.trace.Emit("session_panicked", id)
	case OutcomeDegraded:
		e.m.degraded.Inc()
		e.m.trace.Emit("session_degraded", id)
	default:
		e.m.trace.Emit("session_done", id)
	}
	ls.root.End()
	var bundleSeq uint64
	if ls.capture != nil {
		b := ls.capture.Bundle(class, outcome.String(), latency)
		e.opts.Flight.Offer(b)
		bundleSeq = b.Seq // 1-based when kept, 0 when the trigger dropped it
	}
	if !ls.start.IsZero() {
		// The exemplar ties this bucket's most recent session back to its
		// gesture trace and (when kept) its flight recording.
		e.m.sessionNS.ObserveExemplar(float64(latency.Nanoseconds()), ls.root.ID(), bundleSeq)
		e.m.sessionWinNS.Observe(float64(latency.Nanoseconds()))
	}
	if e.opts.OnResult != nil {
		e.opts.OnResult(Result{Session: id, Class: class, Outcome: outcome})
	}
	if outcome != OutcomePanicked {
		// A panicked session's state is suspect — let the GC have it. Any
		// other outcome left the session healthy: recycle it.
		ls.sess.Reset()
		ls.root, ls.capture = nil, nil
		sh.free = append(sh.free, ls)
	}
}

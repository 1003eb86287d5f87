package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// AttrKind discriminates the value slot an Attr uses. Stored as a string
// so snapshot JSON stays self-describing.
type AttrKind string

// Attribute kinds.
const (
	// AttrString marks an Attr whose value is in Str.
	AttrString AttrKind = "string"
	// AttrInt marks an Attr whose value is in Int.
	AttrInt AttrKind = "int"
	// AttrFloat marks an Attr whose value is in Float.
	AttrFloat AttrKind = "float"
)

// Attr is one typed span attribute: a key plus exactly one value slot,
// selected by Kind. Attributes are immutable once the owning span ends.
type Attr struct {
	Key   string   `json:"key"`
	Kind  AttrKind `json:"kind"`
	Str   string   `json:"str,omitempty"`
	Int   int64    `json:"int,omitempty"`
	Float float64  `json:"float,omitempty"`
}

// SpanRecord is one completed span as retained by a SpanBuffer and
// exported in snapshots: identity (ID), causality (Parent links to the
// enclosing span's ID, 0 at a root; Root identifies the whole trace —
// every span in one gesture shares its root span's ID), wall-clock
// bounds in unix nanoseconds, and the typed attributes set before End.
type SpanRecord struct {
	Seq    uint64 `json:"seq"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Root   uint64 `json:"root"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Attrs  []Attr `json:"attrs,omitempty"`
}

// Span is one in-flight span. Create roots with SpanBuffer.Start and
// children with Span.Child; finish with End, which copies the span into
// a SpanRecord in the owning buffer. A Span is plain storage: an owner
// that opens the same kind of span over and over (a session's per-point
// "decide", a connection's "wire_frame") keeps one Span value and refills
// it with SpanBuffer.StartIn or Span.ChildIn, which reuse its attribute
// capacity, so steady-state tracing allocates nothing.
//
// Concurrency contract: a Span is owned by one goroutine at a time, like
// an eager.Session — SetAttr*, Child, Event, and End must not be called
// concurrently on the same span. Distinct spans (including a parent and
// a child handed to another goroutine before any further mutation) are
// independent. Every method is a no-op (Child returns nil) on a nil
// receiver, so disabled tracing costs only the nil check per call site —
// the same <5 ns contract as the other instruments, enforced by
// BenchmarkObsDisabledSpan*.
type Span struct {
	b      *SpanBuffer
	id     uint64
	parent uint64
	root   uint64
	name   string
	start  int64
	attrs  []Attr
	ended  bool
}

// SpanBuffer is a bounded buffer of completed spans: the last Cap
// records, oldest overwritten first. Each ring slot is published once
// through an atomic pointer, allocated the first time the slot is
// written; every later lap overwrites that slot's record in place under
// the slot's own mutex, copying the span's attributes into the record's
// reused slice. Writers to distinct slots never contend, and a reader
// copying a slot under its mutex never sees a torn record. So, once each
// slot has been written once and each owner's attribute capacity has
// grown to its span's needs, recording a span allocates nothing.
// Starting a span costs one atomic ID allocation plus a clock read. All
// methods are safe for concurrent use and no-ops on a nil receiver.
type SpanBuffer struct {
	slots []atomic.Pointer[spanSlot]
	next  atomic.Uint64 // ring sequence: one per recorded span
	ids   atomic.Uint64 // span ID allocator; IDs start at 1 (0 = "no parent")
}

// spanSlot is one ring slot's record storage. mu orders a writer
// against readers copying the record and against a writer one lap
// behind; it is uncontended in practice. rec.ID is 0 until the first
// write lands.
type spanSlot struct {
	mu  sync.Mutex
	rec SpanRecord
}

// defaultSpanCap is the buffer capacity used when a span buffer is
// registered with a non-positive capacity.
const defaultSpanCap = 8192

func newSpanBuffer(capacity int) *SpanBuffer {
	if capacity <= 0 {
		capacity = defaultSpanCap
	}
	return &SpanBuffer{slots: make([]atomic.Pointer[spanSlot], capacity)}
}

// Start begins a new root span now. Returns nil (the disabled span) on a
// nil buffer, without reading the clock. Start, StartAt, Child and
// ChildAt are StartIn/ChildIn over a fresh heap Span; all four share
// open, which reads the clock (a zero time means now), so each stays
// small enough to inline to a nil check at every call site. Event and
// End follow the same pattern.
func (b *SpanBuffer) Start(name string) *Span {
	if b == nil {
		return nil
	}
	return b.open(new(Span), nil, name, time.Time{})
}

// StartAt begins a new root span with an explicit start time — used when
// the causally-correct start predates the call, e.g. a gesture span that
// starts at the enqueue of its opening event. A zero at means now.
// Returns nil on a nil buffer.
func (b *SpanBuffer) StartAt(name string, at time.Time) *Span {
	if b == nil {
		return nil
	}
	return b.open(new(Span), nil, name, at)
}

// StartIn is StartAt into caller-owned storage: it overwrites *r with a
// new root span (keeping r's attribute capacity for reuse) and returns
// r. The previous span in r must have ended; its record is already
// copied into the buffer, so reusing r cannot change it. Returns nil
// without touching r on a nil buffer.
func (b *SpanBuffer) StartIn(r *Span, name string, at time.Time) *Span {
	if b == nil {
		return nil
	}
	return b.open(r, nil, name, at)
}

// open fills r as a fresh span starting at at (zero means now): a child
// of parent, or a root span when parent is nil. It returns r.
func (b *SpanBuffer) open(r, parent *Span, name string, at time.Time) *Span {
	if at.IsZero() {
		at = time.Now()
	}
	id := b.ids.Add(1)
	pid, root := uint64(0), id
	if parent != nil {
		pid, root = parent.id, parent.root // read first: r may be parent's own storage
	}
	*r = Span{b: b, id: id, parent: pid, root: root, name: name, start: at.UnixNano(), attrs: r.attrs[:0]}
	return r
}

// Cap returns the buffer's capacity; 0 on a nil receiver.
func (b *SpanBuffer) Cap() int {
	if b == nil {
		return 0
	}
	return len(b.slots)
}

// Recorded returns the total number of spans ever recorded (including
// ones since overwritten); 0 on a nil receiver.
func (b *SpanBuffer) Recorded() uint64 {
	if b == nil {
		return 0
	}
	return b.next.Load()
}

// Records returns copies of the retained span records oldest-first (by
// recording sequence). Best-effort under concurrent recording, like
// Ring.Events: a record being overwritten appears as old or new, never
// torn. Returns nil on a nil receiver.
func (b *SpanBuffer) Records() []SpanRecord {
	if b == nil {
		return nil
	}
	out := make([]SpanRecord, 0, len(b.slots))
	for i := range b.slots {
		sl := b.slots[i].Load()
		if sl == nil {
			continue
		}
		sl.mu.Lock()
		r := sl.rec
		r.Attrs = append([]Attr(nil), sl.rec.Attrs...)
		sl.mu.Unlock()
		if r.ID != 0 {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// record writes one completed span (r, whose Attrs is unset, plus its
// attrs) into the next ring slot. attrs is copied into the slot's own
// slice, so the record never aliases the caller's storage.
func (b *SpanBuffer) record(r SpanRecord, attrs []Attr) {
	r.Seq = b.next.Add(1) - 1
	p := &b.slots[r.Seq%uint64(len(b.slots))]
	var sl *spanSlot
	for sl == nil {
		// A slot's storage is allocated once, by whichever writer
		// reaches it first; every later lap reuses it.
		if sl = p.Load(); sl == nil {
			p.CompareAndSwap(nil, new(spanSlot))
		}
	}
	sl.mu.Lock()
	r.Attrs = append(sl.rec.Attrs[:0], attrs...)
	sl.rec = r
	sl.mu.Unlock()
}

// ID returns the span's identifier (0 on a nil receiver). Child spans
// carry it as their Parent.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Child begins a sub-span of s starting now. Returns nil — the disabled
// span — on a nil receiver, without reading the clock.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.b.open(new(Span), s, name, time.Time{})
}

// ChildAt begins a sub-span with an explicit start time (zero means
// now) — used to backdate intervals measured before the span could be
// created, e.g. queue wait recorded at dequeue. Returns nil on a nil
// receiver.
func (s *Span) ChildAt(name string, at time.Time) *Span {
	if s == nil {
		return nil
	}
	return s.b.open(new(Span), s, name, at)
}

// ChildIn is ChildAt into caller-owned storage: it overwrites *c with a
// new sub-span of s (keeping c's attribute capacity for reuse) and
// returns c, under the same rules as SpanBuffer.StartIn. Returns nil
// without touching c on a nil receiver.
func (s *Span) ChildIn(c *Span, name string, at time.Time) *Span {
	if s == nil {
		return nil
	}
	return s.b.open(c, s, name, at)
}

// Event records an instantaneous (zero-duration) child span — commit,
// reset, poisoned and similar point-in-time occurrences. The detail, when
// non-empty, is attached as a "detail" string attribute. No-op on a nil
// receiver.
func (s *Span) Event(name, detail string) {
	if s == nil {
		return
	}
	s.event(name, detail)
}

// event is Event's enabled path, kept out of line so Event inlines.
func (s *Span) event(name, detail string) {
	now := time.Now().UnixNano()
	r := SpanRecord{ID: s.b.ids.Add(1), Parent: s.id, Root: s.root, Name: name, Start: now, End: now}
	attr := [1]Attr{{Key: "detail", Kind: AttrString, Str: detail}}
	attrs := attr[:0]
	if detail != "" {
		attrs = attr[:]
	}
	s.b.record(r, attrs)
}

// SetAttr attaches a string attribute. No-op on a nil receiver.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Kind: AttrString, Str: value})
}

// SetAttrInt attaches an integer attribute. No-op on a nil receiver.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Kind: AttrInt, Int: v})
}

// SetAttrFloat attaches a float attribute. No-op on a nil receiver.
func (s *Span) SetAttrFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Kind: AttrFloat, Float: v})
}

// End finishes the span now and publishes its record. Idempotent: a
// second End is ignored. No-op on a nil receiver.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(time.Time{})
}

// EndAt finishes the span at an explicit time (zero means now) and
// copies it into the buffer. Idempotent; no-op on a nil receiver.
func (s *Span) EndAt(at time.Time) {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	if at.IsZero() {
		at = time.Now()
	}
	s.b.record(SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Root:   s.root,
		Name:   s.name,
		Start:  s.start,
		End:    at.UnixNano(),
	}, s.attrs)
}

// SpanSnap is the point-in-time state of one span buffer inside a
// Snapshot: capacity, total spans ever recorded, and the retained
// records in recording order.
type SpanSnap struct {
	Name     string       `json:"name"`
	Cap      int          `json:"cap"`
	Recorded uint64       `json:"recorded"`
	Spans    []SpanRecord `json:"spans"`
}

func (b *SpanBuffer) snapshot(name string) SpanSnap {
	return SpanSnap{Name: name, Cap: b.Cap(), Recorded: b.Recorded(), Spans: b.Records()}
}

package obs

import (
	"sort"
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
// children with Span.Child; finish with End, which publishes an
// immutable SpanRecord into the owning buffer.
//
// Concurrency contract: a Span is owned by one goroutine at a time, like
// an eager.Session — SetAttr*, Child, Event, and End must not be called
// concurrently on the same span. Distinct spans (including a parent and
// a child handed to another goroutine before any further mutation) are
// independent; publication into the buffer is lock-free. Every method is
// a no-op (Child returns nil) on a nil receiver, so disabled tracing
// costs only the nil check per call site — the same <5 ns contract as
// the other instruments, enforced by BenchmarkObsDisabledSpan*.
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

// SpanBuffer is a lock-free bounded buffer of completed spans: the last
// Cap records, oldest overwritten first, published through atomic
// pointers exactly like Ring. Starting a span costs one atomic ID
// allocation plus a clock read; ending it allocates the record and
// stores it in one slot. All methods are safe for concurrent use and
// no-ops on a nil receiver.
type SpanBuffer struct {
	slots []atomic.Pointer[SpanRecord]
	next  atomic.Uint64 // ring sequence: one per recorded span
	ids   atomic.Uint64 // span ID allocator; IDs start at 1 (0 = "no parent")
}

// defaultSpanCap is the buffer capacity used when a span buffer is
// registered with a non-positive capacity.
const defaultSpanCap = 8192

func newSpanBuffer(capacity int) *SpanBuffer {
	if capacity <= 0 {
		capacity = defaultSpanCap
	}
	return &SpanBuffer{slots: make([]atomic.Pointer[SpanRecord], capacity)}
}

// Start begins a new root span now. Returns nil (the disabled span) on a
// nil buffer, without reading the clock. The clock is read inside
// StartAt (a zero time means now), which keeps Start small enough to
// inline to a nil check at every call site; Child, Event and End follow
// the same pattern.
func (b *SpanBuffer) Start(name string) *Span {
	if b == nil {
		return nil
	}
	return b.StartAt(name, time.Time{})
}

// StartAt begins a new root span with an explicit start time — used when
// the causally-correct start predates the call, e.g. a gesture span that
// starts at the enqueue of its opening event. A zero at means now.
// Returns nil on a nil buffer.
func (b *SpanBuffer) StartAt(name string, at time.Time) *Span {
	if b == nil {
		return nil
	}
	if at.IsZero() {
		at = time.Now()
	}
	id := b.ids.Add(1)
	return &Span{b: b, id: id, root: id, name: name, start: at.UnixNano()}
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

// Records returns the retained span records oldest-first (by recording
// sequence). Best-effort under concurrent recording, like Ring.Events:
// a record being overwritten appears as old or new, never torn. Returns
// nil on a nil receiver.
func (b *SpanBuffer) Records() []SpanRecord {
	if b == nil {
		return nil
	}
	out := make([]SpanRecord, 0, len(b.slots))
	for i := range b.slots {
		if r := b.slots[i].Load(); r != nil {
			out = append(out, *r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// record publishes one completed record into the ring.
func (b *SpanBuffer) record(r *SpanRecord) {
	seq := b.next.Add(1) - 1
	r.Seq = seq
	b.slots[seq%uint64(len(b.slots))].Store(r)
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
	return s.ChildAt(name, time.Time{})
}

// ChildAt begins a sub-span with an explicit start time (zero means
// now) — used to backdate intervals measured before the span could be
// created, e.g. queue wait recorded at dequeue. Returns nil on a nil
// receiver.
func (s *Span) ChildAt(name string, at time.Time) *Span {
	if s == nil {
		return nil
	}
	if at.IsZero() {
		at = time.Now()
	}
	return &Span{b: s.b, id: s.b.ids.Add(1), parent: s.id, root: s.root, name: name, start: at.UnixNano()}
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
	r := &SpanRecord{ID: s.b.ids.Add(1), Parent: s.id, Root: s.root, Name: name, Start: now, End: now}
	if detail != "" {
		r.Attrs = []Attr{{Key: "detail", Kind: AttrString, Str: detail}}
	}
	s.b.record(r)
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
// publishes its record. Idempotent; no-op on a nil receiver.
func (s *Span) EndAt(at time.Time) {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	if at.IsZero() {
		at = time.Now()
	}
	s.b.record(&SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Root:   s.root,
		Name:   s.name,
		Start:  s.start,
		End:    at.UnixNano(),
		Attrs:  s.attrs,
	})
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

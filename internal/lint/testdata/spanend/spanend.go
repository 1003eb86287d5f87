// Package spanend is a fixture for the spanend analyzer. It defines a
// local stand-in for the obs span API because the loader's source
// importer cannot resolve repository packages from a testdata directory;
// the analyzer deliberately matches the *Span type by name.
package spanend

// Span mirrors the obs.Span method set the analyzer knows about.
type Span struct{ ended bool }

// End finishes the span.
func (s *Span) End() {}

// EndAt finishes the span at an explicit time.
func (s *Span) EndAt(at int) {}

// Child starts a nested span.
func (s *Span) Child(name string) *Span { return &Span{} }

// ChildIn starts a nested span in caller-owned storage.
func (s *Span) ChildIn(c *Span, name string) *Span { return c }

// SetAttr attaches an attribute.
func (s *Span) SetAttr(k, v string) {}

// Event records an instant child.
func (s *Span) Event(name string) {}

// SpanBuffer mirrors obs.SpanBuffer.
type SpanBuffer struct{}

// Start opens a root span.
func (b *SpanBuffer) Start(name string) *Span { return &Span{} }

// StartIn opens a root span in caller-owned storage.
func (b *SpanBuffer) StartIn(r *Span, name string) *Span { return r }

func neverEnded(b *SpanBuffer) {
	sp := b.Start("work") // want `span sp is never ended`
	sp.Event("tick")
}

func missedPath(b *SpanBuffer, cond bool) error {
	sp := b.Start("work") // want `span sp is not ended on every return path`
	if cond {
		sp.End()
		return nil
	}
	return nil
}

func missedFallthrough(b *SpanBuffer, cond bool) {
	sp := b.Start("work") // want `span sp is not ended on every return path`
	if cond {
		sp.End()
	}
}

func childLeak(b *SpanBuffer) {
	sp := b.Start("work")
	c := sp.Child("step") // want `span c is never ended`
	c.Event("tick")
	sp.End()
}

func allPaths(b *SpanBuffer, cond bool) error {
	sp := b.Start("work")
	if cond {
		sp.End()
		return nil
	}
	sp.End()
	return nil
}

func deferred(b *SpanBuffer, cond bool) error {
	sp := b.Start("work")
	defer sp.End()
	if cond {
		return nil
	}
	return nil
}

func endAt(b *SpanBuffer) {
	sp := b.Start("work")
	sp.SetAttr("k", "v")
	sp.EndAt(7)
}

func nestedOK(b *SpanBuffer) {
	sp := b.Start("work")
	c := sp.Child("step")
	c.End()
	sp.End()
}

// handedOff transfers ownership by returning the span: clean.
func handedOff(b *SpanBuffer) *Span {
	sp := b.Start("work")
	return sp
}

// consume stands in for any callee that takes over a span.
func consume(s *Span) { s.End() }

// passedAlong transfers ownership as an argument: clean.
func passedAlong(b *SpanBuffer) {
	sp := b.Start("work")
	consume(sp)
}

// holder stores a long-lived span the way serve's liveSession does.
type holder struct{ sp *Span }

// stored escapes into a field: clean.
func stored(b *SpanBuffer, h *holder) {
	sp := b.Start("work")
	h.sp = sp
}

// closureEnd is ended by a captured closure: clean (trusted wiring).
func closureEnd(b *SpanBuffer) func() {
	sp := b.Start("work")
	return func() { sp.End() }
}

// litScope checks that function literals are scopes of their own.
var litScope = func(b *SpanBuffer) {
	sp := b.Start("work") // want `span sp is never ended`
	sp.Event("tick")
}

func switchPaths(b *SpanBuffer, n int) int {
	sp := b.Start("work") // want `span sp is not ended on every return path`
	switch n {
	case 0:
		sp.End()
		return 1
	default:
		return 2
	}
}

// owner keeps span storage the way serve's liveSession and
// eager.Session do; a span opened in it still has to be ended.
type owner struct{ root, step Span }

func ownedNeverEnded(b *SpanBuffer, o *owner) {
	sp := b.StartIn(&o.root, "work") // want `span sp is never ended`
	sp.SetAttr("k", "v")
}

func ownedChildLeak(b *SpanBuffer, o *owner) {
	sp := b.StartIn(&o.root, "work")
	c := sp.ChildIn(&o.step, "step") // want `span c is never ended`
	c.Event("tick")
	sp.End()
}

// ownedChildIsUse: opening a child in owner storage neither ends the
// parent nor hands it off.
func ownedChildIsUse(b *SpanBuffer, o *owner) {
	sp := b.StartIn(&o.root, "work") // want `span sp is never ended`
	c := sp.ChildIn(&o.step, "step")
	c.End()
}

func ownedOK(b *SpanBuffer, o *owner, cond bool) error {
	sp := b.StartIn(&o.root, "work")
	c := sp.ChildIn(&o.step, "step")
	c.End()
	if cond {
		sp.End()
		return nil
	}
	sp.End()
	return nil
}

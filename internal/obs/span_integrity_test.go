package obs_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// checkRecord reports why r is not a self-consistent span of the
// writer its attributes name: every attribute encodes the writer, the
// name and root link match it, and the attribute count matches the
// sequence number it was written with.
func checkRecord(r obs.SpanRecord, names []string, roots []uint64) error {
	if len(r.Attrs) < 2 || r.Attrs[0].Key != "writer" || r.Attrs[1].Key != "i" {
		return fmt.Errorf("attrs %+v lack writer/i", r.Attrs)
	}
	w, i := r.Attrs[0].Int, r.Attrs[1].Int
	if w < 0 || int(w) >= len(names) {
		return fmt.Errorf("writer %d out of range", w)
	}
	if r.Name != names[w] || r.Root != roots[w] || r.Parent != roots[w] {
		return fmt.Errorf("writer %d record named %q under root %d/parent %d, want %q under %d", w, r.Name, r.Root, r.Parent, names[w], roots[w])
	}
	if want := 2 + int(i%3); len(r.Attrs) != want {
		return fmt.Errorf("writer %d span %d has %d attrs, want %d", w, i, len(r.Attrs), want)
	}
	for _, a := range r.Attrs[2:] {
		if a.Kind != obs.AttrString || a.Str != names[w] {
			return fmt.Errorf("writer %d span %d carries foreign attr %+v", w, i, a)
		}
	}
	return nil
}

// TestSpanRecordsNeverTorn races writers that overwrite a small ring's
// slots many times over — each recording spans in its own reused
// storage, with attribute counts that vary so slot slices regrow —
// against readers taking Records and Snapshots. Every record a reader
// sees must be whole: one writer's name, links and attributes.
func TestSpanRecordsNeverTorn(t *testing.T) {
	reg := obs.New()
	b := reg.Spans("t", 16)
	const writers, spans = 4, 2000
	names := make([]string, writers)
	roots := make([]uint64, writers)
	rootSpans := make([]*obs.Span, writers)
	for w := range names {
		names[w] = fmt.Sprintf("w%d", w)
		rootSpans[w] = b.Start("root")
		roots[w] = rootSpans[w].ID()
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var own obs.Span
			for i := 0; i < spans; i++ {
				sp := rootSpans[w].ChildIn(&own, names[w], time.Time{})
				sp.SetAttrInt("writer", int64(w))
				sp.SetAttrInt("i", int64(i))
				for k := 0; k < i%3; k++ {
					sp.SetAttr("tag", names[w])
				}
				sp.End()
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				recs := b.Records()
				if r == 1 {
					for _, sb := range reg.Snapshot().Spans {
						recs = append(recs, sb.Spans...)
					}
				}
				for _, rec := range recs {
					if err := checkRecord(rec, names, roots); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(done)
	readers.Wait()
	for _, rec := range b.Records() {
		if err := checkRecord(rec, names, roots); err != nil {
			t.Error(err)
		}
	}
}

// TestOwnedSpanReuseKeepsRecords refills one owner's storage and checks
// that earlier records keep their own attributes: a record never shares
// memory with the owner's attribute slice, nor with a slice Records
// handed out before.
func TestOwnedSpanReuseKeepsRecords(t *testing.T) {
	b := obs.New().Spans("t", 8)
	var own obs.Span
	sp := b.StartIn(&own, "first", time.Time{})
	sp.SetAttr("k", "one")
	sp.End()
	sp.SetAttr("k", "late") // after End: must not reach the record

	first := b.Records()
	first[0].Attrs[0].Str = "mutated by a reader"

	sp = b.StartIn(&own, "second", time.Time{})
	if sp != &own {
		t.Fatal("StartIn did not return the owner's storage")
	}
	sp.SetAttr("k", "two")
	sp.SetAttrInt("n", 2)
	sp.End()
	c := sp.ChildIn(&own, "third", time.Time{}) // the owner reused again, as a child
	c.SetAttr("k", "three")
	c.End()

	recs := b.Records()
	if len(recs) != 3 {
		t.Fatalf("retained %d records, want 3", len(recs))
	}
	want := []struct {
		name  string
		attrs int
		k     string
	}{{"first", 1, "one"}, {"second", 2, "two"}, {"third", 1, "three"}}
	for i, w := range want {
		r := recs[i]
		if r.Name != w.name || len(r.Attrs) != w.attrs || r.Attrs[0].Str != w.k {
			t.Errorf("record %d = %s %+v, want %s with %d attrs, k=%q", i, r.Name, r.Attrs, w.name, w.attrs, w.k)
		}
	}
	if recs[2].Parent != recs[1].ID || recs[2].Root != recs[1].ID {
		t.Errorf("child in reused storage links to parent %d root %d, want %d", recs[2].Parent, recs[2].Root, recs[1].ID)
	}
}

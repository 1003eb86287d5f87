package obs

import (
	"sync"
	"time"
)

// Clock is the repo's one time source interface: windowed instruments
// rotate on it, and the serving engine, its admission controller and
// the wire ingest server read deadlines from it. Tests inject a
// ManualClock; WallClock is the default everywhere.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
}

// WallClock is the real-time Clock.
type WallClock struct{}

// Now returns time.Now().
func (WallClock) Now() time.Time { return time.Now() }

// ManualClock is a virtual clock for deterministic deadline tests: it
// only moves when Advance is called. Safe for concurrent use.
type ManualClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewManualClock returns a manual clock frozen at start.
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{t: start}
}

// Now returns the clock's current frozen time.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d and returns the new time.
// Negative d is ignored (time never runs backwards).
func (c *ManualClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.t = c.t.Add(d)
	}
	return c.t
}

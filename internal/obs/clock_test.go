package obs_test

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func TestManualClock(t *testing.T) {
	start := time.Unix(1000, 0)
	c := obs.NewManualClock(start)
	if !c.Now().Equal(start) {
		t.Fatalf("Now = %v, want %v", c.Now(), start)
	}
	if got := c.Advance(3 * time.Second); !got.Equal(start.Add(3 * time.Second)) {
		t.Fatalf("Advance returned %v", got)
	}
	if !c.Now().Equal(start.Add(3 * time.Second)) {
		t.Fatalf("Now after Advance = %v", c.Now())
	}
	if got := c.Advance(-time.Hour); !got.Equal(start.Add(3 * time.Second)) {
		t.Fatalf("negative Advance moved the clock to %v", got)
	}
}

package fault_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"testing"
)

// goldenFateDigest is the FNV-1a digest of every Fate and Dispatch
// decision (kind, coordinate bits, panic flag) over the seeds, sessions
// and indices of TestGoldenFateDigest. Two schedules built in one run
// agreeing (TestScheduleDeterministic) does not prove that a rewrite of
// the fate roll decides as the old one did; this constant does.
const goldenFateDigest = 0x33cdaaa78066982

func TestGoldenFateDigest(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	sessions := []string{"", "s0", strings.Repeat("session-with-a-long-id/", 8)}
	for _, seed := range []int64{1, 42, -7} {
		s := mustSchedule(t, fullPlan(seed))
		for _, sess := range sessions {
			for i := 0; i < 2000; i++ {
				put(uint64(s.Fate(sess, i)))
				x, y, p := s.Dispatch(sess, i, 1.5, -2.5)
				put(math.Float64bits(x))
				put(math.Float64bits(y))
				if p {
					put(1)
				} else {
					put(0)
				}
			}
		}
	}
	if got := h.Sum64(); got != goldenFateDigest {
		t.Fatalf("fate digest = %#x, want %#x: a seeded fate changed", got, uint64(goldenFateDigest))
	}
}

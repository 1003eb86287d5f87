package netfault

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"sort"
	"testing"
	"time"
)

// goldenDecideDigest is the FNV-1a digest of TestGoldenFateDigest's
// Decide stream, fault-parameter draws and Counts. Two schedules built
// in one run agreeing (TestScheduleDeterminism) does not prove that a
// rewrite of the fate roll decides as the old one did; this constant
// does.
const goldenDecideDigest = 0xb810dea3e31623be

// goldenConnDigest is the FNV-1a digest of TestGoldenConnDigest's
// bytes, underlying write counts and sleeps: the split cut, the
// corrupted byte and bit, and the jitter as a wrapped Conn applies them.
const goldenConnDigest = 0xe5cbefe12cda09ff

func goldenPlan(seed int64) Plan {
	return Plan{
		Seed: seed,
		ReadRates: map[Kind]float64{
			KindShortRead: 0.1, KindCorrupt: 0.05, KindTruncate: 0.05,
			KindStall: 0.05, KindJitter: 0.05, KindReset: 0.05,
		},
		WriteRates: map[Kind]float64{
			KindSplit: 0.1, KindCorrupt: 0.05, KindTruncate: 0.05,
			KindStall: 0.05, KindJitter: 0.05, KindReset: 0.05,
		},
	}
}

type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func (d *digest) put(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func TestGoldenFateDigest(t *testing.T) {
	h := fnv.New64a()
	d := &digest{h: h}
	labels := []string{"", "a0", "c3-a1"}
	for _, seed := range []int64{1, 42, -7} {
		s, err := NewSchedule(goldenPlan(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range []Dir{DirRead, DirWrite} {
			for _, label := range labels {
				for i := 0; i < 2000; i++ {
					d.put(uint64(s.Decide(dir, label, i)))
				}
			}
		}
		counts := s.Counts()
		kinds := make([]string, 0, len(counts))
		for k := range counts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			h.Write([]byte(k))
			d.put(counts[k])
		}
	}
	for _, label := range labels {
		for i := 0; i < 2000; i++ {
			u := mixU(label, i)
			d.put(u)
			for _, n := range []int{1, 7, 11, 12, 64, 1500} {
				d.put(uint64(corruptPos(n, u)))
			}
			d.put(uint64(jitterFor(u, 2*time.Millisecond)))
		}
	}
	if got := h.Sum64(); got != goldenDecideDigest {
		t.Fatalf("decide digest = %#x, want %#x: a seeded fate or draw changed", got, uint64(goldenDecideDigest))
	}
}

func TestGoldenConnDigest(t *testing.T) {
	h := fnv.New64a()
	d := &digest{h: h}
	s, err := NewSchedule(Plan{
		Seed:       42,
		ReadRates:  map[Kind]float64{KindShortRead: 0.2, KindCorrupt: 0.3, KindJitter: 0.2},
		WriteRates: map[Kind]float64{KindSplit: 0.25, KindCorrupt: 0.25, KindJitter: 0.2, KindStall: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetSleep(func(dur time.Duration) { d.put(uint64(dur)) })
	for _, label := range []string{"", "a0", "c3-a1"} {
		mc := &memConn{}
		c := s.Conn(mc, label)
		for i := 0; i < 300; i++ {
			payload := make([]byte, 1+i%40)
			for j := range payload {
				payload[j] = byte(i + j)
			}
			if _, err := c.Write(payload); err != nil {
				t.Fatal(err)
			}
		}
		d.put(uint64(mc.writes))
		h.Write(mc.out.Bytes())
		mc.in.Write(mc.out.Bytes())
		buf := make([]byte, 37)
		for {
			n, err := c.Read(buf)
			h.Write(buf[:n])
			if err != nil {
				break
			}
		}
	}
	if got := h.Sum64(); got != goldenConnDigest {
		t.Fatalf("conn digest = %#x, want %#x: a fault parameter changed", got, uint64(goldenConnDigest))
	}
}

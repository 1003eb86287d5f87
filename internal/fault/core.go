package fault

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/obs"
)

// FNV is a 64-bit FNV-1a hash state, fed field by field. Every fate and
// every fault parameter is an FNV digest of its coordinates, so it
// depends on nothing else: not on call order, timing or scheduling.
type FNV uint64

// NewFNV is the FNV-1a offset basis, the state of an empty hash.
const NewFNV FNV = 14695981039346656037

// Byte feeds one byte.
func (h FNV) Byte(b byte) FNV { return (h ^ FNV(b)) * 1099511628211 }

// Str feeds the bytes of s.
func (h FNV) Str(s string) FNV {
	for i := 0; i < len(s); i++ {
		h = h.Byte(s[i])
	}
	return h
}

// Uint64 feeds v as 8 little-endian bytes.
func (h FNV) Uint64(v uint64) FNV {
	for i := 0; i < 64; i += 8 {
		h = h.Byte(byte(v >> i))
	}
	return h
}

// Unit maps a 64-bit draw to [0, 1) from its top 53 bits, with full
// double precision.
func Unit(u uint64) float64 { return float64(u>>11) / (1 << 53) }

// KindType is what Fates needs of a package's fault kind: an integer
// whose zero value is the no-fault decision and whose String is the
// kind's metric suffix.
type KindType interface {
	~int
	String() string
}

// Domain declares one decision stream of a Fates: the byte separating
// its hash domain from the others, and the kinds a fate in it can take,
// in rate-table order.
type Domain[K KindType] struct {
	ID    byte
	Kinds []K
	cum   []float64 // cumulative rates aligned with Kinds; nil until Rate
}

// rule addresses one exact fate: key, domain, index.
type rule struct {
	key   string
	id    byte
	index int
}

// Fates is the seeded-fate core shared by this package's event-level
// driver and internal/netfault's connection-level one. A fate is drawn
// per (domain, key, index): the domain separates independent decision
// streams, the key names a session or connection, and the index counts
// its events or operations. It comes from the domain's seeded rates
// (Rate) or, once Set has added a rule, from exact rules. Every fault
// it hands out counts into one per-kind counter set. Configure with
// Rate, Set and Instrument before use; Fate and Counts are then safe
// for concurrent use.
type Fates[K KindType] struct {
	seed    int64
	domains []Domain[K]
	rules   map[rule]K
	byKind  map[K]*obs.Counter // one per kind some domain takes
	total   *obs.Counter
}

// NewFates returns a fate source over the given domains that injects
// nothing until Rate or Set. Its counters are private until Instrument.
func NewFates[K KindType](seed int64, domains ...Domain[K]) Fates[K] {
	f := Fates[K]{seed: seed, domains: domains, byKind: map[K]*obs.Counter{}, total: new(obs.Counter)}
	for _, d := range domains {
		for _, k := range d.Kinds {
			f.byKind[k] = new(obs.Counter)
		}
	}
	return f
}

func (f *Fates[K]) domain(id byte) *Domain[K] {
	for i := range f.domains {
		if f.domains[i].ID == id {
			return &f.domains[i]
		}
	}
	return nil
}

// Rate validates a rate map and folds it into the cumulative tables of
// the domains ids: every rated kind must belong to one of them, every
// rate must lie in [0, 1], and each domain's rates must sum to at most
// 1. what prefixes the errors.
func (f *Fates[K]) Rate(what string, rates map[K]float64, ids ...byte) error {
	kinds := make([]K, 0, len(rates))
	for k := range rates {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	for _, k := range kinds {
		if !slices.ContainsFunc(ids, func(id byte) bool { return slices.Contains(f.domain(id).Kinds, k) }) {
			return fmt.Errorf("%s: rate for inapplicable kind %v", what, k)
		}
		if r := rates[k]; math.IsNaN(r) || r < 0 || r > 1 {
			return fmt.Errorf("%s: rate for %v must be in [0, 1], got %v", what, k, r)
		}
	}
	for _, id := range ids {
		d := f.domain(id)
		d.cum = make([]float64, len(d.Kinds))
		sum := 0.0
		for i, k := range d.Kinds {
			sum += rates[k]
			d.cum[i] = sum
		}
		if sum > 1 {
			return fmt.Errorf("%s: rates for %v sum to %v > 1", what, d.Kinds, sum)
		}
	}
	return nil
}

// Set adds the exact rule "the index-th fate of key in domain id is k".
// The first rule makes the source scripted: from then on every fate
// comes from the rules, and an unruled one is no fault.
func (f *Fates[K]) Set(id byte, key string, index int, k K) {
	if f.rules == nil {
		f.rules = map[rule]K{}
	}
	f.rules[rule{key: key, id: id, index: index}] = k
}

// Fate returns the fate of the index-th event or operation of key in
// domain id, counting it as injected when it is a fault: the caller
// must apply every fault it is handed. A rule whose kind the domain
// cannot take, and a domain the source does not have, are no fault.
func (f *Fates[K]) Fate(id byte, key string, index int) K {
	d := f.domain(id)
	if d == nil {
		return 0
	}
	var k K
	if f.rules != nil {
		k = f.rules[rule{key: key, id: id, index: index}]
	} else if n := len(d.cum); n > 0 && d.cum[n-1] > 0 {
		// The first kind whose cumulative rate exceeds the roll.
		u := Unit(uint64(NewFNV.Uint64(uint64(f.seed)).Byte(id).Str(key).Uint64(uint64(index))))
		if i := slices.IndexFunc(d.cum, func(c float64) bool { return u < c }); i >= 0 {
			k = d.Kinds[i]
		}
	}
	if !slices.Contains(d.Kinds, k) { // no fault, or a rule the domain cannot take
		return 0
	}
	f.byKind[k].Inc()
	f.total.Inc()
	return k
}

// Instrument moves the counters into reg, named prefix+kind and
// prefix+"total", carrying over what they counted so far. A nil reg is
// a no-op. Call before use; not safe concurrently with Fate.
func (f *Fates[K]) Instrument(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	move := func(c *obs.Counter, name string) *obs.Counter {
		if r := reg.Counter(name); r != c {
			r.Add(c.Value())
			return r
		}
		return c
	}
	for k, c := range f.byKind {
		f.byKind[k] = move(c, prefix+k.String())
	}
	f.total = move(f.total, prefix+"total")
}

// Counts snapshots the injection counters: kind name → count, nonzero
// kinds only. Once Instrument has moved them into a registry, sources
// sharing that registry share the counters.
func (f *Fates[K]) Counts() map[string]uint64 {
	out := map[string]uint64{}
	for k, c := range f.byKind {
		if n := c.Value(); n > 0 {
			out[k.String()] = uint64(n)
		}
	}
	return out
}

package template

import "math"

// hypot is math.Hypot for the kernel's per-point distance, written out
// so the compiler inlines it into the scoring loop. It performs the same
// IEEE operation sequence as the amd64 assembly behind math.Hypot —
// max · sqrt(1 + (min/max)²), 0 when both are 0 — so finite inputs give
// bit-identical results. The float64 conversions are explicit roundings:
// they forbid fusing the multiply-adds into FMA instructions (which
// GOAMD64=v3 would otherwise emit) and keep every step rounded as the
// assembly rounds it. Non-finite inputs give a non-finite result, though
// not always the one math.Hypot picks (Inf with NaN is NaN here).
//
//glint:hotpath
func hypot(x, y float64) float64 {
	p, q := math.Abs(x), math.Abs(y)
	if p < q {
		p, q = q, p
	}
	if p == 0 {
		return q // both are 0, or q is NaN
	}
	r := q / p
	return float64(p * math.Sqrt(1+float64(r*r)))
}

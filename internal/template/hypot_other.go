//go:build !amd64

package template

import "math"

// hypot is the kernel's per-point distance. Off amd64 math.Hypot has no
// assembly to mirror, so the kernel calls it directly; see
// hypot_amd64.go.
//
//glint:hotpath
func hypot(x, y float64) float64 { return math.Hypot(x, y) }

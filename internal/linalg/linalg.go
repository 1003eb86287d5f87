// Package linalg implements the small amount of dense linear algebra the
// statistical gesture recognizer needs: vectors, row-major matrices,
// Gauss-Jordan inversion with partial pivoting, and the quadratic forms
// behind the Mahalanobis distance of Duda & Hart that the paper leans on
// for both classification and eager-recognition training.
//
// The matrices involved are tiny (the feature space has 13 dimensions, the
// AUC doubles the class count, nothing exceeds a few dozen rows), so the
// implementation favors clarity and numerical robustness over asymptotics.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Vec is a dense float64 vector.
type Vec []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product of v and w. It panics on length mismatch:
// mismatched feature dimensions always indicate a bug upstream — every
// data-carrying entry point (classifier, features) validates dimensions
// and returns an error before vectors reach these kernels.
func (v Vec) Dot(w Vec) float64 {
	if len(v) != len(w) {
		//lint:ignore nopanic shape invariant, validated at data entry points
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	s := 0.0
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Sub returns v - w as a new vector.
func (v Vec) Sub(w Vec) Vec {
	if len(v) != len(w) {
		//lint:ignore nopanic shape invariant, validated at data entry points
		panic(fmt.Sprintf("linalg: Sub length mismatch %d vs %d", len(v), len(w)))
	}
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Add returns v + w as a new vector.
func (v Vec) Add(w Vec) Vec {
	if len(v) != len(w) {
		//lint:ignore nopanic shape invariant, validated at data entry points
		panic(fmt.Sprintf("linalg: Add length mismatch %d vs %d", len(v), len(w)))
	}
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// AddScaled adds s*w to v in place.
func (v Vec) AddScaled(s float64, w Vec) {
	if len(v) != len(w) {
		//lint:ignore nopanic shape invariant, validated at data entry points
		panic(fmt.Sprintf("linalg: AddScaled length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += s * w[i]
	}
}

// Scale multiplies v by s in place.
func (v Vec) Scale(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Norm returns the Euclidean norm of v.
func (v Vec) Norm() float64 {
	return math.Sqrt(v.Dot(v))
}

// Mat is a dense row-major matrix. The zero value is unusable; construct
// with NewMat or Identity. Fields are exported so trained classifiers can be
// serialized with encoding/json.
type Mat struct {
	Rows, Cols int
	A          []float64 // len Rows*Cols, row-major
}

// NewMat returns a zero matrix with the given shape.
func NewMat(rows, cols int) *Mat {
	if rows <= 0 || cols <= 0 {
		//lint:ignore nopanic construction invariant: dimensions are compile-time or validated-options constants
		panic("linalg: NewMat with non-positive dimension")
	}
	return &Mat{Rows: rows, Cols: cols, A: make([]float64, rows*cols)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns the element at row r, column c.
func (m *Mat) At(r, c int) float64 { return m.A[r*m.Cols+c] }

// Set assigns the element at row r, column c.
func (m *Mat) Set(r, c int, v float64) { m.A[r*m.Cols+c] = v }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.A, m.A)
	return out
}

// MulVec returns m * v.
func (m *Mat) MulVec(v Vec) Vec {
	if m.Cols != len(v) {
		//lint:ignore nopanic shape invariant, validated at data entry points
		panic(fmt.Sprintf("linalg: MulVec shape mismatch %dx%d * %d", m.Rows, m.Cols, len(v)))
	}
	out := make(Vec, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.A[r*m.Cols : (r+1)*m.Cols]
		s := 0.0
		for c, rv := range row {
			s += rv * v[c]
		}
		out[r] = s
	}
	return out
}

// Mul returns m * n.
func (m *Mat) Mul(n *Mat) *Mat {
	if m.Cols != n.Rows {
		//lint:ignore nopanic shape invariant, validated at data entry points
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	out := NewMat(m.Rows, n.Cols)
	for r := 0; r < m.Rows; r++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(r, k)
			if a == 0 {
				continue
			}
			for c := 0; c < n.Cols; c++ {
				out.A[r*out.Cols+c] += a * n.At(k, c)
			}
		}
	}
	return out
}

// AddDiag adds lambda to every diagonal element in place (ridge term).
func (m *Mat) AddDiag(lambda float64) {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.A[i*m.Cols+i] += lambda
	}
}

// MaxAbs returns the largest absolute element of m, or 0 for an all-zero
// matrix. It is used to scale the singularity threshold and ridge.
func (m *Mat) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.A {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// ErrSingular is returned by Invert when the matrix is singular (or so
// close to singular that inversion would be numerically meaningless).
var ErrSingular = errors.New("linalg: matrix is singular")

// Invert returns the inverse of square matrix m using Gauss-Jordan
// elimination with partial pivoting. It returns ErrSingular when a pivot
// falls below a scale-relative threshold. m is not modified.
func Invert(m *Mat) (*Mat, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: cannot invert %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	// Augmented [work | inv], both mutated in place.
	work := m.Clone()
	inv := Identity(n)
	scale := work.MaxAbs()
	if scale == 0 {
		return nil, ErrSingular
	}
	tol := scale * float64(n) * 1e-14
	for col := 0; col < n; col++ {
		// Partial pivoting: find the largest |pivot| at or below the diagonal.
		pr := col
		pmax := math.Abs(work.At(col, col))
		for r := col + 1; r < n; r++ {
			if a := math.Abs(work.At(r, col)); a > pmax {
				pmax, pr = a, r
			}
		}
		if pmax <= tol {
			return nil, ErrSingular
		}
		if pr != col {
			swapRows(work, pr, col)
			swapRows(inv, pr, col)
		}
		// Normalize the pivot row.
		p := work.At(col, col)
		scaleRow(work, col, 1/p)
		scaleRow(inv, col, 1/p)
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := work.At(r, col)
			if f == 0 {
				continue
			}
			addScaledRow(work, r, col, -f)
			addScaledRow(inv, r, col, -f)
		}
	}
	return inv, nil
}

func swapRows(m *Mat, a, b int) {
	ra := m.A[a*m.Cols : (a+1)*m.Cols]
	rb := m.A[b*m.Cols : (b+1)*m.Cols]
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

func scaleRow(m *Mat, r int, s float64) {
	row := m.A[r*m.Cols : (r+1)*m.Cols]
	for i := range row {
		row[i] *= s
	}
}

func addScaledRow(m *Mat, dst, src int, s float64) {
	rd := m.A[dst*m.Cols : (dst+1)*m.Cols]
	rs := m.A[src*m.Cols : (src+1)*m.Cols]
	for i := range rd {
		rd[i] += s * rs[i]
	}
}

// InvertRegularized inverts m, adding an escalating ridge term when m is
// singular. This is the documented stand-in for the paper's unspecified
// handling of singular covariance estimates (which arise, e.g., when a
// feature has zero variance across all training examples — the GDP "dot"
// gesture produces several such features). It returns the inverse and the
// ridge that was ultimately applied (0 when none was needed).
func InvertRegularized(m *Mat) (*Mat, float64, error) {
	if inv, err := Invert(m); err == nil {
		return inv, 0, nil
	}
	scale := m.MaxAbs()
	if scale == 0 {
		scale = 1
	}
	lambda := scale * 1e-8
	for i := 0; i < 12; i++ {
		work := m.Clone()
		work.AddDiag(lambda)
		if inv, err := Invert(work); err == nil {
			return inv, lambda, nil
		}
		lambda *= 10
	}
	return nil, 0, fmt.Errorf("linalg: regularized inversion failed: %w", ErrSingular)
}

// Solve returns x with m*x = b, via the inverse (the matrices here are at
// most a few dozen rows, so a dedicated factorization would be noise). It
// returns ErrSingular when m is singular and an error on shape mismatch.
func Solve(m *Mat, b Vec) (Vec, error) {
	if m.Rows != m.Cols || m.Rows != len(b) {
		return nil, fmt.Errorf("linalg: cannot solve %dx%d system with %d-vector", m.Rows, m.Cols, len(b))
	}
	inv, err := Invert(m)
	if err != nil {
		return nil, err
	}
	return inv.MulVec(b), nil
}

// BlendIdentity returns (1-w)*m + w*I — the covariance-blending fallback
// for singular estimates: as w grows the result interpolates from the
// measured matrix to the (always invertible) identity metric. w must be
// in [0, 1]; m must be square.
func BlendIdentity(m *Mat, w float64) *Mat {
	out := m.Clone()
	for i := range out.A {
		out.A[i] *= 1 - w
	}
	n := out.Rows
	if out.Cols < n {
		n = out.Cols
	}
	for i := 0; i < n; i++ {
		out.A[i*out.Cols+i] += w
	}
	return out
}

// AllFinite reports whether every element of v is finite (no NaN/Inf).
func (v Vec) AllFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// AllFinite reports whether every element of m is finite (no NaN/Inf).
func (m *Mat) AllFinite() bool {
	return Vec(m.A).AllFinite()
}

// QuadForm returns d' * m * d — the quadratic form at the heart of the
// Mahalanobis distance, where m is an inverse covariance matrix and d a
// difference from a class mean.
func QuadForm(m *Mat, d Vec) float64 {
	if m.Rows != len(d) || m.Cols != len(d) {
		//lint:ignore nopanic shape invariant, validated at data entry points
		panic(fmt.Sprintf("linalg: QuadForm shape mismatch %dx%d with %d", m.Rows, m.Cols, len(d)))
	}
	// Each row's inner product is summed in column order and the rows are
	// added to s in row order, skipping rows where d is zero. Two rows
	// share one pass over d, so their independent sums overlap in the
	// pipeline; the result is bit-identical to one row at a time.
	n := m.Cols
	s := 0.0
	r := 0
	for ; r+1 < m.Rows; r += 2 {
		row0, row1 := m.A[r*n:(r+1)*n], m.A[(r+1)*n:(r+2)*n]
		row0, row1 = row0[:len(d)], row1[:len(d)] // drops the loop's bounds checks
		in0, in1 := 0.0, 0.0
		for c, dc := range d {
			in0 += row0[c] * dc
			in1 += row1[c] * dc
		}
		if d[r] != 0 {
			s += d[r] * in0
		}
		if d[r+1] != 0 {
			s += d[r+1] * in1
		}
	}
	if r < m.Rows && d[r] != 0 {
		inner := 0.0
		for c, rv := range m.A[r*n : (r+1)*n] {
			inner += rv * d[c]
		}
		s += d[r] * inner
	}
	return s
}

// Mahalanobis returns sqrt(max(0, (a-b)' inv (a-b))): the Mahalanobis
// distance between a and b under the metric given by the inverse covariance
// inv. Negative quadratic forms (possible with a regularized or slightly
// asymmetric inverse) clamp to zero. Training calls it once per example
// and class, so for vectors of up to 32 elements a-b is formed in a stack
// buffer, with the same operations as Sub, instead of allocated.
func Mahalanobis(inv *Mat, a, b Vec) float64 {
	var buf [32]float64
	var d Vec
	if len(a) <= len(buf) && len(a) == len(b) {
		d = buf[:len(a)]
		for i := range a {
			d[i] = a[i] - b[i]
		}
	} else {
		d = a.Sub(b)
	}
	q := QuadForm(inv, d)
	if q < 0 {
		q = 0
	}
	return math.Sqrt(q)
}
